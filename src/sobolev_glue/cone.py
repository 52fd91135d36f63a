"""Sampled star-shaped capture of a closed set by a cone over directions.

Everything here lives on a regular node grid over [-1,1]^m, m in {1,2}.
``find_cone`` checks the single radius r = 1 - 1/K (K = ``ladder_steps``):
a closed sampled set F must be contained in the open ball of radius r
united with a cone of directions whose rays stay inside an open sampled
set G across the annulus between radius r and the unit sphere.  No other
radius k/K needs a check, because the test only gets easier as r grows.
Containments are certified at grid scale only:

* rays run along 2 directions on a 1-D grid and along 4 x resolution
  equally spaced directions on a 2-D grid, so their angular spacing at
  the rim stays below one grid cell;
* a ray direction is accepted if every sample point along it between r
  and 1 lies in a grid cell all of whose corners are in G;
* the accepted direction set is eroded by one direction cell, so every
  certified direction has accepted neighbours (the certificate stores the
  un-eroded set as ``pre_margin``);
* an F node is covered if it lies strictly inside the ball or both
  direction nodes bracketing its angle survive the erosion.

``verify_cone`` re-checks both inclusions by brute force over grid nodes,
sharing no code path with the search.

For lookups just outside the unit sphere (cell corners of rim samples)
the indicator of an open set is extended radially from about one cell
inside the rim; the extension never feeds back into verification, which
only reads honest node values inside the closed ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError, ResolutionError

#: K: ``find_cone`` checks the radius 1 - 1/K and scans rays from 1/K
DEFAULT_LADDER_STEPS = 64


@dataclass(frozen=True)
class SampledSet:
    dimension: int
    resolution: int
    closed: bool
    indicator: np.ndarray

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ParameterError(f"sampled sets support dimension 1 or 2, got {self.dimension}")
        if self.resolution < 2:
            raise ParameterError("sampled sets need at least 2 nodes per axis")
        ind = np.array(self.indicator, dtype=bool)
        expected = (self.resolution,) * self.dimension
        if ind.shape != expected:
            raise ParameterError(f"indicator shape {ind.shape}, expected {expected}")
        ind.flags.writeable = False
        object.__setattr__(self, "indicator", ind)

    @property
    def spacing(self) -> float:
        return 2.0 / (self.resolution - 1)

    def coordinates(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.resolution)


@dataclass(frozen=True)
class ConeCertificate:
    """Direction indicator plus a radius; ``pre_margin`` is the un-eroded set."""

    directions: np.ndarray
    radius: float
    verified: bool
    pre_margin: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.directions, dtype=bool)
        m = np.array(self.pre_margin, dtype=bool)
        if d.shape != m.shape:
            raise ParameterError("direction and margin indicators differ in shape")
        if not (0.0 < self.radius < 1.0):
            raise ParameterError(f"certificate radius must lie in (0,1), got {self.radius}")
        d.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "pre_margin", m)

    @property
    def dimension(self) -> int:
        return 1 if self.directions.size == 2 else 2


def from_predicate(dimension: int, resolution: int, predicate, closed: bool) -> SampledSet:
    """Sample an analytic predicate (vectorized over (N, dimension) points)."""
    axis = np.linspace(-1.0, 1.0, resolution)
    if dimension == 1:
        pts = axis[:, None]
    else:
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=-1)
    values = np.asarray(predicate(pts), dtype=bool).reshape((resolution,) * dimension)
    return SampledSet(dimension=dimension, resolution=resolution, closed=closed, indicator=values)


def node_points(s: SampledSet) -> np.ndarray:
    axis = s.coordinates()
    if s.dimension == 1:
        return axis[:, None]
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xs.reshape(-1), ys.reshape(-1)], axis=-1)


def _check_pair(f: SampledSet, g: SampledSet) -> None:
    if f.dimension != g.dimension:
        raise DomainError("sets have different dimensions")
    if f.resolution != g.resolution:
        raise DomainError(
            f"set resolutions differ: {f.resolution} vs {g.resolution}"
        )


def _extended_indicator(s: SampledSet) -> np.ndarray:
    """Indicator with nodes outside the closed unit ball filled radially.

    An outside node reads the value of the node nearest to its radial
    pull-back just inside the rim.  Only used by conservative cell tests.
    """
    if s.dimension == 1:
        return s.indicator
    res = s.resolution
    h = s.spacing
    pts = node_points(s)
    radii = np.linalg.norm(pts, axis=-1)
    outside = radii > 1.0
    if not np.any(outside):
        return s.indicator
    ind = np.array(s.indicator)
    pulled = pts[outside] * ((1.0 - h) / radii[outside])[:, None]
    idx = np.rint((pulled + 1.0) / h).astype(np.int64)
    idx = np.clip(idx, 0, res - 1)
    flat = ind.reshape(-1)
    src = idx[:, 0] * res + idx[:, 1]
    flat_out = np.where(outside.reshape(-1))[0]
    flat[flat_out] = flat[src]
    return flat.reshape(res, res)


def _cells_all_true(indicator: np.ndarray, pts: np.ndarray, resolution: int) -> np.ndarray:
    """True where every corner of the containing grid cell is in the set."""
    h = 2.0 / (resolution - 1)
    idx = np.floor((pts + 1.0) / h).astype(np.int64)
    idx = np.clip(idx, 0, resolution - 2)
    if pts.shape[1] == 1:
        i = idx[:, 0]
        return indicator[i] & indicator[i + 1]
    i, j = idx[:, 0], idx[:, 1]
    return (
        indicator[i, j]
        & indicator[i + 1, j]
        & indicator[i, j + 1]
        & indicator[i + 1, j + 1]
    )


def _interior_nodes(indicator: np.ndarray, extended: np.ndarray) -> np.ndarray:
    """Nodes whose full one-cell neighbourhood lies in the set.

    Neighbour lookups beyond the grid edge are vacuous; lookups beyond the
    unit sphere read the radial extension.
    """
    out = indicator.copy()
    padded = np.pad(extended, 1, constant_values=True)
    if indicator.ndim == 1:
        n = indicator.size
        out &= padded[0:n] & padded[2 : n + 2]
        return out
    n0, n1 = indicator.shape
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            out &= padded[1 + di : 1 + di + n0, 1 + dj : 1 + dj + n1]
    return out


def check_boundary_containment(f: SampledSet, g: SampledSet) -> bool:
    """Every F node within one cell of the unit sphere sits in G's interior."""
    _check_pair(f, g)
    pts = node_points(f)
    radii = np.linalg.norm(pts, axis=-1)
    delta = f.spacing * math.sqrt(f.dimension)
    near_rim = np.abs(radii - 1.0) <= delta
    f_flat = f.indicator.reshape(-1)
    candidates = f_flat & near_rim
    if not np.any(candidates):
        return True
    interior = _interior_nodes(g.indicator, _extended_indicator(g)).reshape(-1)
    return bool(np.all(interior[candidates]))


def _directions(dimension: int, count: int) -> np.ndarray:
    if dimension == 1:
        return np.array([[-1.0], [1.0]])
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def ray_clearance(g: SampledSet, ladder_steps: int = DEFAULT_LADDER_STEPS) -> np.ndarray:
    """Largest blocked parameter per direction.

    Entry j is the largest sample t in [1/K, 1] whose cell test fails
    along direction j (or -inf when the whole ray is clear).  Direction j
    belongs to the radius-r cone exactly when the entry is < r.
    """
    # 2-D sets: 4 x resolution directions keep the rim's angular spacing below one cell
    dirs = _directions(g.dimension, 4 * g.resolution)
    h = g.spacing
    t_lo = 1.0 / ladder_steps
    count = int(math.ceil((1.0 - t_lo) / (h / 2.0))) + 1
    ts = np.linspace(t_lo, 1.0, count)
    ext = _extended_indicator(g)
    pts = ts[None, :, None] * dirs[:, None, :]
    ok = _cells_all_true(ext, pts.reshape(-1, g.dimension), g.resolution)
    ok = ok.reshape(len(dirs), count)
    blocked = np.where(ok, -np.inf, ts[None, :])
    return np.max(blocked, axis=1)


def _bracket_indices(pts: np.ndarray, nd: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction-grid nodes bracketing each point's angle (2D sets)."""
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    step = 2.0 * np.pi / nd
    j0 = np.floor(angles / step).astype(np.int64) % nd
    j1 = (j0 + 1) % nd
    return j0, j1


def _covered(f: SampledSet, certificate: ConeCertificate) -> np.ndarray:
    """Coverage mask of F nodes by the certificate's open ball union its cone."""
    pts = node_points(f)
    radii = np.linalg.norm(pts, axis=-1)
    # one cell of slack: F nodes may poke past the sphere by grid fuzz
    in_unit = radii <= 1.0 + f.spacing
    mask = (radii < certificate.radius) | (in_unit & accepts(certificate, pts))
    return np.where(f.indicator.reshape(-1), mask, True)


def find_cone(
    f: SampledSet,
    g: SampledSet,
    ladder_steps: int = DEFAULT_LADDER_STEPS,
) -> ConeCertificate:
    """Certify a cone capture at the single radius r = 1 - 1/K.

    K is ``ladder_steps``; rays are scanned from 1/K outward.  Every
    ingredient of the capture test (accepted directions, their one-cell
    erosion, the open ball, cone membership) only grows with r, so no
    smaller radius of the form k/K can succeed where r fails.  Raises
    PreconditionError when F touches the rim outside G's interior and
    ResolutionError when r does not certify containment at this grid
    resolution.
    """
    _check_pair(f, g)
    if not f.closed:
        raise ParameterError("the captured set F must be sampled closed")
    if g.closed:
        raise ParameterError("the ambient set G must be sampled open")
    if ladder_steps < 2:
        raise ParameterError(f"ladder needs at least 2 steps, got {ladder_steps}")
    pts = node_points(f)
    stray = f.indicator.reshape(-1) & (np.linalg.norm(pts, axis=-1) > 1.0 + f.spacing)
    if np.any(stray):
        raise ParameterError("F has nodes outside the closed unit ball")
    if not check_boundary_containment(f, g):
        raise PreconditionError(
            "F meets the unit sphere outside the sampled interior of G"
        )
    radius = (ladder_steps - 1) / ladder_steps
    pre = ray_clearance(g, ladder_steps) < radius
    if f.dimension == 1:
        accepted = pre
    else:
        accepted = pre & np.roll(pre, 1) & np.roll(pre, -1)
    certificate = ConeCertificate(
        directions=accepted, radius=radius, verified=False, pre_margin=pre
    )
    if not np.all(_covered(f, certificate)):
        raise ResolutionError(
            "no ladder radius certifies F inside ball-plus-cone at this resolution"
        )
    return replace(certificate, verified=verify_cone(f, g, certificate))


def accepts(certificate: ConeCertificate, pts: np.ndarray) -> np.ndarray:
    """Conservative cone membership of points: both bracketing directions.

    ``pts`` has shape (N, 1) or (N, 2) to match the certificate's ambient
    dimension.  The origin is never accepted (it carries no direction).
    """
    pts = np.asarray(pts, dtype=np.float64)
    accepted = certificate.directions
    if certificate.dimension == 1:
        sign_idx = (pts[:, 0] > 0.0).astype(np.int64)
        return accepted[sign_idx] & (np.abs(pts[:, 0]) > 0.0)
    radii = np.linalg.norm(pts, axis=-1)
    j0, j1 = _bracket_indices(pts, accepted.size)
    return accepted[j0] & accepted[j1] & (radii > 0.0)


def verify_cone(f: SampledSet, g: SampledSet, certificate: ConeCertificate) -> bool:
    """Brute-force node check of both certified inclusions.

    Checks that every F node outside the open ball lies in the closed unit
    ball with both bracketing directions accepted, and that every grid
    node of the annulus whose direction is accepted lies in G.
    """
    _check_pair(f, g)
    accepted = certificate.directions
    if f.dimension == 1 and accepted.size != 2:
        raise ParameterError("one-dimensional sets need exactly 2 direction bits")
    if f.dimension == 2 and accepted.size < 4:
        raise ParameterError("two-dimensional sets need at least 4 direction bits")
    radius = certificate.radius
    pts = node_points(f)
    radii = np.linalg.norm(pts, axis=-1)

    if f.dimension == 1:
        sign_idx = (pts[:, 0] > 0.0).astype(np.int64)
        in_cone = accepted[sign_idx] & (np.abs(pts[:, 0]) > 0.0)
    else:
        j0, j1 = _bracket_indices(pts, accepted.size)
        in_cone = accepted[j0] & accepted[j1] & (radii > 0.0)

    f_flat = f.indicator.reshape(-1)
    outside_ball = f_flat & (radii >= radius)
    capture_ok = bool(
        np.all(in_cone[outside_ball] & (radii[outside_ball] <= 1.0 + f.spacing))
    )

    annulus = (radii >= radius) & (radii <= 1.0 + 1e-12)
    g_flat = g.indicator.reshape(-1)
    ambient_ok = bool(np.all(g_flat[annulus & in_cone]))
    return capture_ok and ambient_ok
