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
  certified direction has accepted neighbours;
* an F node is covered if it lies strictly inside the ball or both
  direction nodes bracketing its angle survive the erosion.

``verify_cone`` re-checks both inclusions by brute force over grid nodes.
It shares no capture logic with the search, only the per-grid node
tables below; the tests check those against independent formulas.

Geometry that depends on the grid alone, not on the sets, is tabulated
once per key in bounded LRU tables of at most 4 entries each, and every
set on that grid only gathers from them:

* per (dimension, resolution, ladder_steps): the ray sample parameters
  and the flat index of the grid cell holding each ray sample (about
  1 MB at resolution 256);
* per (dimension, resolution): the node radii and the rim pull-back of
  the radial extension below;
* per (resolution, direction count): the lower direction bracket of each
  node's angle.

Indices are int32 and every cached array is read-only.  Node coordinates
are not kept; they are rebuilt where a table is built.

For lookups just outside the unit sphere (cell corners of rim samples)
the indicator of an open set is extended radially from about one cell
inside the rim; the extension never feeds back into verification, which
only reads honest node values inside the closed ball.
"""

from __future__ import annotations

import functools
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
    """Accepted (eroded) direction indicator plus the certified radius."""

    directions: np.ndarray
    radius: float
    verified: bool

    def __post_init__(self) -> None:
        d = np.array(self.directions, dtype=bool)
        if not (0.0 < self.radius < 1.0):
            raise ParameterError(f"certificate radius must lie in (0,1), got {self.radius}")
        d.flags.writeable = False
        object.__setattr__(self, "directions", d)

    @property
    def dimension(self) -> int:
        return 1 if self.directions.size == 2 else 2


def from_predicate(dimension: int, resolution: int, predicate, closed: bool) -> SampledSet:
    """Sample an analytic predicate (vectorized over (N, dimension) points)."""
    pts = _grid_points(dimension, resolution)
    values = np.asarray(predicate(pts), dtype=bool).reshape((resolution,) * dimension)
    return SampledSet(dimension=dimension, resolution=resolution, closed=closed, indicator=values)


def _grid_points(dimension: int, resolution: int) -> np.ndarray:
    """Grid nodes over [-1,1]^dimension as (N, dimension) rows, C order."""
    axis = np.linspace(-1.0, 1.0, resolution)
    if dimension == 1:
        return axis[:, None]
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xs.reshape(-1), ys.reshape(-1)], axis=-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=4)
def _node_tables(dimension: int, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node radii and the rim pull-back ``(dst, src)`` of one grid.

    ``dst`` lists the flat nodes outside the closed unit ball and
    ``src[k]`` the node nearest to the radial pull-back of ``dst[k]`` to
    radius 1 - h.  Both are empty on 1-D grids, whose nodes all lie in
    the closed ball.
    """
    pts = _grid_points(dimension, resolution)
    radii = np.linalg.norm(pts, axis=-1)
    outside = radii > 1.0
    h = 2.0 / (resolution - 1)
    pulled = pts[outside] * ((1.0 - h) / radii[outside])[:, None]
    idx = np.clip(np.rint((pulled + 1.0) / h).astype(np.int64), 0, resolution - 1)
    src = np.ravel_multi_index(tuple(idx.T), (resolution,) * dimension)
    dst = np.flatnonzero(outside)
    return (
        _read_only(radii),
        _read_only(dst.astype(np.int32)),
        _read_only(src.astype(np.int32)),
    )


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
    _, dst, src = _node_tables(s.dimension, s.resolution)
    if dst.size == 0:
        return s.indicator
    flat = s.indicator.reshape(-1).copy()
    flat[dst] = flat[src]
    return flat.reshape(s.indicator.shape)


def _cells_all_true(indicator: np.ndarray) -> np.ndarray:
    """Per grid cell, (res - 1)^m of them: every corner is in the set."""
    ok = indicator[:-1] & indicator[1:]
    if ok.ndim == 2:
        ok = ok[:, :-1] & ok[:, 1:]
    return ok


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
    radii, _, _ = _node_tables(f.dimension, f.resolution)
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


@functools.lru_cache(maxsize=4)
def _ray_cells(
    dimension: int, resolution: int, ladder_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ray sample parameters ``ts`` and the cell holding every ray sample.

    Entry (j, k) of the second array is the flat index, on the
    (res - 1)^m cell grid, of the cell that contains ts[k] * direction j.
    """
    # 2-D sets: 4 x resolution directions keep the rim's angular spacing below one cell
    dirs = _directions(dimension, 4 * resolution)
    h = 2.0 / (resolution - 1)
    t_lo = 1.0 / ladder_steps
    count = int(math.ceil((1.0 - t_lo) / (h / 2.0))) + 1
    ts = np.linspace(t_lo, 1.0, count)
    cells = np.zeros((len(dirs), count), dtype=np.int64)
    for a in range(dimension):
        i = np.floor((ts[None, :] * dirs[:, a, None] + 1.0) / h).astype(np.int64)
        cells = cells * (resolution - 1) + np.clip(i, 0, resolution - 2)
    return _read_only(ts), _read_only(cells.astype(np.int32))


def ray_clearance(g: SampledSet, ladder_steps: int = DEFAULT_LADDER_STEPS) -> np.ndarray:
    """Largest blocked parameter per direction.

    Entry j is the largest sample t in [1/K, 1] whose cell test fails
    along direction j (or -inf when the whole ray is clear).  Direction j
    belongs to the radius-r cone exactly when the entry is < r.
    """
    ts, cells = _ray_cells(g.dimension, g.resolution, ladder_steps)
    ok = _cells_all_true(_extended_indicator(g)).reshape(-1)[cells]
    blocked = np.where(ok, -np.inf, ts)
    return np.max(blocked, axis=1)


def _lower_bracket(pts: np.ndarray, nd: int) -> np.ndarray:
    """Direction-grid node j0 at or below each point's angle (2D sets).

    The upper bracket is j1 = (j0 + 1) % nd.
    """
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    step = 2.0 * np.pi / nd
    return np.floor(angles / step).astype(np.int64) % nd


@functools.lru_cache(maxsize=4)
def _node_brackets(resolution: int, nd: int) -> np.ndarray:
    """Lower direction bracket of every node of a 2-D grid."""
    return _read_only(_lower_bracket(_grid_points(2, resolution), nd).astype(np.int32))


def _covered(f: SampledSet, certificate: ConeCertificate) -> np.ndarray:
    """Coverage mask of F nodes by the certificate's open ball union its cone."""
    radii, _, _ = _node_tables(f.dimension, f.resolution)
    accepted = certificate.directions
    if f.dimension == 1:
        in_cone = accepted[(f.coordinates() > 0.0).astype(np.int64)]
    else:
        # both brackets accepted: j0 and j0 + 1 read through one rolled copy
        both = accepted & np.roll(accepted, -1)
        in_cone = both[_node_brackets(f.resolution, accepted.size)]
    in_cone &= radii > 0.0
    # one cell of slack: F nodes may poke past the sphere by grid fuzz
    in_unit = radii <= 1.0 + f.spacing
    mask = (radii < certificate.radius) | (in_unit & in_cone)
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
    radii, _, _ = _node_tables(f.dimension, f.resolution)
    stray = f.indicator.reshape(-1) & (radii > 1.0 + f.spacing)
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
    certificate = ConeCertificate(directions=accepted, radius=radius, verified=False)
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
    j0 = _lower_bracket(pts, accepted.size)
    return accepted[j0] & accepted[(j0 + 1) % accepted.size] & (radii > 0.0)


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
    radii, _, _ = _node_tables(f.dimension, f.resolution)

    if f.dimension == 1:
        x = f.coordinates()
        in_cone = accepted[(x > 0.0).astype(np.int64)] & (np.abs(x) > 0.0)
    else:
        nd = accepted.size
        j0 = _node_brackets(f.resolution, nd)
        in_cone = accepted[j0] & accepted[(j0 + 1) % nd] & (radii > 0.0)

    f_flat = f.indicator.reshape(-1)
    outside_ball = f_flat & (radii >= radius)
    capture_ok = bool(
        np.all(in_cone[outside_ball] & (radii[outside_ball] <= 1.0 + f.spacing))
    )

    annulus = (radii >= radius) & (radii <= 1.0 + 1e-12)
    g_flat = g.indicator.reshape(-1)
    ambient_ok = bool(np.all(g_flat[annulus & in_cone]))
    return capture_ok and ambient_ok
