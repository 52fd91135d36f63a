"""Sampled star-shaped capture of a closed set by a cone over directions.

Everything here lives on a regular node grid over [-1,1]^m, m in {1,2}.
``find_cone`` checks the one radius r = ``CERTIFIED_RADIUS`` = 63/64: a
closed sampled set F must be contained in the open ball of radius r
united with a cone of directions whose rays stay inside an open sampled
set G across the annulus between radius r and the unit sphere.  No
smaller radius needs a check, because the test only gets easier as r
grows.  Containments are certified at grid scale only:

* rays run along 2 directions on a 1-D grid and along 4 x resolution
  equally spaced directions on a 2-D grid, so their angular spacing at
  the rim stays below one grid cell;
* a ray direction is accepted if every sample point along it in [r, 1]
  lies in a grid cell all of whose corners are in G; the samples are
  those of a lattice from 1 - r to 1 in steps of about half a cell;
* the accepted direction set is eroded by one direction cell, so every
  certified direction has accepted neighbours;
* an F node is covered if it lies strictly inside the ball or both
  direction nodes bracketing it survive the erosion.

``_brackets`` is the one rule for which directions bracket a point.
``verify_cone`` re-checks both inclusions by brute force over grid nodes.
Its capture half is ``_covered``'s predicate again, on the same node and
bracket tables, so it is not independent of the search; its ambient half
reads G's node values, which the search reads only through cell tests.
The tests check the tables against independent formulas.
Node meshes, cell tests and neighbourhoods (``_grid_points``,
``_cells_all_true``, ``_interior_nodes``) are written once for any
dimension; ``covering`` reuses the cell test on its periodic base grid.

Geometry that depends on the grid alone, not on the sets, is tabulated
once per key in bounded LRU tables of at most 4 entries each, and every
set on that grid only gathers from them:

* per (dimension, resolution, radius): the flat index of the grid cell
  holding each ray sample in [r, 1] (about 20 KB at resolution 256);
* per (dimension, resolution): the node radii and the rim pull-back of
  the radial extension below;
* per (dimension, resolution, direction count): the bracket pair
  ``(j0, j1)`` of every node.

Indices are int32 and every cached array is read-only.  Node coordinates
are not kept; they are rebuilt where a table is built.

For lookups just outside the unit sphere (cell corners of rim samples)
the indicator of an open set is extended radially from about one cell
inside the rim; the extension never feeds back into verification, which
only reads honest node values inside the closed ball.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import wrap
from .errors import DomainError, ParameterError, PreconditionError, ResolutionError

#: r: ``find_cone`` certifies the open ball of this radius plus a cone
CERTIFIED_RADIUS = 63.0 / 64.0


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


def _grid_points(dimension: int, resolution: int) -> np.ndarray:
    """Grid nodes over [-1,1]^dimension as (N, dimension) rows, C order."""
    axis = np.linspace(-1.0, 1.0, resolution)
    mesh = np.meshgrid(*[axis] * dimension, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=-1)


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
    flat = s.indicator.reshape(-1).copy()
    flat[dst] = flat[src]
    return flat.reshape(s.indicator.shape)


def _cells_all_true(indicator: np.ndarray) -> np.ndarray:
    """Per grid cell, (n - 1) per axis of n nodes: every corner is in the set."""
    ok = indicator
    for a in range(indicator.ndim):
        before = (slice(None),) * a
        ok = ok[before + (slice(None, -1),)] & ok[before + (slice(1, None),)]
    return ok


def _interior_nodes(indicator: np.ndarray, extended: np.ndarray) -> np.ndarray:
    """Nodes whose full one-cell neighbourhood lies in the set.

    Neighbour lookups beyond the grid edge are vacuous; lookups beyond the
    unit sphere read the radial extension.
    """
    out = indicator.copy()
    padded = np.pad(extended, 1, constant_values=True)
    for shift in itertools.product((-1, 0, 1), repeat=indicator.ndim):
        if any(shift):
            out &= padded[tuple(slice(1 + d, 1 + d + n) for d, n in zip(shift, indicator.shape))]
    return out


def check_boundary_containment(f: SampledSet, g: SampledSet) -> bool:
    """Every F node within one cell of the unit sphere sits in G's interior."""
    _check_pair(f, g)
    radii, _, _ = _node_tables(f.dimension, f.resolution)
    delta = f.spacing * math.sqrt(f.dimension)
    near_rim = np.abs(radii - 1.0) <= delta
    candidates = f.indicator.reshape(-1) & near_rim
    interior = _interior_nodes(g.indicator, _extended_indicator(g)).reshape(-1)
    return bool(np.all(interior[candidates]))


def _directions(dimension: int, count: int) -> np.ndarray:
    if dimension == 1:
        return np.array([[-1.0], [1.0]])
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


@functools.lru_cache(maxsize=4)
def _ray_cells(dimension: int, resolution: int, radius: float) -> np.ndarray:
    """The cell holding every ray sample in [radius, 1].

    The samples are those at t >= radius of a lattice running from
    1 - radius to 1 in steps of about h/2.  Entry (j, k) is the flat
    index, on the (res - 1)^m cell grid, of the cell that contains the
    k-th such sample along direction j.
    """
    # 2-D sets: 4 x resolution directions keep the rim's angular spacing below one cell
    dirs = _directions(dimension, 4 * resolution)
    h = 2.0 / (resolution - 1)
    t_lo = 1.0 - radius
    ts = np.linspace(t_lo, 1.0, int(math.ceil((1.0 - t_lo) / (h / 2.0))) + 1)
    ts = ts[ts >= radius]
    cells = np.zeros((len(dirs), ts.size), dtype=np.int64)
    for a in range(dimension):
        i = np.floor((ts[None, :] * dirs[:, a, None] + 1.0) / h).astype(np.int64)
        cells = cells * (resolution - 1) + np.clip(i, 0, resolution - 2)
    return _read_only(cells.astype(np.int32))


def ray_clearance(g: SampledSet) -> np.ndarray:
    """Per direction: every ray sample in [r, 1] passes the cell test.

    r is ``CERTIFIED_RADIUS``; direction j belongs to the radius-r cone
    before erosion exactly when entry j is True.
    """
    cells = _ray_cells(g.dimension, g.resolution, CERTIFIED_RADIUS)
    ok = _cells_all_true(_extended_indicator(g)).reshape(-1)[cells]
    return np.all(ok, axis=1)


def _brackets(pts: np.ndarray, nd: int) -> tuple[np.ndarray, np.ndarray]:
    """The two direction nodes ``(j0, j1)`` bracketing each of the (N, m) points.

    On a 1-D set both are the point's side: 0 for x <= 0, 1 for x > 0.
    On a 2-D set j0 is the direction at or below the point's angle and
    j1 = (j0 + 1) % nd the next one.
    """
    if pts.shape[1] == 1:
        side = (pts[:, 0] > 0.0).astype(np.int64)
        return side, side
    angles = wrap(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    j0 = np.floor(angles / (2.0 * np.pi / nd)).astype(np.int64) % nd
    return j0, (j0 + 1) % nd


@functools.lru_cache(maxsize=4)
def _node_brackets(dimension: int, resolution: int, nd: int) -> tuple[np.ndarray, np.ndarray]:
    """``_brackets`` of every node of a grid."""
    j0, j1 = _brackets(_grid_points(dimension, resolution), nd)
    return _read_only(j0.astype(np.int32)), _read_only(j1.astype(np.int32))


def _in_cone(
    accepted: np.ndarray, brackets: tuple[np.ndarray, np.ndarray], off_origin: np.ndarray
) -> np.ndarray:
    """Both bracketing directions accepted; the origin carries no direction."""
    j0, j1 = brackets
    return accepted[j0] & accepted[j1] & off_origin


def _covered(f: SampledSet, certificate: ConeCertificate) -> np.ndarray:
    """Coverage mask of F nodes by the certificate's open ball union its cone."""
    radii, _, _ = _node_tables(f.dimension, f.resolution)
    accepted = certificate.directions
    brackets = _node_brackets(f.dimension, f.resolution, accepted.size)
    in_cone = _in_cone(accepted, brackets, radii > 0.0)
    # F nodes up to one cell past the sphere (grid fuzz) are judged by the
    # cone alone; find_cone refuses any farther out before it gets here
    mask = (radii < certificate.radius) | in_cone
    return np.where(f.indicator.reshape(-1), mask, True)


def find_cone(f: SampledSet, g: SampledSet) -> ConeCertificate:
    """Certify a cone capture at the one radius r = ``CERTIFIED_RADIUS``.

    Every ingredient of the capture test (accepted directions, their
    one-cell erosion, the open ball, cone membership) only grows with r,
    so no smaller radius can succeed where r fails.  Raises
    PreconditionError when F touches the rim outside G's interior and
    ResolutionError when r does not certify containment at this grid
    resolution.
    """
    _check_pair(f, g)
    if not f.closed:
        raise ParameterError("the captured set F must be sampled closed")
    if g.closed:
        raise ParameterError("the ambient set G must be sampled open")
    radii, _, _ = _node_tables(f.dimension, f.resolution)
    stray = f.indicator.reshape(-1) & (radii > 1.0 + f.spacing)
    if np.any(stray):
        raise ParameterError("F has nodes outside the closed unit ball")
    if not check_boundary_containment(f, g):
        raise PreconditionError(
            "F meets the unit sphere outside the sampled interior of G"
        )
    radius = CERTIFIED_RADIUS
    pre = ray_clearance(g)
    if f.dimension == 1:
        accepted = pre
    else:
        accepted = pre & np.roll(pre, 1) & np.roll(pre, -1)
    certificate = ConeCertificate(directions=accepted, radius=radius, verified=False)
    if not np.all(_covered(f, certificate)):
        raise ResolutionError(
            f"radius {radius} does not certify F inside ball-plus-cone at this resolution"
        )
    return replace(certificate, verified=verify_cone(f, g, certificate))


def accepts(certificate: ConeCertificate, pts: np.ndarray) -> np.ndarray:
    """Conservative cone membership of points: both bracketing directions.

    ``pts`` has shape (N, 1) or (N, 2) to match the certificate's ambient
    dimension.  The origin is never accepted (it carries no direction);
    a point with any nonzero coordinate, however small, is judged by the
    directions that bracket it.
    """
    pts = np.asarray(pts, dtype=np.float64)
    accepted = certificate.directions
    # a norm would underflow to 0 for 2-D points below about 1e-162
    off_origin = np.any(pts != 0.0, axis=-1)
    return _in_cone(accepted, _brackets(pts, accepted.size), off_origin)


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
    j0, j1 = _node_brackets(f.dimension, f.resolution, accepted.size)
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
