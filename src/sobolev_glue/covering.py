"""Chart coverings of the circle and the flat torus, and the glue induction.

A covering carries K >= 2 overlapping chart cores G_i, each with a map
to the unit ball of chart coordinates: arcs mapped affinely onto [-1,1]
for the circle, squares mapped affinely onto [-1,1]^2 and then through
a fixed smooth square-to-disk diffeomorphism for the torus.

``glue`` runs the inductive construction over a collar base x (0, depth):
the first chart's patch is adopted on its core; every later chart
contributes its patch on a ball of certified radius r_i and is folded
into the previous state across the cone-captured annulus.  The fold is
``folding.fold_sources``, the square fold's rule, applied in (radial
parameter, depth / collar depth) coordinates with the previous state as
the first map and the patch as the second; moved samples return to the
ball through ``radial_fold_map``.  Bookkeeping tracks the sampled
trusted region H_i and checks the covering invariant
H_i union G_{i+1} ... G_K = base after every step.  A chart core is a
box: ``Chart.core_masks`` ANDs one interval test per axis over a product
grid, ``glue`` builds these masks once per grid (collar base and check
grid), and ``Chart.in_core`` tests only scattered pull-back points.
Every step's cone certificate is checked by
``cone.find_cone`` itself, and a step whose check fails raises.
``verify_glue`` audits what the steps do not: the glued map's bottom
face against the trace at every base node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cone as cone_mod
from .domain import Axis, DomainSpec, TWO_PI, box, collar_over, from_kind, square
from .energy import PenaltySpec, penalized_energy
from .errors import (
    DomainError,
    GlueError,
    ParameterError,
    PreconditionError,
    ResolutionError,
)
from .folding import fold_sources
from .gridmap import (
    GridMap,
    TraceMap,
    _locate,
    default_constraint_tol,
    evaluate_batch,
    extract_trace,
    grid_coordinates,
    node_mesh,
)
from .target import project_to_target

#: chart-coordinate sampling for cone capture, by base dimension
_CONE_RESOLUTION = {1: 513, 2: 257}

#: base-grid sampling for the trusted-region bookkeeping, by base dimension
_CHECK_RESOLUTION = {1: 2048, 2: 384}


# ---------------------------------------------------- square <-> disk maps

def square_to_disk(xy: np.ndarray) -> np.ndarray:
    """Smooth diffeomorphism [-1,1]^2 -> closed unit disk (elliptical map)."""
    xy = np.asarray(xy, dtype=np.float64)
    x, y = xy[..., 0], xy[..., 1]
    u = x * np.sqrt(np.maximum(1.0 - 0.5 * y * y, 0.0))
    v = y * np.sqrt(np.maximum(1.0 - 0.5 * x * x, 0.0))
    return np.stack([u, v], axis=-1)


def disk_to_square(uv: np.ndarray) -> np.ndarray:
    """Inverse of :func:`square_to_disk` on the closed unit disk."""
    uv = np.asarray(uv, dtype=np.float64)
    u, v = uv[..., 0], uv[..., 1]
    uu, vv = u * u, v * v
    root8 = 2.0 * math.sqrt(2.0)
    tx = 2.0 + uu - vv
    ty = 2.0 - uu + vv
    # clamped square roots: radicands only dip below zero by rounding
    x = 0.5 * (
        np.sqrt(np.maximum(tx + root8 * u, 0.0))
        - np.sqrt(np.maximum(tx - root8 * u, 0.0))
    )
    y = 0.5 * (
        np.sqrt(np.maximum(ty + root8 * v, 0.0))
        - np.sqrt(np.maximum(ty - root8 * v, 0.0))
    )
    return np.stack([x, y], axis=-1)


# ------------------------------------------------------------------ charts

@dataclass(frozen=True)
class Chart:
    """One chart: the core box G centered at ``center``."""

    index: int
    base_lengths: tuple[float, ...]
    center: tuple[float, ...]
    core_extent: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.center)

    def _wrapped_offset(self, axis: int, x: np.ndarray) -> np.ndarray:
        """Signed offsets from the center along one axis, the shorter way round."""
        length = self.base_lengths[axis]
        delta = np.mod(x - self.center[axis], length)
        return np.where(delta > length / 2.0, delta - length, delta)

    def _wrapped_offsets(self, pts: np.ndarray) -> np.ndarray:
        """Signed offsets from the center, wrapped to the shorter way round."""
        pts = np.asarray(pts, dtype=np.float64)
        out = np.empty_like(pts)
        for a in range(self.dimension):
            out[..., a] = self._wrapped_offset(a, pts[..., a])
        return out

    def affine(self, pts: np.ndarray) -> np.ndarray:
        """Normalized chart coordinates; the closed core maps onto [-1,1]^m."""
        off = self._wrapped_offsets(pts)
        scale = np.array(self.core_extent) / 2.0
        return off / scale

    def in_core(self, pts: np.ndarray) -> np.ndarray:
        """Open-core membership of scattered base points."""
        return np.all(np.abs(self.affine(pts)) < 1.0, axis=-1)

    def core_masks(self, grid: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
        """Open and closed core masks over the nodes of ``grid``, flat in C order.

        A core is a box, so each mask is the outer AND of one interval
        test per axis, on the axis coordinates ``affine`` would read.
        """
        opens, closeds = [], []
        for a, axis in enumerate(grid.axes):
            half = self.core_extent[a] / 2.0
            coord = np.abs(self._wrapped_offset(a, axis.coordinates()) / half)
            opens.append(coord < 1.0)
            closeds.append(coord <= 1.0 + 1e-12)
        open_core, closed_core = (
            functools.reduce(np.logical_and.outer, masks).reshape(-1)
            for masks in (opens, closeds)
        )
        return open_core, closed_core

    def to_disk(self, pts: np.ndarray) -> np.ndarray:
        """Chart-ball coordinates of base points (points of the closed core)."""
        a = self.affine(pts)
        if self.dimension == 1:
            return a
        return square_to_disk(a)

    def from_disk(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Base points and patch offsets of chart-ball coordinates |z| <= 1.

        Returns ``(points, offsets)`` where offsets live in the patch box
        [0, core_extent] per axis (the parametrization patch maps use).
        """
        z = np.asarray(z, dtype=np.float64)
        a = z if self.dimension == 1 else disk_to_square(z)
        extent = np.array(self.core_extent)
        offsets = np.clip((a + 1.0) / 2.0, 0.0, 1.0) * extent
        pts = np.empty_like(offsets)
        for ax in range(self.dimension):
            low = self.center[ax] - extent[ax] / 2.0
            pts[..., ax] = np.mod(low + offsets[..., ax], self.base_lengths[ax])
        return pts, offsets

    def patch_offsets(self, pts: np.ndarray) -> np.ndarray:
        """Patch-box coordinates of base points of the closed core."""
        off = self._wrapped_offsets(pts)
        extent = np.array(self.core_extent)
        return np.clip(off + extent / 2.0, 0.0, extent)


@dataclass(frozen=True)
class Covering:
    base_kind: str  # "circle" | "torus"
    base_lengths: tuple[float, ...]
    charts: tuple[Chart, ...]

    @property
    def dimension(self) -> int:
        return len(self.base_lengths)


def _torus_factors(count: int) -> tuple[int, int]:
    best: Optional[tuple[int, int]] = None
    for k1 in range(2, int(math.isqrt(count)) + 1):
        if count % k1 == 0 and count // k1 >= 2:
            best = (k1, count // k1)
    if best is None:
        raise ParameterError(
            f"torus coverings arrange charts on a grid; {count} does not factor "
            "into two counts >= 2"
        )
    return best


def build_covering(base: DomainSpec, count: int) -> Covering:
    """Overlapping arcs (circle) or squares (torus) with affine chart maps.

    A circle takes any ``count >= 2``; a torus takes a ``count`` that
    factors into a grid of at least 2 x 2 charts.  The sampled covering
    property and the chart-ball normalization are checked before
    returning.
    """
    if base.kind not in ("circle", "torus"):
        raise ParameterError(f"coverings need a circle or torus base, got {base.kind!r}")
    if not base.is_canonical():
        raise ParameterError("coverings assume canonical base lengths")
    if count < 2:
        raise ParameterError(f"a covering needs at least 2 charts, got {count}")

    charts: list[Chart] = []
    if base.kind == "circle":
        length = TWO_PI
        arc = min(1.5 * math.pi, 3.0 * math.pi / count)
        for i in range(count):
            center = length * i / count
            charts.append(
                Chart(
                    index=i,
                    base_lengths=(length,),
                    center=(center,),
                    core_extent=(arc,),
                )
            )
    else:
        if count < 4:
            raise ParameterError(f"torus coverings need at least 4 charts, got {count}")
        k1, k2 = _torus_factors(count)
        sides = (min(1.5 / k1, 0.95), min(1.5 / k2, 0.95))
        index = 0
        for a in range(k1):
            for b in range(k2):
                center = ((a + 0.5) / k1, (b + 0.5) / k2)
                charts.append(
                    Chart(
                        index=index,
                        base_lengths=(1.0, 1.0),
                        center=center,
                        core_extent=sides,
                    )
                )
                index += 1

    covering = Covering(base_kind=base.kind, base_lengths=base.lengths, charts=tuple(charts))
    _validate_covering(covering)
    return covering


def _core_tables(covering: Covering, grid: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Open and closed core masks of every chart over ``grid``, shape (K, nodes)."""
    opens, closeds = zip(*(chart.core_masks(grid) for chart in covering.charts))
    return np.array(opens), np.array(closeds)


def _validate_covering(covering: Covering) -> None:
    m = covering.dimension
    res = 1024 if m == 1 else 128
    grid = from_kind(covering.base_kind, (res,) * m)
    open_cores, _ = _core_tables(covering, grid)
    if not np.all(np.any(open_cores, axis=0)):
        raise GlueError("internal: chart cores fail to cover the base")
    for chart in covering.charts:
        # core boundary must land on the unit sphere of chart coordinates
        probe = np.linspace(-1.0, 1.0, 33)
        if m == 1:
            edges = np.array([[-1.0], [1.0]])
        else:
            edges = np.concatenate(
                [
                    np.stack([np.full_like(probe, s), probe], axis=-1)
                    for s in (-1.0, 1.0)
                ]
                + [
                    np.stack([probe, np.full_like(probe, s)], axis=-1)
                    for s in (-1.0, 1.0)
                ]
            )
        extent = np.array(chart.core_extent)
        base_pts = np.mod(
            np.array(chart.center) + edges * extent / 2.0,
            np.array(covering.base_lengths),
        )
        z = chart.to_disk(base_pts)
        radii = np.linalg.norm(np.atleast_2d(z), axis=-1)
        if np.max(np.abs(radii - 1.0)) > 1e-9:
            raise GlueError("internal: chart core boundary misses the unit sphere")
        pts_back, _ = chart.from_disk(z)
        gap = np.array(chart._wrapped_offsets(pts_back) - chart._wrapped_offsets(base_pts))
        if np.max(np.abs(gap)) > 1e-9:
            raise GlueError("internal: chart map does not invert on the core boundary")


# -------------------------------------------------------- radial fold map

def radial_fold_map(z_prime: np.ndarray, z_m, r: float) -> np.ndarray:
    """(z', z_m) -> (1 - z_m * r) z' for (N, m) rows of unit directions z'.

    Sweeps the radius interval (1-r, 1) as z_m runs over (0, 1); the end
    values are accepted so sampled grids can touch both rims.
    """
    dirs = np.asarray(z_prime, dtype=np.float64)
    norms = np.linalg.norm(dirs, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise DomainError("radial fold directions must be unit vectors")
    z_m = np.asarray(z_m, dtype=np.float64)
    return (1.0 - z_m * float(r)).reshape(-1, 1) * dirs


# ------------------------------------------------------------ glue reports

@dataclass(frozen=True)
class GlueStep:
    radius: float
    accepted_fraction: float
    trace_sup_error: float
    gap_fraction: float


@dataclass(frozen=True)
class GlueReport:
    steps: tuple[GlueStep, ...]
    patch_energy_total: float
    glued_energy: float
    ratio: float
    trace_sup_error: float
    p: float
    degenerate: bool


# ------------------------------------------------------------------- glue

def _patch_domain_for(chart: Chart, counts: tuple[int, ...], n_depth: int, depth: float) -> DomainSpec:
    if chart.dimension == 1:
        return square(counts[0], n_depth, lengths=(chart.core_extent[0], depth))
    return box(
        counts[0],
        counts[1],
        n_depth,
        lengths=(chart.core_extent[0], chart.core_extent[1], depth),
    )


def replicate_trace_patch(
    trace: TraceMap,
    chart: Chart,
    n_depth: int,
    depth: float = 1.0,
) -> GridMap:
    """Depth-constant patch over a chart core sampled from the trace."""
    counts = tuple(
        max(2, int(round(extent / trace.base.axes[a].spacing)) + 1)
        for a, extent in enumerate(chart.core_extent)
    )
    dom = _patch_domain_for(chart, counts, n_depth, depth)
    coords = grid_coordinates(dom)
    mesh = np.meshgrid(*coords[:-1], indexing="ij")
    offsets = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    extent = np.array(chart.core_extent)
    low = np.array(chart.center) - extent / 2.0
    base_pts = np.mod(low + offsets, np.array(chart.base_lengths))
    vals = evaluate_batch(trace, base_pts)
    if trace.target.constrained:
        vals = project_to_target(trace.target, vals)
    sheet = vals.reshape(tuple(counts) + (trace.nu,))
    full = np.repeat(sheet[..., None, :], n_depth, axis=-2)
    return GridMap(domain=dom, target=trace.target, values=full)


def _check_patch(
    chart: Chart,
    patch: GridMap,
    trace: TraceMap,
    inside: np.ndarray,
    n_depth: int,
    depth: float,
    tol: float,
) -> float:
    """Check a patch's grids and target, and its bottom trace on the closed core ``inside``."""
    dom = patch.domain
    want_kind = "square" if chart.dimension == 1 else "box"
    if dom.kind != want_kind:
        raise ParameterError(
            f"patch {chart.index} must live on a {want_kind} grid, got {dom.kind!r}"
        )
    for a, extent in enumerate(chart.core_extent):
        if abs(dom.axes[a].length - extent) > 1e-9 * max(1.0, extent):
            raise ParameterError(
                f"patch {chart.index} axis {a} has length {dom.axes[a].length}, "
                f"chart core needs {extent}"
            )
    if dom.axes[-1].count != n_depth or abs(dom.axes[-1].length - depth) > 1e-12:
        raise ParameterError("patches must share one collar depth axis")
    if patch.target != trace.target:
        raise ParameterError(f"patch {chart.index} target does not match the trace")
    # trace agreement on the core; pairwise overlap agreement follows since
    # every patch is compared against the same trace
    offsets = chart.patch_offsets(node_mesh(trace.base)[inside])
    probe = np.concatenate([offsets, np.zeros((offsets.shape[0], 1))], axis=-1)
    got = evaluate_batch(patch, probe)
    want = trace.values.reshape(-1, trace.nu)[inside]
    sup = float(np.max(np.linalg.norm(got - want, axis=-1), initial=0.0))
    if sup > tol:
        raise PreconditionError(
            f"patch {chart.index} bottom trace strays {sup:.3g} from the boundary "
            f"data on its core, tolerance {tol:.3g}"
        )
    return sup


def _conservative_membership(
    indicator: np.ndarray, axes: Sequence[Axis], pts: np.ndarray
) -> np.ndarray:
    """All containing-cell corners of each point are inside the set.

    Axes are periodic here (the base is a circle or torus).
    """
    ok = np.ones(pts.shape[0], dtype=bool)
    idx = [_locate(axis, pts[:, a])[0] for a, axis in enumerate(axes)]
    for corner in range(1 << len(axes)):
        sel = []
        for a, axis in enumerate(axes):
            j = idx[a] + ((corner >> a) & 1)
            sel.append(np.mod(j, axis.count))
        ok &= indicator[tuple(sel)]
    return ok


def _chart_regions(
    chart: Chart,
    pts: np.ndarray,
    inside: np.ndarray,
    radius: float,
    cert: cone_mod.ConeCertificate,
) -> tuple[np.ndarray, ...]:
    """``(inside, z, radii, ball, annulus)`` of one step on a sampled base grid.

    ``inside`` marks the points of the closed core (``chart.core_masks``),
    ``z`` and ``radii`` are their ball coordinates, and ``ball`` /
    ``annulus`` mark, among them, the certified ball and the accepted cone
    annulus.
    """
    z = np.atleast_2d(chart.to_disk(pts[inside]))
    radii = np.linalg.norm(z, axis=-1)
    ball = radii < radius
    annulus = (radii >= radius) & cone_mod.accepts(cert, z)
    return inside, z, radii, ball, annulus


def _trusted_after(trusted: np.ndarray, regions: tuple[np.ndarray, ...]) -> np.ndarray:
    """Trusted mask after a step: ball and annulus on the core, the old mask off it."""
    inside, _, _, ball, annulus = regions
    new = np.zeros_like(trusted)
    new[inside] = ball | annulus
    return new | (trusted & ~inside)


def glue(
    covering: Covering,
    patches: Sequence[GridMap],
    trace: TraceMap,
    p: float = 2.0,
    gap_policy: str = "abort",
    penalty: Optional[PenaltySpec] = None,
) -> tuple[GridMap, GlueReport]:
    """Glue patch extensions into one collar extension of the trace.

    Patches are maps over chart-core boxes cross the depth axis, one per
    chart of the covering, in chart order.  The report carries the
    certified radius, cone size, measured trace error and covering-gap
    fraction of every step, the patch and glued energies and their ratio.
    ``penalty=None`` glues the plain Dirichlet energies; a penalty adds
    its term to every energy.  Each patch's bottom trace may stray from
    the boundary data by at most ten times the coarsest spacing of the
    trace and the patches.  A cone certificate that fails its check
    raises ``GlueError``.
    """
    if gap_policy not in ("abort", "warn"):
        raise ParameterError(f"gap policy must be abort|warn, got {gap_policy!r}")
    if trace.base.kind != covering.base_kind:
        raise ParameterError(
            f"trace base {trace.base.kind!r} does not match covering base "
            f"{covering.base_kind!r}"
        )
    if len(patches) != len(covering.charts):
        raise ParameterError(
            f"covering has {len(covering.charts)} charts, got {len(patches)} patches"
        )
    tol = max(default_constraint_tol(part.domain) for part in (trace, *patches))

    m = covering.dimension
    n_depth = patches[0].domain.axes[-1].count
    depth = patches[0].domain.axes[-1].length
    # open and closed cores of every chart, once per grid: the collar base
    # grid and the check grid
    base_cores, base_closed = _core_tables(covering, trace.base)
    check_grid = from_kind(covering.base_kind, (_CHECK_RESOLUTION[m],) * m)
    check_cores, check_closed = _core_tables(covering, check_grid)
    for i, (chart, patch) in enumerate(zip(covering.charts, patches)):
        _check_patch(chart, patch, trace, base_closed[i], n_depth, depth, tol)

    collar = collar_over(trace.base, n_depth, depth)
    base_pts = node_mesh(trace.base)
    n_base = base_pts.shape[0]
    depth_coords = collar.axes[-1].coordinates()

    # initial state: replicated trace as the (never trusted) placeholder
    values = np.repeat(
        trace.values.reshape(n_base, trace.nu)[:, None, :], n_depth, axis=1
    )

    check_pts = node_mesh(check_grid)
    # cores_to_come[i]: union of the cores of the charts after chart i
    later_cores = np.concatenate([check_cores[1:], np.zeros_like(check_cores[:1])])
    cores_to_come = np.logical_or.accumulate(later_cores[::-1], axis=0)[::-1]

    cone_res = _CONE_RESOLUTION[m]
    chart_pts = cone_mod._grid_points(m, cone_res)
    chart_radii, _, _ = cone_mod._node_tables(m, cone_res)
    in_ball_mask = chart_radii <= 1.0

    steps: list[GlueStep] = []
    trace_flat = trace.values.reshape(n_base, trace.nu)

    for i, (chart, patch) in enumerate(zip(covering.charts, patches)):
        later = covering.charts[i + 1 :]
        if i == 0:
            # trusted regions: the open core on the collar base grid and
            # on the check grid
            h_collar, inside = base_cores[0], base_closed[0]
            values[inside] = _patch_columns(chart, patch, base_pts[inside], depth_coords, trace)
            h_check = check_cores[0]
            radius = 1.0
            accepted_fraction = 0.0
        else:
            # closed leftover of this core vs the trusted region so far
            pts_back, _ = chart.from_disk(chart_pts[in_ball_mask])
            # membership is pointwise: each later core tests only the
            # points no earlier one has claimed
            in_later = np.zeros(pts_back.shape[0], dtype=bool)
            for other in later:
                rest = np.flatnonzero(~in_later)
                in_later[rest] = other.in_core(pts_back[rest])
            f_ind = np.zeros(chart_pts.shape[0], dtype=bool)
            f_ind[in_ball_mask] = ~in_later
            e_ind = np.zeros(chart_pts.shape[0], dtype=bool)
            e_ind[in_ball_mask] = _conservative_membership(
                h_check.reshape(check_grid.shape), check_grid.axes, pts_back
            )
            shape = (cone_res,) * m
            f_set = cone_mod.SampledSet(m, cone_res, True, f_ind.reshape(shape))
            e_set = cone_mod.SampledSet(m, cone_res, False, e_ind.reshape(shape))
            try:
                cert = cone_mod.find_cone(f_set, e_set)
            except PreconditionError as exc:
                raise GlueError(
                    f"internal: step {i + 1} leftover touches the chart sphere "
                    f"outside the trusted region ({exc})"
                ) from exc
            except ResolutionError as exc:
                raise ResolutionError(
                    f"step {i + 1} (chart {chart.index}): {exc}"
                ) from exc
            if not cert.verified:
                raise GlueError(
                    f"step {i + 1} (chart {chart.index}): the cone certificate "
                    "fails its check"
                )
            radius = cert.radius
            accepted_fraction = float(np.mean(cert.directions))

            collar_regions = _chart_regions(chart, base_pts, base_closed[i], radius, cert)
            values = _fold_chart_step(
                chart,
                patch,
                collar,
                values,
                base_pts,
                collar_regions,
                depth_coords,
                depth,
                radius,
                trace,
            )
            h_collar = _trusted_after(h_collar, collar_regions)
            h_check = _trusted_after(
                h_check, _chart_regions(chart, check_pts, check_closed[i], radius, cert)
            )

        holes = ~(h_check | cores_to_come[i])
        gap_fraction = float(np.mean(holes))
        if gap_fraction > 0.0 and gap_policy == "abort":
            raise GlueError(
                f"covering invariant fails after step {i + 1}: "
                f"{gap_fraction:.3%} of the base is uncovered"
            )

        trusted = h_collar
        if np.any(trusted):
            errs = np.linalg.norm(values[trusted, 0, :] - trace_flat[trusted], axis=-1)
            step_trace = float(np.max(errs))
        else:
            step_trace = 0.0
        steps.append(
            GlueStep(
                radius=radius,
                accepted_fraction=accepted_fraction,
                trace_sup_error=step_trace,
                gap_fraction=gap_fraction,
            )
        )

    glued = GridMap(
        domain=collar,
        target=trace.target,
        values=values.reshape(collar.shape + (trace.nu,)),
        constraint_tol=max(trace.constraint_tol, default_constraint_tol(collar)),
    )
    patch_total = float(sum(penalized_energy(patch, p, penalty).value for patch in patches))
    glued_energy = penalized_energy(glued, p, penalty).value
    degenerate = patch_total <= 0.0
    report = GlueReport(
        steps=tuple(steps),
        patch_energy_total=patch_total,
        glued_energy=glued_energy,
        ratio=float("nan") if degenerate else glued_energy / patch_total,
        trace_sup_error=max(step.trace_sup_error for step in steps),
        p=float(p),
        degenerate=degenerate,
    )
    return glued, report


def _patch_columns(
    chart: Chart,
    patch: GridMap,
    pts: np.ndarray,
    depth_coords: np.ndarray,
    trace: TraceMap,
) -> np.ndarray:
    """Patch values over base points of the closed core, one column per point.

    Returns shape (len(pts), n_depth, nu), projected onto a constrained
    target.
    """
    n_depth = depth_coords.shape[0]
    offs = chart.patch_offsets(pts)
    probe = np.concatenate(
        [
            np.repeat(offs, n_depth, axis=0),
            np.tile(depth_coords, offs.shape[0])[:, None],
        ],
        axis=-1,
    )
    got = evaluate_batch(patch, probe).reshape(-1, n_depth, trace.nu)
    if trace.target.constrained:
        got = project_to_target(trace.target, got)
    return got


def _fold_chart_step(
    chart: Chart,
    patch: GridMap,
    collar: DomainSpec,
    values: np.ndarray,
    base_pts: np.ndarray,
    regions: tuple[np.ndarray, ...],
    depth_coords: np.ndarray,
    depth: float,
    radius: float,
    trace: TraceMap,
) -> np.ndarray:
    """One induction step: patch on the ball, fold across the cone annulus."""
    prev = GridMap(
        domain=collar,
        target=trace.target,
        values=values.reshape(collar.shape + (trace.nu,)),
        constraint_tol=max(trace.constraint_tol, default_constraint_tol(collar)),
    )
    n_depth = depth_coords.shape[0]
    out = values.copy()

    inside, z, radii, in_ball, annulus = regions
    inside_idx = np.where(inside)[0]
    ball = inside_idx[in_ball]
    if ball.size:
        out[ball] = _patch_columns(chart, patch, base_pts[ball], depth_coords, trace)

    ann_idx = inside_idx[annulus]
    if ann_idx.size == 0:
        return out

    z_ann = z[annulus]
    r_ann = radii[annulus]
    omega = z_ann / np.maximum(r_ann, 1e-300)[:, None]
    # radial fold parameter: 0 at the outer rim |z|=1, 1 at the inner rim
    x = np.clip((1.0 - r_ann) / (1.0 - radius), 0.0, 1.0)
    n_ann = ann_idx.size
    # one sample per (annulus node, depth node); fold_sources' region code
    # 0 reads the previous state, 1 and 2 the patch
    region, s1, s2 = fold_sources(
        np.repeat(x, n_depth), np.tile(depth_coords / depth, n_ann)
    )
    node = np.repeat(np.arange(n_ann), n_depth)
    moved = region != 2
    target_z = z_ann[node]
    target_z[moved] = radial_fold_map(omega[node[moved]], s1[moved], 1.0 - radius)
    pts_back, offs = chart.from_disk(target_z)
    t_val = (s2 * depth)[:, None]
    reads_prev = region == 0

    result = np.empty((n_ann * n_depth, trace.nu))
    result[reads_prev] = evaluate_batch(
        prev, np.concatenate([pts_back[reads_prev], t_val[reads_prev]], axis=-1)
    )
    result[~reads_prev] = evaluate_batch(
        patch, np.concatenate([offs[~reads_prev], t_val[~reads_prev]], axis=-1)
    )
    result = result.reshape(n_ann, n_depth, trace.nu)
    if trace.target.constrained:
        result = project_to_target(trace.target, result)
    out[ann_idx] = result
    return out


def verify_glue(glued: GridMap, trace: TraceMap) -> float:
    """Sup distance of the glued map's bottom face from the trace.

    The face is read through the public ``extract_trace`` at every base
    node; ``glue``'s own per-step errors read only the trusted nodes of
    its working array.
    """
    bottom = extract_trace(glued, "bottom")
    if bottom.values.shape != trace.values.shape:
        raise ParameterError("glued map resolution does not match the trace")
    return float(np.max(np.linalg.norm(bottom.values - trace.values, axis=-1), initial=0.0))
