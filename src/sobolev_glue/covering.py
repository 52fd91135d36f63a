"""Chart coverings of the circle and the flat torus, and the glue induction.

A covering carries K >= 2 overlapping chart cores G_i, each with a map
to the unit ball of chart coordinates: the core box is mapped affinely
onto [-1,1]^m and then through one radial square-to-ball map,
x -> x |x|_inf / |x|_2, for the circle (m = 1, where it is the
identity) and the torus (m = 2) alike.  The radial map is bi-Lipschitz,
so composing with it keeps W^{1,p} energies comparable.  Both kinds lay
their cores out by one rule: k_a cores per axis, each 1.5 / k_a of the
axis long.

Patches live on ``domain.collar_over`` of a chart's core box, whose
axes are intervals; ``_check_patch`` accepts any such grid within length
tolerances, since patches come from outside the program.

``glue`` runs the inductive construction over a collar base x (0, depth).
Step 1 adopts the first chart's patch on its core.  Every later step
does three things:

- ``_certificate`` samples F (the chart ball no later core claims) and
  E (the part of it the trusted region holds) and certifies a cone
  capture with ``cone.find_cone``, which checks its own certificate; a
  step whose check fails raises.
- ``_captured`` marks the points of the closed core the step trusts:
  its ball of certified radius r_i and its accepted cone annulus.  The
  same rule runs on the collar base grid and on the check grid.
- ``_fold_step`` writes the patch on the ball and folds it into the
  previous state across the annulus, in place, reading one snapshot of
  that state.  The fold is ``folding.fold_sources``, the square fold's
  rule, applied in (radial parameter, depth / collar depth) coordinates
  with the previous state as the first map and the patch as the second;
  a moved sample at radial parameter s returns to the ball at radius
  1 - s (1 - r_i) along its node's direction.

Bookkeeping tracks the sampled trusted region H_i and checks the
covering invariant H_i union G_{i+1} ... G_K = base after every step.

A chart core is a box, so every core test ANDs one interval test per
axis (``_interval_tests``, on the column of ``affine`` for that axis):
``Chart.core_masks`` over a product grid, ``Chart.in_core`` on
scattered points.  ``glue`` builds the masks once per grid (collar base
and check grid), and ``Chart.core_disk`` maps a closed core's nodes to
the chart ball from its axis coordinates alone.  ``Chart.base_points``
is the one map from patch-box offsets to base points, one axis at a
time.

Each step pays only for what depends on it.  ``_BallTables`` is built
once per ``glue`` call from the in-ball cone-grid nodes and their
patch-box offsets over a unit core, which are the same for every chart.
Along axis a, a pulled-back node's base coordinate and its check-grid
cell depend only on the step chart's core interval on a, and its
open-core test against a later chart only on both charts' intervals on
a; each such column is made once per call (on the 3 x 3 torus: 3 cell
columns and 9 tests per axis for the whole glue).  F is then an OR over
later charts of ANDs over axes, and E one gather: a node belongs to E
when every corner of its check-grid cell is trusted, ``cone``'s cell
test over the wrap-padded mask.  No table outlives the call.

``verify_glue`` audits what the steps do not: the glued map's bottom
face against the trace at every base node.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cone as cone_mod
from .domain import KIND_TABLE, Axis, DomainSpec, collar_over, from_kind, wrap
from .energy import PenaltySpec, penalized_energy
from .errors import (
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
    _sup_distance,
    default_constraint_tol,
    evaluate_batch,
    extract_trace,
    node_mesh,
)
from .target import project_to_target, sum_of_squares

#: chart-coordinate sampling for cone capture, by base dimension
_CONE_RESOLUTION = {1: 513, 2: 257}

#: base-grid sampling for the trusted-region bookkeeping, by base dimension
_CHECK_RESOLUTION = {1: 2048, 2: 384}


# ---------------------------------------------------- square <-> ball maps

def _norm_ratio(x: np.ndarray) -> np.ndarray:
    """|x|_2 / |x|_inf of each (N, m) row as an (N, 1) column, 1 at the origin.

    Rows are divided by their max norm first, so nothing squared can
    underflow or overflow.
    """
    peak = functools.reduce(np.maximum, (np.abs(x[:, a]) for a in range(x.shape[1])))
    nonzero = peak > 0.0
    unit = x / np.where(nonzero, peak, 1.0)[:, None]
    return np.where(nonzero, np.sqrt(sum_of_squares(unit)), 1.0)[:, None]


def square_to_disk(x: np.ndarray) -> np.ndarray:
    """Radial bi-Lipschitz map [-1,1]^m -> closed unit ball, x -> x |x|_inf / |x|_2.

    Rows are (N, m) points, m = 1 or 2.  Every ray through the origin is
    kept, the square's boundary lands on the unit sphere, and on m = 1
    the map is the identity.  For m = 2 it stretches distances by at
    most 2/sqrt(3) and its inverse by at most sqrt(2)(1 + sqrt(5))/2.
    """
    x = np.asarray(x, dtype=np.float64)
    return x / _norm_ratio(x)


def disk_to_square(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`square_to_disk`, z -> z |z|_2 / |z|_inf."""
    z = np.asarray(z, dtype=np.float64)
    return z * _norm_ratio(z)


# ------------------------------------------------------------------ charts

@dataclass(frozen=True)
class Chart:
    """One chart: the core box G centered at ``center``.

    Its chart map is ``affine`` onto [-1,1]^m followed by the radial
    ``square_to_disk``, on either base.
    """

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
        delta = wrap(x - self.center[axis], length)
        delta -= length * (delta > length / 2.0)
        return delta

    def _wrapped_offsets(self, pts: np.ndarray) -> np.ndarray:
        """Signed offsets from the center, wrapped to the shorter way round."""
        pts = np.asarray(pts, dtype=np.float64)
        out = np.empty_like(pts)
        for a in range(self.dimension):
            out[..., a] = self._wrapped_offset(a, pts[..., a])
        return out

    def _axis_affine(self, axis: int, x: np.ndarray) -> np.ndarray:
        """Column ``axis`` of ``affine``, from the base coordinates along that axis alone."""
        return self._wrapped_offset(axis, x) / (self.core_extent[axis] / 2.0)

    def affine(self, pts: np.ndarray) -> np.ndarray:
        """Normalized chart coordinates; the closed core maps onto [-1,1]^m."""
        pts = np.asarray(pts, dtype=np.float64)
        return np.stack(
            [self._axis_affine(a, pts[..., a]) for a in range(self.dimension)], axis=-1
        )

    def in_core(self, pts: np.ndarray) -> np.ndarray:
        """Open-core membership of scattered base points."""
        pts = np.asarray(pts, dtype=np.float64)
        return functools.reduce(
            np.logical_and,
            (_interval_tests(self._axis_affine(a, pts[..., a]))[0] for a in range(self.dimension)),
        )

    def core_masks(self, grid: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
        """Open and closed core masks over the nodes of ``grid``, flat in C order.

        A core is a box, so each mask is the outer AND of one interval
        test per axis, on the axis coordinates ``affine`` would read.
        """
        opens, closeds = zip(*(
            _interval_tests(self._axis_affine(a, axis.coordinates()))
            for a, axis in enumerate(grid.axes)
        ))
        open_core, closed_core = (
            functools.reduce(np.logical_and.outer, masks).reshape(-1)
            for masks in (opens, closeds)
        )
        return open_core, closed_core

    def to_disk(self, pts: np.ndarray) -> np.ndarray:
        """Chart-ball coordinates of base points (points of the closed core): the chart map."""
        return square_to_disk(self.affine(pts))

    def core_disk(self, grid: DomainSpec) -> np.ndarray:
        """``to_disk`` of the closed-core nodes of ``grid``, in C order.

        The closed core's nodes are the product of each axis' closed-core
        coordinates, so ``affine`` runs on those axis coordinates alone.
        """
        columns = []
        for a, axis in enumerate(grid.axes):
            coord = self._axis_affine(a, axis.coordinates())
            columns.append(coord[_interval_tests(coord)[1]])
        mesh = np.meshgrid(*columns, indexing="ij")
        return square_to_disk(np.stack([g.reshape(-1) for g in mesh], axis=-1))

    def from_disk(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Base points and patch offsets of chart-ball coordinates |z| <= 1: the inverse chart map.

        Returns ``(points, offsets)`` where offsets live in the patch box
        [0, core_extent] per axis (the parametrization patch maps use).
        """
        a = disk_to_square(z)
        offsets = np.clip((a + 1.0) / 2.0, 0.0, 1.0) * np.array(self.core_extent)
        return self.base_points(offsets), offsets

    def patch_offsets(self, pts: np.ndarray) -> np.ndarray:
        """Patch-box coordinates of base points of the closed core."""
        off = self._wrapped_offsets(pts)
        extent = np.array(self.core_extent)
        return np.clip(off + extent / 2.0, 0.0, extent)

    def base_points(self, offsets: np.ndarray) -> np.ndarray:
        """Base points of patch-box offsets; the inverse of ``patch_offsets``."""
        offsets = np.asarray(offsets, dtype=np.float64)
        return np.stack(
            [self._base_coordinate(a, offsets[..., a]) for a in range(self.dimension)], axis=-1
        )

    def _base_coordinate(self, axis: int, offset: np.ndarray) -> np.ndarray:
        """Column ``axis`` of ``base_points``, from the offsets along that axis alone."""
        low = self.center[axis] - self.core_extent[axis] / 2.0
        return wrap(low + offset, self.base_lengths[axis])


def _interval_tests(coord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Open and closed core tests of normalized chart coordinates along one axis."""
    size = np.abs(coord)
    return size < 1.0, size <= 1.0 + 1e-12


@dataclass(frozen=True)
class Covering:
    base_kind: str  # "circle" | "torus"
    charts: tuple[Chart, ...]

    @property
    def dimension(self) -> int:
        return self.charts[0].dimension


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
    factors into a grid of at least 2 x 2 charts.  Nothing is sampled
    here: the cores cover the base by construction, and ``glue`` checks
    that they do on its check grid after step 1.
    """
    if base.kind not in ("circle", "torus"):
        raise ParameterError(f"coverings need a circle or torus base, got {base.kind!r}")
    if not base.is_canonical():
        raise ParameterError("coverings assume canonical base lengths")
    if count < 2:
        raise ParameterError(f"a covering needs at least 2 charts, got {count}")

    lengths = KIND_TABLE[base.kind][1]
    # circle charts start at 0, torus charts half a grid cell in
    counts, shift = ((count,), 0.0) if base.kind == "circle" else (_torus_factors(count), 0.5)
    # each core spans 1.5 grid cells, so neighbouring cores overlap
    extent = tuple(length * 1.5 / k for length, k in zip(lengths, counts))
    centers = itertools.product(
        *([length * (j + shift) / k for j in range(k)] for length, k in zip(lengths, counts))
    )
    charts = tuple(
        Chart(index=i, base_lengths=lengths, center=center, core_extent=extent)
        for i, center in enumerate(centers)
    )
    return Covering(base_kind=base.kind, charts=charts)


def _core_tables(covering: Covering, grid: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Open and closed core masks of every chart over ``grid``, shape (K, nodes)."""
    opens, closeds = zip(*(chart.core_masks(grid) for chart in covering.charts))
    return np.array(opens), np.array(closeds)


# ------------------------------------------------------------ glue reports

@dataclass(frozen=True)
class GlueStep:
    radius: float
    accepted_fraction: float
    trace_sup_error: float


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

def replicate_trace_patch(
    trace: TraceMap,
    chart: Chart,
    n_depth: int,
    depth: float = 1.0,
) -> GridMap:
    """Depth-constant patch over a chart core sampled from the trace."""
    core = DomainSpec(tuple(
        Axis(max(2, int(round(extent / axis.spacing)) + 1), float(extent), False)
        for axis, extent in zip(trace.base.axes, chart.core_extent)
    ))
    dom = collar_over(core, n_depth, depth)
    vals = project_to_target(trace.target, evaluate_batch(trace, chart.base_points(node_mesh(core))))
    sheet = vals.reshape(core.shape + (trace.nu,))
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
) -> None:
    """Check a patch's grids and target, and its bottom trace on the closed core ``inside``."""
    dom = patch.domain
    if dom.ndim != chart.dimension + 1 or any(axis.periodic for axis in dom.axes):
        raise ParameterError(f"patch {chart.index} needs a core box x depth grid, got {dom.kind!r}")
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
    sup = _sup_distance(got, want)
    if sup > tol:
        raise PreconditionError(
            f"patch {chart.index} bottom trace strays {sup:.3g} from the boundary "
            f"data on its core, tolerance {tol:.3g}"
        )


def _conservative_membership(indicator: np.ndarray, cells: tuple[np.ndarray, ...]) -> np.ndarray:
    """Whether every corner of each point's cell is in the set.

    ``cells`` holds one array of cell indices per axis, ``_locate``'s
    first output.  Axes are periodic here (the base is a circle or
    torus): one wrapped node padded onto each axis closes the cells
    across the seam.
    """
    padded = np.pad(indicator, [(0, 1)] * indicator.ndim, mode="wrap")
    return cone_mod._cells_all_true(padded)[cells]


class _BallTables:
    """The chart-ball side of every step of one ``glue`` call.

    The in-ball cone-grid nodes and their patch-box offsets over a unit
    core are the same for every chart.  Along axis a, a node's base
    coordinate and its check-grid cell depend only on the step chart's
    core interval on a, and its open-core test against a later chart
    only on both charts' intervals on a.  The tables keep one cell column
    per (axis, step interval) and one test per (axis, step interval,
    later interval), built before the first step and dropped with the
    call.
    """

    def __init__(self, covering: Covering, check_grid: DomainSpec) -> None:
        m = check_grid.ndim
        self.resolution = _CONE_RESOLUTION[m]
        self.in_ball = cone_mod._node_tables(m, self.resolution)[0] <= 1.0
        z = cone_mod._grid_points(m, self.resolution)[self.in_ball]
        # ``Chart.from_disk``'s offsets, before they are scaled to a core
        unit = np.clip((disk_to_square(z) + 1.0) / 2.0, 0.0, 1.0)
        self._cells: dict[tuple, np.ndarray] = {}
        self._opens: dict[tuple, np.ndarray] = {}
        for step, chart in enumerate(covering.charts[1:], start=1):
            for a, axis in enumerate(check_grid.axes):
                key = _interval_key(chart, a)
                if key in self._cells:
                    # the first step with this interval saw every later chart
                    continue
                coord = chart._base_coordinate(a, unit[:, a] * chart.core_extent[a])
                self._cells[key] = _locate(axis, coord)[0]
                for other in covering.charts[step + 1 :]:
                    test = key + _interval_key(other, a)
                    if test not in self._opens:
                        self._opens[test] = _interval_tests(other._axis_affine(a, coord))[0]

    def cells(self, chart: Chart) -> tuple[np.ndarray, ...]:
        """Check-grid cell indices of the ball nodes ``chart`` pulls back, one array per axis."""
        return tuple(self._cells[_interval_key(chart, a)] for a in range(chart.dimension))

    def in_later_cores(self, covering: Covering, step: int) -> np.ndarray:
        """Which ball nodes chart ``step`` pulls back lie in the open core of a later chart."""
        chart = covering.charts[step]
        found = np.zeros(np.count_nonzero(self.in_ball), dtype=bool)
        for other in covering.charts[step + 1 :]:
            found |= functools.reduce(np.logical_and, (
                self._opens[_interval_key(chart, a) + _interval_key(other, a)]
                for a in range(chart.dimension)
            ))
        return found


def _interval_key(chart: Chart, a: int) -> tuple:
    """What fixes a chart's core interval on axis ``a``."""
    return (a, chart.center[a], chart.core_extent[a])


def _certificate(
    step: int,
    covering: Covering,
    ball: _BallTables,
    trusted: np.ndarray,
    check_grid: DomainSpec,
) -> cone_mod.ConeCertificate:
    """Checked cone certificate of chart ``step`` (0-based) against the trusted check-grid mask.

    F is the part of the chart ball that no later core claims, E the part
    whose check-grid cells ``trusted`` holds at every corner.
    """
    chart = covering.charts[step]
    m = chart.dimension
    res = ball.resolution
    f_ind, e_ind = np.zeros((2, ball.in_ball.size), dtype=bool)
    f_ind[ball.in_ball] = ~ball.in_later_cores(covering, step)
    e_ind[ball.in_ball] = _conservative_membership(
        trusted.reshape(check_grid.shape), ball.cells(chart)
    )
    shape = (res,) * m
    try:
        cert = cone_mod.find_cone(
            cone_mod.SampledSet(m, res, True, f_ind.reshape(shape)),
            cone_mod.SampledSet(m, res, False, e_ind.reshape(shape)),
        )
    except PreconditionError as exc:
        raise GlueError(
            f"internal: step {step + 1} leftover touches the chart sphere "
            f"outside the trusted region ({exc})"
        ) from exc
    except ResolutionError as exc:
        raise ResolutionError(f"step {step + 1} (chart {chart.index}): {exc}") from exc
    if not cert.verified:
        raise GlueError(
            f"step {step + 1} (chart {chart.index}): the cone certificate fails its check"
        )
    return cert


def _captured(z: np.ndarray, cert: cone_mod.ConeCertificate) -> np.ndarray:
    """Which chart-ball points ``z`` of the closed core a step trusts: its ball or cone annulus."""
    return (np.sqrt(sum_of_squares(z)) < cert.radius) | cone_mod.accepts(cert, z)


def _trusted_after(trusted: np.ndarray, inside: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Trusted mask after a step: ``kept`` on the closed core ``inside``, the old mask off it."""
    new = trusted & ~inside
    new[inside] = kept
    return new


def _collar_state(collar: DomainSpec, trace: TraceMap, values: np.ndarray) -> GridMap:
    """The glue state ``values``, one (depth, component) block per base node, as a collar map."""
    return GridMap(
        domain=collar,
        target=trace.target,
        values=values.reshape(collar.shape + (trace.nu,)),
        constraint_tol=max(trace.constraint_tol, default_constraint_tol(collar)),
    )


def glue(
    covering: Covering,
    patches: Sequence[GridMap],
    trace: TraceMap,
    p: float = 2.0,
    penalty: Optional[PenaltySpec] = None,
) -> tuple[GridMap, GlueReport]:
    """Glue patch extensions into one collar extension of the trace.

    Patches are maps over chart-core boxes cross the depth axis, one per
    chart of the covering, in chart order.  The report carries the
    certified radius, cone size and measured trace error of every step,
    the patch and glued energies and their ratio.
    ``penalty=None`` glues the plain Dirichlet energies; a penalty adds
    its term to every energy.  Each patch's bottom trace may stray from
    the boundary data by at most ten times the coarsest spacing of the
    trace and the patches.  A cone certificate that fails its check, or
    a step after which part of the base is uncovered, raises
    ``GlueError``.
    """
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
    # the patch energies check p and the penalty before any step runs
    patch_total = float(sum(penalized_energy(patch, p, penalty).value for patch in patches))

    collar = collar_over(trace.base, n_depth, depth)
    base_pts = node_mesh(trace.base)
    trace_flat = trace.values.reshape(base_pts.shape[0], trace.nu)
    # cores_to_come[i]: union of the cores of the charts after chart i
    cores_to_come = np.zeros_like(check_cores)
    for i in range(len(covering.charts) - 2, -1, -1):
        cores_to_come[i] = cores_to_come[i + 1]
        cores_to_come[i] |= check_cores[i + 1]
    # step 1 adopts the first patch on its closed core over the replicated
    # trace, a placeholder no step trusts; its open core is trusted
    values = np.repeat(trace_flat[:, None, :], n_depth, axis=1)
    values[base_closed[0]] = _patch_columns(
        covering.charts[0], patches[0], base_pts[base_closed[0]], collar.axes[-1].coordinates()
    )
    steps: list[GlueStep] = []

    def close_step(
        radius: float, accepted_fraction: float, h_collar: np.ndarray, h_check: np.ndarray
    ) -> None:
        """Check the covering invariant after a step and report the step."""
        gap_fraction = float(np.mean(~(h_check | cores_to_come[len(steps)])))
        if gap_fraction > 0.0:
            raise GlueError(
                f"covering invariant fails after step {len(steps) + 1}: "
                f"{gap_fraction:.3%} of the base is uncovered"
            )
        error = _sup_distance(values[h_collar, 0, :], trace_flat[h_collar])
        steps.append(GlueStep(radius, accepted_fraction, error))

    h_collar, h_check = base_cores[0], check_cores[0]
    close_step(1.0, 0.0, h_collar, h_check)
    ball = _BallTables(covering, check_grid)
    for i in range(1, len(covering.charts)):
        chart = covering.charts[i]
        cert = _certificate(i, covering, ball, h_check, check_grid)
        z = chart.core_disk(trace.base)
        kept = _captured(z, cert)
        rows = np.flatnonzero(base_closed[i])[kept]
        _fold_step(
            values,
            _collar_state(collar, trace, values),
            chart,
            patches[i],
            rows,
            base_pts[rows],
            z[kept],
            cert.radius,
        )
        h_collar = _trusted_after(h_collar, base_closed[i], kept)
        h_check = _trusted_after(
            h_check, check_closed[i], _captured(chart.core_disk(check_grid), cert)
        )
        close_step(cert.radius, float(np.mean(cert.directions)), h_collar, h_check)

    glued = _collar_state(collar, trace, values)
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
    got = evaluate_batch(patch, probe).reshape(-1, n_depth, patch.nu)
    return project_to_target(patch.target, got)


def _fold_step(
    values: np.ndarray,
    prev: GridMap,
    chart: Chart,
    patch: GridMap,
    rows: np.ndarray,
    pts: np.ndarray,
    z: np.ndarray,
    radius: float,
) -> None:
    """One induction step, in place: the patch on the ball, the fold across the cone annulus.

    ``rows`` are the base nodes the step captures, ``pts`` their base
    points and ``z`` their chart-ball coordinates; ``prev`` is the state
    before the step.
    """
    depth_axis = prev.domain.axes[-1]
    depth_coords, depth = depth_axis.coordinates(), depth_axis.length
    n_depth = depth_coords.shape[0]
    radii = np.sqrt(sum_of_squares(z))
    ball = radii < radius
    values[rows[ball]] = _patch_columns(chart, patch, pts[ball], depth_coords)

    # the captured rows off the ball are the accepted cone annulus, at
    # radii no smaller than radius > 0
    z_ann, r_ann = z[~ball], radii[~ball]
    omega = z_ann / r_ann[:, None]
    # radial fold parameter: 0 at the outer rim |z|=1, 1 at the inner rim
    x = np.clip((1.0 - r_ann) / (1.0 - radius), 0.0, 1.0)
    n_ann = z_ann.shape[0]
    # one sample per (annulus node, depth node); fold_sources' region code
    # 0 reads the previous state, 1 and 2 the patch
    region, s1, s2 = fold_sources(
        np.repeat(x, n_depth), np.tile(depth_coords / depth, n_ann)
    )
    node = np.repeat(np.arange(n_ann), n_depth)
    moved = region != 2
    target_z = z_ann[node]
    # a moved sample returns along its node's direction to radius 1 - s1 (1 - radius)
    target_z[moved] = (1.0 - s1[moved] * (1.0 - radius))[:, None] * omega[node[moved]]
    pts_back, offs = chart.from_disk(target_z)
    t_val = (s2 * depth)[:, None]
    reads_prev = region == 0

    result = np.empty((n_ann * n_depth, patch.nu))
    result[reads_prev] = evaluate_batch(
        prev, np.concatenate([pts_back[reads_prev], t_val[reads_prev]], axis=-1)
    )
    result[~reads_prev] = evaluate_batch(
        patch, np.concatenate([offs[~reads_prev], t_val[~reads_prev]], axis=-1)
    )
    values[rows[~ball]] = project_to_target(
        patch.target, result.reshape(n_ann, n_depth, patch.nu)
    )


def verify_glue(glued: GridMap, trace: TraceMap) -> float:
    """Sup distance of the glued map's bottom face from the trace.

    The face is read through the public ``extract_trace`` at every base
    node; ``glue``'s own per-step errors read only the trusted nodes of
    its working array.
    """
    bottom = extract_trace(glued, "bottom")
    if bottom.values.shape != trace.values.shape:
        raise ParameterError("glued map resolution does not match the trace")
    return _sup_distance(bottom.values, trace.values)
