"""The primary acceptance suite: ten pinned, self-verifying checks.

Each criterion is only its check body: it runs one check end to end and
returns a pass flag with a short detail string.  The ``_criterion``
decorator times it, turns any exception into a failure, and names the
resulting CriterionResult after the function (``criterion_05_<topic>``
gives ``05_<topic>``).  These are the checks that the command-line
``accept`` subcommand and the acceptance test module drive.  Expected
values are closed forms computed independently inside each criterion
(eigenvalue oracles, winding bounds, exact integrands), never copied
from the code under test.  Criterion 06 also compares its descent with
``minimize.circle_lifting_oracle``, which is library code: its number is
``dirichlet_p_energy`` of the map it returns, which for the winding
trace is the descent's own depth-replicated start.  Its independent
values are the closed forms 2 pi and 8 pi.  Criterion 09 requires each
of its descents to converge and to end at most 1e-6 relative above that
oracle's energy, an upper bound on the discrete constrained minimum.

Criteria 02 and 03 read one fold study of the same fifty pinned matched
pairs.  Within one ``run_primary_suite`` call the first of them to run
keeps the study once it has finished and the other reads it, so a suite
run folds the fifty pairs once; the call drops the study when it
returns, and a criterion run on its own runs the study itself.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cone as cone_mod
from .covering import build_covering, glue, replicate_trace_patch, verify_glue
from .domain import circle, cylinder, interval, square, wrap
from .energy import (
    PenaltySpec,
    _dirichlet_sum,
    _streamed_grad_sq,
    dirichlet_p_energy,
    distance_penalty,
    gagliardo_energy,
)
from .folding import FIRST_WEDGE_MATRIX, REFLECTED_WEDGE_MATRIX, fold, fold_trace_errors
from .gridmap import GridMap, TraceMap
from .minimize import (
    MinimizeConfig,
    circle_lifting_oracle,
    dirichlet_gradient,
    isobe_sweep,
    minimize_extension_detailed,
)
from .target import TargetSpec, circle as circle_target, euclidean


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: str
    duration: float


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} {result.name}: {result.details} ({result.duration:.1f}s)"


def _criterion(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
    """Make a check body ``criterion_<NN>_<topic>`` into a timed criterion.

    The criterion returns a :class:`CriterionResult` named ``<NN>_<topic>``;
    any exception in the body is a failed criterion, so the later ones
    still run.
    """
    name = check.__name__.removeprefix("criterion_")

    @functools.wraps(check)
    def criterion() -> CriterionResult:
        start = time.monotonic()
        try:
            passed, details = check()
        except Exception as exc:
            passed, details = False, f"{type(exc).__name__}: {exc}"
        return CriterionResult(
            name=name, passed=passed, details=details, duration=time.monotonic() - start
        )

    return criterion


# ----------------------------------------------------------- criterion 01

@_criterion
def criterion_01_pair_sum_exactness() -> tuple[bool, str]:
    """u(x) = x on the unit interval has pair-sum energy exactly 1."""
    base = interval(512)
    x = base.axes[0].coordinates()
    u = TraceMap(base=base, target=euclidean(1), values=x[:, None])
    value = gagliardo_energy(u, 0.5, 2.0).value
    err = abs(value - 1.0)
    return err <= 1e-3, f"value={value:.17g} err={err:.3g} tol=1e-3"


# ------------------------------------------------- criteria 02, 03 (folds)

def _smooth_field(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random low-frequency field on the unit square grid, two components.

    Sums amp * cos(2 pi (kx x + ky y) + phase) over 0 <= kx, ky < 3.  A
    mode with kx = 0 or ky = 0 is constant along one axis (0 * x adds an
    exact zero), so its cosine is taken on one grid line and broadcast,
    with the same bits as on the whole grid.
    """
    xs = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    out = np.zeros((n, n, 2))
    for comp in range(2):
        field = np.zeros((n, n))
        for kx in range(3):
            for ky in range(3):
                amp = rng.normal() / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                if kx == 0:
                    wave = np.cos(2.0 * math.pi * (ky * xs) + phase)[None, :]
                elif ky == 0:
                    wave = np.cos(2.0 * math.pi * (kx * xs) + phase)[:, None]
                else:
                    wave = np.cos(2.0 * math.pi * (kx * gx + ky * gy) + phase)
                field += amp * wave
        out[..., comp] = field
    return out


def _matched_pair(rng: np.random.Generator, n: int) -> tuple[GridMap, GridMap]:
    dom = square(n, n)
    v0 = _smooth_field(rng, n)
    v1 = _smooth_field(rng, n)
    # shift the second field so both bottom rows agree exactly; the shift
    # is depth-constant, so smoothness is preserved
    v1 = v1 - v1[:, 0, None, :] + v0[:, 0, None, :]
    u0 = GridMap(domain=dom, target=euclidean(2), values=v0)
    u1 = GridMap(domain=dom, target=euclidean(2), values=v1)
    return u0, u1


#: nodes per side of the square maps that criteria 02 and 03 fold
_FOLD_NODES = 129

#: the exponents at which criterion 03 bounds the fold's energy ratio
_FOLD_EXPONENTS = (1.5, 2.0, 3.0)


def _map_energies(m: GridMap) -> tuple[float, ...]:
    """``dirichlet_p_energy(m, p).value`` for each p in ``_FOLD_EXPONENTS``.

    Builds the cell |DU|^2 once and sums it at every exponent, through
    the two calls ``dirichlet_p_energy`` makes, so the same bits.
    """
    s = _streamed_grad_sq(m.values, m.domain)
    return tuple(_dirichlet_sum(s, m.domain, p) for p in _FOLD_EXPONENTS)


@dataclass(frozen=True)
class _FoldStudy:
    """What criteria 02 and 03 read of the fifty pinned matched pairs.

    ``worst_trace_error`` is the largest of every pair's
    ``fold_trace_errors``; ``worst_ratio[p]`` the largest fold energy
    ratio e(fold) / (e(u0) + e(u1)) at exponent p.
    """

    worst_trace_error: float
    worst_ratio: dict[float, float]


@dataclass
class _SuiteRun:
    """What the criteria of one ``run_primary_suite`` call share."""

    fold_study: Optional[_FoldStudy] = None


#: the running ``run_primary_suite`` call's shared state, None outside one
_suite_run: Optional[_SuiteRun] = None


def _fold_study() -> _FoldStudy:
    """Fold the fifty pinned matched pairs, one pair in memory at a time.

    Each pair is folded once; its trace errors serve criterion 02 and
    one |DU|^2 per map serves criterion 03's three exponents.  Inside a
    ``run_primary_suite`` call the first finished study is kept until
    the call returns, so 02 and 03 share one pass; outside one (a
    criterion run on its own) every call folds afresh.
    """
    run = _suite_run
    if run is not None and run.fold_study is not None:
        return run.fold_study
    rng = np.random.default_rng(0)
    worst_trace = 0.0
    worst_ratio = dict.fromkeys(_FOLD_EXPONENTS, 0.0)
    for _ in range(50):
        u0, u1 = _matched_pair(rng, _FOLD_NODES)
        folded = fold(u0, u1)
        worst_trace = max(worst_trace, *fold_trace_errors(folded, u0, u1))
        by_map = [_map_energies(m) for m in (folded, u0, u1)]
        for p, e_out, e0, e1 in zip(_FOLD_EXPONENTS, *by_map):
            worst_ratio[p] = max(worst_ratio[p], e_out / (e0 + e1))
    study = _FoldStudy(worst_trace, worst_ratio)
    if run is not None:
        run.fold_study = study
    return study


@_criterion
def criterion_02_fold_trace_contract() -> tuple[bool, str]:
    """Fifty random matched pairs fold with all trace errors below 10 h."""
    h = 1.0 / (_FOLD_NODES - 1)
    worst = _fold_study().worst_trace_error
    return worst <= 10.0 * h, f"worst_trace_error={worst:.3g} tol={10.0 * h:.3g}"


@_criterion
def criterion_03_fold_energy_constant() -> tuple[bool, str]:
    """Fold energy ratios stay under the singular-value bound for three p."""
    # independent oracle: largest eigenvalues of J^T J
    s0_sq = float(np.max(np.linalg.eigvalsh(FIRST_WEDGE_MATRIX.T @ FIRST_WEDGE_MATRIX)))
    ss_sq = float(
        np.max(np.linalg.eigvalsh(REFLECTED_WEDGE_MATRIX.T @ REFLECTED_WEDGE_MATRIX))
    )
    if abs(s0_sq - (9.0 + math.sqrt(65.0)) / 2.0) > 1e-12:
        return False, "eigenvalue oracle disagrees with the first wedge constant"
    if abs(ss_sq - (6.0 + math.sqrt(20.0)) / 2.0) > 1e-12:
        return False, "eigenvalue oracle disagrees with the reflected wedge constant"
    worst = _fold_study().worst_ratio
    margins = []
    for p in _FOLD_EXPONENTS:
        bound = max(s0_sq ** (p / 2.0), ss_sq ** (p / 2.0)) / 2.0 + 1.0
        margins.append((p, worst[p], bound))
        if worst[p] > bound:
            return False, f"p={p}: ratio {worst[p]:.4g} exceeds bound {bound:.4g}"
    detail = " ".join(f"p={p}:{w:.3g}<={b:.3g}" for p, w, b in margins)
    return True, detail


# ----------------------------------------------------------- criterion 04

def _polar_grid(resolution: int) -> tuple[np.ndarray, ...]:
    """Node x, y, radii and angles of the resolution² grid over [-1,1]², ij order."""
    axis = np.linspace(-1.0, 1.0, resolution)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return xs, ys, np.hypot(xs, ys), np.arctan2(ys, xs)


def _random_cone_instance(
    rng: np.random.Generator, radii: np.ndarray, angles: np.ndarray
) -> tuple[cone_mod.SampledSet, cone_mod.SampledSet]:
    """Random wedge-union F with a fattened open G satisfying the hypothesis.

    ``radii`` and ``angles`` come from :func:`_polar_grid`, built once per
    grid and shared by every instance on it.
    """
    wedges = rng.integers(1, 4)
    centers = rng.uniform(0.0, 2.0 * math.pi, size=wedges)
    widths = rng.uniform(0.15, 0.5, size=wedges)
    rho = rng.uniform(0.1, 0.5)
    delta = 0.06

    in_wedge = np.zeros_like(radii, dtype=bool)
    in_fat = np.zeros_like(radii, dtype=bool)
    for c, w in zip(centers, widths):
        d = np.abs(wrap(angles - float(c) + math.pi, 2.0 * math.pi) - math.pi)
        in_wedge |= d <= w
        in_fat |= d <= w + delta
    f_ind = (radii <= rho) | ((radii <= 1.0) & in_wedge)
    g_ind = (radii < rho + 0.05) | in_fat
    resolution = radii.shape[0]
    f = cone_mod.SampledSet(2, resolution, True, f_ind)
    g = cone_mod.SampledSet(2, resolution, False, g_ind)
    return f, g


@_criterion
def criterion_04_cone_capture() -> tuple[bool, str]:
    """100 random hypothesis-satisfying instances certify and pass their check.

    On the segment instance the verifier must also reject two wrong
    certificates at the certified radius.
    """
    rng = np.random.default_rng(0)
    resolution = 256
    xs, ys, grid_radii, grid_angles = _polar_grid(resolution)
    radii = []
    for k in range(100):
        f, g = _random_cone_instance(rng, grid_radii, grid_angles)
        cert = cone_mod.find_cone(f, g)
        if not cert.verified:
            return False, f"instance {k}: certificate failed verification"
        radii.append(cert.radius)
    # segment toward e1 inside the open half-space x > 1/2
    h = 2.0 / (resolution - 1)
    # rounding slack: the grid has no y = 0 row at even resolution
    seg = (np.abs(ys) <= h / 2.0 + 1e-9) & (xs >= 0.0) & (grid_radii <= 1.0)
    half = xs > 0.5
    f = cone_mod.SampledSet(2, resolution, True, seg)
    g = cone_mod.SampledSet(2, resolution, False, half)
    cert = cone_mod.find_cone(f, g)
    if not (cert.verified and cert.radius >= 0.6):
        return False, f"segment example: r={cert.radius} verified={cert.verified}"
    # with every direction accepted the cone leaves G = {x > 1/2}; with
    # none, the segment's outer nodes lie outside ball and cone
    for label, accepted in (("every", True), ("no", False)):
        directions = np.full(cert.directions.size, accepted)
        wrong = cone_mod.ConeCertificate(directions, cert.radius, False)
        if cone_mod.verify_cone(f, g, wrong):
            return False, f"segment example: verify_cone accepts {label} direction"
    return True, (
        f"100 instances certified, min_r={min(radii):.4g}, "
        f"segment r={cert.radius:.4g}>=0.6"
    )


# ----------------------------------------------------------- criterion 05

def _winding_trace(n: int, degree: int, target: TargetSpec) -> TraceMap:
    """theta -> (cos(degree theta), sin(degree theta)) on the n-node circle."""
    base = circle(n)
    theta = base.axes[0].coordinates()
    values = np.stack([np.cos(degree * theta), np.sin(degree * theta)], axis=-1)
    return TraceMap(base=base, target=target, values=values)


def _replicated_glue_ratios(
    k: int, target: TargetSpec, penalty: Optional[PenaltySpec] = None
) -> tuple[Optional[str], list[float]]:
    """Glue ratios of replicated degree-one patches at n = 128 and 256.

    Returns ``(failure, ratios)``; ``failure`` names the first glue whose
    bottom face strays from the trace by more than 1e-12 or whose report
    is degenerate, and is None when both glues pass.
    """
    ratios = []
    for n in (128, 256):
        u = _winding_trace(n, 1, target)
        cov = build_covering(u.base, k)
        patches = [replicate_trace_patch(u, c, max(16, n // 8), depth=1.0) for c in cov.charts]
        glued, report = glue(cov, patches, u, p=2.0, penalty=penalty)
        trace_error = verify_glue(glued, u)
        # node-aligned patches glue to rounding level (~1e-15)
        if not trace_error <= 1e-12:
            return f"K={k} n={n}: trace error {trace_error:.3g} exceeds 1e-12", ratios
        if report.degenerate:
            return f"K={k} n={n}: degenerate patch energies", ratios
        ratios.append(report.ratio)
    return None, ratios


@_criterion
def criterion_05_circle_covering_glue() -> tuple[bool, str]:
    """Circle glue for two and three charts: traces tight, ratio stable."""
    details = []
    for k in (2, 3):
        failure, ratios = _replicated_glue_ratios(k, circle_target())
        if failure:
            return False, failure
        drift = abs(ratios[1] - ratios[0]) / ratios[0]
        if not drift <= 0.20:
            return False, f"K={k}: ratio drift {drift:.3g} exceeds 20%"
        details.append(f"K={k}:ratio={ratios[0]:.4g}->{ratios[1]:.4g}")
    return True, " ".join(details)


# ----------------------------------------------------------- criterion 06

@_criterion
def criterion_06_extension_closed_form() -> tuple[bool, str]:
    """Identity and degree-2 circle traces: 2 pi and 8 pi within 5%."""
    n, n_depth = 128, 64
    ident = _winding_trace(n, 1, circle_target())
    dom = cylinder(n, n_depth, 1.0)
    cfg = MinimizeConfig(p=2.0, tol=1e-10)

    e_ident = minimize_extension_detailed(ident, dom, circle_target(), cfg).energy
    _, oracle_ident = circle_lifting_oracle(ident, dom)
    two_pi = 2.0 * math.pi
    if abs(e_ident - two_pi) > 0.05 * two_pi:
        return False, f"identity energy {e_ident:.6g} not within 5% of 2pi"
    if abs(e_ident - oracle_ident) > 0.01 * oracle_ident:
        return False, (
            f"identity energy {e_ident:.6g} disagrees with oracle "
            f"{oracle_ident:.6g} beyond 1%"
        )

    deg2 = _winding_trace(n, 2, circle_target())
    e_deg2 = minimize_extension_detailed(deg2, dom, circle_target(), cfg).energy
    eight_pi = 8.0 * math.pi
    if abs(e_deg2 - eight_pi) > 0.05 * eight_pi:
        return False, f"degree-2 energy {e_deg2:.6g} not within 5% of 8pi"
    return True, (
        f"identity={e_ident:.6g}~2pi oracle={oracle_ident:.6g} "
        f"degree2={e_deg2:.6g}~8pi"
    )


# ----------------------------------------------------------- criterion 07

@_criterion
def criterion_07_penalized_glue_constant() -> tuple[bool, str]:
    """Penalized glue constant at eps 0.25 stays stable under refinement."""
    penalty = distance_penalty(0.25, 2.0, circle_target())
    failure, ratios = _replicated_glue_ratios(2, euclidean(2), penalty)
    if failure:
        return False, failure
    drift = abs(ratios[1] - ratios[0]) / ratios[0]
    if not drift <= 0.20:
        return False, f"measured constant drift {drift:.3g} exceeds 20%"
    return True, f"measured_C={ratios[0]:.4g}->{ratios[1]:.4g} drift={drift:.3g}"


# ----------------------------------------------------------- criterion 08

@_criterion
def criterion_08_isobe_boundedness() -> tuple[bool, str]:
    """Identity-trace sweep converges and stays below 1.1 x 2 pi for all eps."""
    u = _winding_trace(64, 1, circle_target())
    cfg = MinimizeConfig(p=2.0, tol=1e-9)
    sweep = isobe_sweep(u, [0.5, 0.25, 0.125], [1.0, 0.5], cfg)
    # an energy that stopped at the iteration cap is not a minimum
    done, total = sum(sweep.converged), len(sweep.converged)
    if done < total:
        return False, f"only {done} of {total} sweep descents converged"
    bound = 1.1 * 2.0 * math.pi
    worst = max(energy for _, _, energy in sweep.triples)
    if worst > bound:
        return False, f"energy {worst:.6g} exceeds the competitor bound {bound:.6g}"
    if not sweep.bounded_in_eps:
        return False, "bounded-in-eps flag is false"
    return True, (
        f"max_energy={worst:.6g}<= {bound:.6g} bounded_in_eps=true converged={done}/{total}"
    )


# ----------------------------------------------------------- criterion 09

def _degree_zero_trace(rng: np.random.Generator, n: int) -> TraceMap:
    base = circle(n)
    theta = base.axes[0].coordinates()
    psi = np.zeros(n)
    for k in range(1, 5):
        psi += (rng.normal() * np.cos(k * theta) + rng.normal() * np.sin(k * theta)) / (
            k * k
        )
    values = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return TraceMap(base=base, target=circle_target(), values=values)


@_criterion
def criterion_09_trace_inequality_echo() -> tuple[bool, str]:
    """Pair-sum energies bounded by a stable multiple of converged extension energies.

    Each descent must converge and end at most 1e-6 relative above the
    lifting oracle's energy, which bounds the discrete constrained
    minimum from above.
    """
    cfg = MinimizeConfig(p=2.0, tol=1e-9)
    constants = []
    for n in (64, 128):
        rng = np.random.default_rng(0)
        worst = 0.0
        for k in range(10):
            u = _degree_zero_trace(rng, n)
            gag = gagliardo_energy(u, 0.5, 2.0).value
            dom = cylinder(n, max(16, n // 4), 1.0)
            result = minimize_extension_detailed(u, dom, circle_target(), cfg)
            ext = result.energy
            if ext <= 0.0:
                return False, f"n={n}: degenerate extension energy"
            if not result.converged:
                return False, (
                    f"n={n} trace {k}: descent unconverged after {result.iterations} iterations"
                )
            _, reference = circle_lifting_oracle(u, dom)
            if not ext <= reference * (1.0 + 1e-6):
                return False, (
                    f"n={n} trace {k}: extension energy {ext:.9g} above the oracle's "
                    f"{reference:.9g}"
                )
            ratio = gag / ext
            # max() would drop a NaN, and a zero constant would divide the drift
            if not 0.0 < ratio < math.inf:
                return False, (
                    f"n={n} trace {k}: energy ratio {ratio!r} is not finite and positive"
                )
            worst = max(worst, ratio)
        constants.append(worst)
    drift = abs(constants[1] - constants[0]) / constants[0]
    if not drift <= 0.30:
        return False, f"measured constant drift {drift:.3g} exceeds 30%"
    return True, (
        f"measured_C={constants[0]:.4g}->{constants[1]:.4g} drift={drift:.3g}"
    )


# ----------------------------------------------------------- criterion 10

@_criterion
def criterion_10_gradient_check() -> tuple[bool, str]:
    """Analytic gradient matches high-order central differences to 1e-5."""
    rng = np.random.default_rng(7)
    n = 33
    dom = cylinder(n, n, 1.0)
    values = rng.normal(size=(n, n, 2))

    def energy_of(v: np.ndarray, p: float) -> float:
        return dirichlet_p_energy(
            GridMap(domain=dom, target=euclidean(2), values=v), p
        ).value

    worst_all = 0.0
    for p in (1.5, 2.0, 3.0):
        grad = dirichlet_gradient(
            GridMap(domain=dom, target=euclidean(2), values=values), p
        )
        worst = 0.0
        for _ in range(100):
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            k = int(rng.integers(2))
            d = 1e-4
            samples = {}
            for mult in (-2, -1, 1, 2):
                v = np.array(values)
                v[i, j, k] += mult * d
                samples[mult] = energy_of(v, p)
            fd = (
                8.0 * (samples[1] - samples[-1]) - (samples[2] - samples[-2])
            ) / (12.0 * d)
            scale = max(abs(fd), abs(grad[i, j, k]), 1e-12)
            worst = max(worst, abs(fd - grad[i, j, k]) / scale)
        if worst > 1e-5:
            return False, f"p={p}: relative error {worst:.3g} exceeds 1e-5"
        worst_all = max(worst_all, worst)
    return True, f"worst_rel_err={worst_all:.3g}<=1e-5 over p in {{1.5,2,3}}"


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_01_pair_sum_exactness,
    criterion_02_fold_trace_contract,
    criterion_03_fold_energy_constant,
    criterion_04_cone_capture,
    criterion_05_circle_covering_glue,
    criterion_06_extension_closed_form,
    criterion_07_penalized_glue_constant,
    criterion_08_isobe_boundedness,
    criterion_09_trace_inequality_echo,
    criterion_10_gradient_check,
)


def run_primary_suite() -> list[CriterionResult]:
    """Run every criterion in order; criteria 02 and 03 share one fold study."""
    global _suite_run
    outer, _suite_run = _suite_run, _SuiteRun()
    try:
        return [criterion() for criterion in ALL_CRITERIA]
    finally:
        _suite_run = outer
