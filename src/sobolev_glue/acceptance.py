"""The primary acceptance suite: ten pinned, self-verifying checks.

Each criterion function runs one check end to end and returns a
CriterionResult with a pass flag and a short detail string; these are the
checks the command-line ``accept`` subcommand and the acceptance test
module drive.  Expected values are closed forms computed independently
inside each criterion (eigenvalue oracles, winding bounds, exact
integrands), never copied from the code under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cone as cone_mod
from .covering import build_covering, glue, replicate_trace_patch, verify_glue
from .domain import circle, cylinder, interval, square
from .energy import PenaltySpec, dirichlet_p_energy, distance_penalty, gagliardo_energy
from .errors import GlueError
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


def _timed(
    name: str, check: Callable[[], tuple[bool, str]]
) -> CriterionResult:
    start = time.monotonic()
    try:
        passed, details = check()
    except GlueError as exc:
        # a library error is a failed criterion; the later ones still run
        passed, details = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(
        name=name, passed=passed, details=details, duration=time.monotonic() - start
    )


# ----------------------------------------------------------- criterion 01

def criterion_01_pair_sum_exactness() -> CriterionResult:
    """u(x) = x on the unit interval has pair-sum energy exactly 1."""

    def check() -> tuple[bool, str]:
        base = interval(512)
        x = base.axes[0].coordinates()
        u = TraceMap(base=base, target=euclidean(1), values=x[:, None])
        value = gagliardo_energy(u, 0.5, 2.0).value
        err = abs(value - 1.0)
        return err <= 1e-3, f"value={value:.17g} err={err:.3g} tol=1e-3"

    return _timed("01_pair_sum_exactness", check)


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


def criterion_02_fold_trace_contract() -> CriterionResult:
    """Fifty random matched pairs fold with all trace errors below 10 h."""

    def check() -> tuple[bool, str]:
        rng = np.random.default_rng(0)
        n = 129
        h = 1.0 / (n - 1)
        worst = 0.0
        for _ in range(50):
            u0, u1 = _matched_pair(rng, n)
            worst = max(worst, *fold_trace_errors(fold(u0, u1), u0, u1))
        return worst <= 10.0 * h, f"worst_trace_error={worst:.3g} tol={10.0 * h:.3g}"

    return _timed("02_fold_trace_contract", check)


def criterion_03_fold_energy_constant() -> CriterionResult:
    """Fold energy ratios stay under the singular-value bound for three p."""

    def check() -> tuple[bool, str]:
        # independent oracle: largest eigenvalues of J^T J
        s0_sq = float(np.max(np.linalg.eigvalsh(FIRST_WEDGE_MATRIX.T @ FIRST_WEDGE_MATRIX)))
        ss_sq = float(
            np.max(np.linalg.eigvalsh(REFLECTED_WEDGE_MATRIX.T @ REFLECTED_WEDGE_MATRIX))
        )
        if abs(s0_sq - (9.0 + math.sqrt(65.0)) / 2.0) > 1e-12:
            return False, "eigenvalue oracle disagrees with the first wedge constant"
        if abs(ss_sq - (6.0 + math.sqrt(20.0)) / 2.0) > 1e-12:
            return False, "eigenvalue oracle disagrees with the reflected wedge constant"
        n = 129
        exponents = (1.5, 2.0, 3.0)
        # the folded map does not depend on p: fold each pair once, one
        # pair in memory at a time
        rng = np.random.default_rng(0)
        worst = dict.fromkeys(exponents, 0.0)
        for _ in range(50):
            u0, u1 = _matched_pair(rng, n)
            folded = fold(u0, u1)
            for p in exponents:
                e_out = dirichlet_p_energy(folded, p).value
                e_in = (
                    dirichlet_p_energy(u0, p).value + dirichlet_p_energy(u1, p).value
                )
                worst[p] = max(worst[p], e_out / e_in)
        margins = []
        for p in exponents:
            bound = max(s0_sq ** (p / 2.0), ss_sq ** (p / 2.0)) / 2.0 + 1.0
            margins.append((p, worst[p], bound))
            if worst[p] > bound:
                return False, f"p={p}: ratio {worst[p]:.4g} exceeds bound {bound:.4g}"
        detail = " ".join(f"p={p}:{w:.3g}<={b:.3g}" for p, w, b in margins)
        return True, detail

    return _timed("03_fold_energy_constant", check)


# ----------------------------------------------------------- criterion 04

def _polar_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Node radii and angles of the resolution² grid over [-1,1]², ij order."""
    axis = np.linspace(-1.0, 1.0, resolution)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return np.hypot(xs, ys), np.arctan2(ys, xs)


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
        d = np.abs(np.mod(angles - float(c) + math.pi, 2.0 * math.pi) - math.pi)
        in_wedge |= d <= w
        in_fat |= d <= w + delta
    f_ind = (radii <= rho) | ((radii <= 1.0) & in_wedge)
    g_ind = (radii < rho + 0.05) | in_fat
    resolution = radii.shape[0]
    f = cone_mod.SampledSet(2, resolution, True, f_ind)
    g = cone_mod.SampledSet(2, resolution, False, g_ind)
    return f, g


def criterion_04_cone_capture() -> CriterionResult:
    """100 random hypothesis-satisfying instances certify and pass their check."""

    def check() -> tuple[bool, str]:
        rng = np.random.default_rng(0)
        resolution = 256
        grid_radii, grid_angles = _polar_grid(resolution)
        radii = []
        for k in range(100):
            f, g = _random_cone_instance(rng, grid_radii, grid_angles)
            cert = cone_mod.find_cone(f, g)
            if not cert.verified:
                return False, f"instance {k}: certificate failed verification"
            radii.append(cert.radius)
        # segment toward e1 inside the open half-space x > 1/2
        axis = np.linspace(-1.0, 1.0, resolution)
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        h = 2.0 / (resolution - 1)
        # rounding slack: the grid has no y = 0 row at even resolution
        seg = (np.abs(ys) <= h / 2.0 + 1e-9) & (xs >= 0.0) & (grid_radii <= 1.0)
        half = xs > 0.5
        f = cone_mod.SampledSet(2, resolution, True, seg)
        g = cone_mod.SampledSet(2, resolution, False, half)
        cert = cone_mod.find_cone(f, g)
        if not (cert.verified and cert.radius >= 0.6):
            return False, f"segment example: r={cert.radius} verified={cert.verified}"
        return True, (
            f"100 instances certified, min_r={min(radii):.4g}, "
            f"segment r={cert.radius:.4g}>=0.6"
        )

    return _timed("04_cone_capture", check)


# ----------------------------------------------------------- criterion 05

def _degree_one_trace(n: int, target: TargetSpec) -> TraceMap:
    base = circle(n)
    theta = base.axes[0].coordinates()
    values = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
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
        u = _degree_one_trace(n, target)
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


def criterion_05_circle_covering_glue() -> CriterionResult:
    """Circle glue for two and three charts: traces tight, ratio stable."""

    def check() -> tuple[bool, str]:
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

    return _timed("05_circle_covering_glue", check)


# ----------------------------------------------------------- criterion 06

def criterion_06_extension_closed_form() -> CriterionResult:
    """Identity and degree-2 circle traces: 2 pi and 8 pi within 5%."""

    def check() -> tuple[bool, str]:
        n, n_depth = 128, 64
        ident = _degree_one_trace(n, circle_target())
        theta = ident.base.axes[0].coordinates()
        dom = cylinder(n, n_depth, 1.0)
        cfg = MinimizeConfig(p=2.0, max_iterations=400, tol=1e-10)

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

        deg2 = TraceMap(
            base=ident.base,
            target=circle_target(),
            values=np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=-1),
        )
        e_deg2 = minimize_extension_detailed(deg2, dom, circle_target(), cfg).energy
        eight_pi = 8.0 * math.pi
        if abs(e_deg2 - eight_pi) > 0.05 * eight_pi:
            return False, f"degree-2 energy {e_deg2:.6g} not within 5% of 8pi"
        return True, (
            f"identity={e_ident:.6g}~2pi oracle={oracle_ident:.6g} "
            f"degree2={e_deg2:.6g}~8pi"
        )

    return _timed("06_extension_closed_form", check)


# ----------------------------------------------------------- criterion 07

def criterion_07_penalized_glue_constant() -> CriterionResult:
    """Penalized glue constant at eps 0.25 stays stable under refinement."""

    def check() -> tuple[bool, str]:
        penalty = distance_penalty(0.25, 2.0, circle_target())
        failure, ratios = _replicated_glue_ratios(2, euclidean(2), penalty)
        if failure:
            return False, failure
        drift = abs(ratios[1] - ratios[0]) / ratios[0]
        if not drift <= 0.20:
            return False, f"measured constant drift {drift:.3g} exceeds 20%"
        return True, f"measured_C={ratios[0]:.4g}->{ratios[1]:.4g} drift={drift:.3g}"

    return _timed("07_penalized_glue_constant", check)


# ----------------------------------------------------------- criterion 08

def criterion_08_isobe_boundedness() -> CriterionResult:
    """Identity-trace sweep stays below 1.1 x 2 pi for all eps."""

    def check() -> tuple[bool, str]:
        u = _degree_one_trace(64, circle_target())
        cfg = MinimizeConfig(p=2.0, max_iterations=400, tol=1e-9)
        sweep = isobe_sweep(u, [0.5, 0.25, 0.125], [1.0, 0.5], cfg)
        bound = 1.1 * 2.0 * math.pi
        worst = max(energy for _, _, energy in sweep.triples)
        if worst > bound:
            return False, f"energy {worst:.6g} exceeds the competitor bound {bound:.6g}"
        if not sweep.bounded_in_eps:
            return False, "bounded-in-eps flag is false"
        return True, f"max_energy={worst:.6g}<= {bound:.6g} bounded_in_eps=true"

    return _timed("08_isobe_boundedness", check)


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


def criterion_09_trace_inequality_echo() -> CriterionResult:
    """Pair-sum energies bounded by a stable multiple of extension energies."""

    def check() -> tuple[bool, str]:
        cfg = MinimizeConfig(p=2.0, max_iterations=300, tol=1e-9)
        constants = []
        for n in (64, 128):
            rng = np.random.default_rng(0)
            worst = 0.0
            for _ in range(10):
                u = _degree_zero_trace(rng, n)
                gag = gagliardo_energy(u, 0.5, 2.0).value
                dom = cylinder(n, max(16, n // 4), 1.0)
                ext = minimize_extension_detailed(u, dom, circle_target(), cfg).energy
                if ext <= 0.0:
                    return False, f"n={n}: degenerate extension energy"
                worst = max(worst, gag / ext)
            constants.append(worst)
        drift = abs(constants[1] - constants[0]) / constants[0]
        if drift > 0.30:
            return False, f"measured constant drift {drift:.3g} exceeds 30%"
        return True, (
            f"measured_C={constants[0]:.4g}->{constants[1]:.4g} drift={drift:.3g}"
        )

    return _timed("09_trace_inequality_echo", check)


# ----------------------------------------------------------- criterion 10

def criterion_10_gradient_check() -> CriterionResult:
    """Analytic gradient matches high-order central differences to 1e-5."""

    def check() -> tuple[bool, str]:
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

    return _timed("10_gradient_check", check)


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
    return [criterion() for criterion in ALL_CRITERIA]
