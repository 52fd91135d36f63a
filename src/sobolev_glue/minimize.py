"""Gradient-descent estimators for collar extension energies.

This module owns the descent, the sweep and the lifting oracle; each
objective's value and exact gradient belong to ``energy``.

``minimize_extension_detailed`` runs projected gradient descent on the
discrete p-Dirichlet cell sum with the bottom row pinned to the boundary
data, ``minimize_penalized_detailed`` drops the manifold projection and
adds a pointwise distance penalty; both return a ``MinimizeResult`` with
the map, its energy, the iteration count, the convergence flag, the
final gradient sup and the backtracks.  ``isobe_sweep`` tabulates
penalized minima over penalty widths and collar depths, each collar with
``domain.depth_node_count`` depth nodes, and ``circle_lifting_oracle``
solves the lifted scalar problem exactly for p = 2 circle-valued data:
an FFT along the periodic angle and one tridiagonal solve in depth per
Fourier mode, in O(N log N) time and O(N) memory for N grid nodes; its
energy is the Dirichlet cell sum of ``energy`` applied to the lifting.

A descent runs only on ``domain.collar_over(u.base, ...)``, the trace
base's own axes then depth; any other domain is a ``ParameterError``.

The descent direction is the exact analytic gradient of the discrete
objective; the bottom row's gradient is zeroed and every trial point
gets the boundary data copied into its bottom row, so it stays
bit-identical throughout.  Every trial point is projected onto the
descent's target: the circle or sphere of a projected descent, a
Euclidean space (no change) otherwise.  ``MinimizeResult.backtracks``
counts the rejected trial steps, those whose projection hit the origin
included.  The first trial step is 1; a rejected step is halved, and
after an acceptance the next trial is twice the accepted step, at most
1024.

Each point is evaluated once.  A trial point's objective computes the
undivided forward differences along every axis and the cell |DU|^2
built from them; when the point is accepted, the next gradient reuses
both instead of recomputing them, and ``MinimizeResult.energy`` is the
last accepted objective.  The descent builds every trial point and its
squared move in two buffers it allocates once.  The gradient, the
energy and the iterates are the bits the two-pass roll-and-broadcast
formulas gave, because every entry is computed from the same operands
in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import DomainSpec, collar_over, depth_node_count, wrap
from .energy import (
    PenaltySpec,
    _check_p,
    _dirichlet_gradient,
    _dirichlet_sum,
    _forward_differences,
    _grad_sq,
    _penalty_sum,
    distance_penalty,
    node_volumes,
)
from .errors import (
    LiftingError,
    OptimizationError,
    ParameterError,
    SingularityError,
)
from .gridmap import GridMap, TraceMap, default_constraint_tol
from .target import TargetSpec, euclidean, project_to_target, sum_of_squares

_ARMIJO = 1e-4
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class MinimizeConfig:
    """Optimizer knobs.

    ``tol`` stops the loop once the relative energy decrease of an
    accepted step falls below it.  ``projection`` has one value,
    ``"auto"``: a descent projects onto the target it is given.  The
    field is kept only because the benchmark reads it.
    """

    p: float = 2.0
    max_iterations: int = 500
    tol: float = 1e-8
    projection: str = "auto"

    def __post_init__(self) -> None:
        _check_p(self.p)
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be positive")
        if not (self.tol > 0.0 and np.isfinite(self.tol)):
            raise ParameterError(f"tolerance must be positive and finite, got {self.tol}")
        if self.projection != "auto":
            raise ParameterError(f"projection mode must be auto, got {self.projection!r}")


@dataclass(frozen=True)
class MinimizeResult:
    map: GridMap
    energy: float
    iterations: int
    converged: bool
    gradient_sup: float
    backtracks: int


@dataclass(frozen=True)
class SweepResult:
    """Penalized minima over (eps, depth) pairs with the eps-limit flag.

    ``bounded_in_eps``: at every depth the smallest-eps energy stays
    within a factor 2 of the largest-eps energy (plus an absolute floor),
    the sampled form of boundedness along eps -> 0.  The statement is
    about the computed resolutions only.
    """

    triples: tuple[tuple[float, float, float], ...]
    bounded_in_eps: bool


# -------------------------------------------------------------- gradient

def dirichlet_gradient(m: GridMap, p: float) -> np.ndarray:
    """Exact gradient of the discrete p-Dirichlet energy in the node values.

    Looks ``_dirichlet_gradient`` up in this module, so a patched kernel
    here is the one this function and the descent both run.
    """
    p = _check_p(p)
    diffs = list(_forward_differences(np.asarray(m.values), m.domain))
    return _dirichlet_gradient(diffs, _grad_sq(diffs, m.domain), m.domain, p)


# ---------------------------------------------------------------- descent

def _check_collar(u: TraceMap, domain: DomainSpec) -> None:
    if domain != collar_over(u.base, domain.shape[-1], domain.axes[-1].length):
        raise ParameterError(f"{domain} is not a collar over the trace base {u.base}")


def _descend(
    u: TraceMap,
    domain: DomainSpec,
    target: TargetSpec,
    cfg: MinimizeConfig,
    penalty: Optional[PenaltySpec],
) -> MinimizeResult:
    """Descent from the depth-replicated trace; ``penalty=None`` adds no penalty.

    Every trial point is projected onto ``target``, which leaves it as it
    is on a Euclidean target.
    """
    _check_collar(u, domain)
    p = cfg.p
    n_depth = domain.shape[-1]
    bottom = np.array(u.values)
    values = np.repeat(bottom[..., None, :], n_depth, axis=-2)
    vols = node_volumes(domain)

    def evaluate(v: np.ndarray) -> tuple[float, list[np.ndarray], np.ndarray]:
        # the objective, with the differences and cell |DU|^2 that the
        # gradient at v reuses
        diffs = list(_forward_differences(v, domain))
        s = _grad_sq(diffs, domain)
        return _dirichlet_sum(s, domain, p) + _penalty_sum(v, vols, penalty), diffs, s

    def gradient(v: np.ndarray, diffs: list[np.ndarray], s: np.ndarray) -> np.ndarray:
        g = _dirichlet_gradient(diffs, s, domain, p)
        if penalty is not None:
            g += penalty.gradient(v, vols)
        g[..., 0, :] = 0.0  # bottom row pinned
        return g

    energy, diffs, s = evaluate(values)
    if not np.isfinite(energy):
        raise OptimizationError("initial energy is not finite")
    trial = 1.0
    converged = False
    grad_sup = float("inf")
    iterations = 0
    backtracks = 0

    # reused buffers: ``step`` holds values - t * grad (the candidate
    # itself on a Euclidean target), ``moved`` the squared move
    step = np.empty_like(values)
    moved = np.empty_like(values)

    for it in range(cfg.max_iterations):
        grad = gradient(values, diffs, s)
        # the max of |grad| is NaN or infinite exactly when some entry is
        grad_sup = float(np.max(np.abs(grad, out=moved)))
        if not math.isfinite(grad_sup):
            raise OptimizationError(f"gradient not finite at iteration {it}")
        if grad_sup == 0.0:
            converged = True
            break

        accepted = False
        t = trial
        for _ in range(_MAX_HALVINGS):
            np.multiply(grad, t, out=step)
            try:
                candidate = project_to_target(target, np.subtract(values, step, out=step))
            except SingularityError:
                t *= 0.5
                backtracks += 1
                continue
            candidate[..., 0, :] = bottom
            cand_energy, cand_diffs, cand_s = evaluate(candidate)
            np.subtract(candidate, values, out=moved)
            moved_sq = float(np.sum(np.multiply(moved, moved, out=moved)))
            if math.isfinite(cand_energy) and (
                cand_energy <= energy - _ARMIJO * moved_sq / t
            ):
                accepted = True
                break
            t *= 0.5
            backtracks += 1

        if not accepted:
            # backtracking shrank the step to rounding scale without any
            # decrease along the negative gradient: stationary here
            converged = True
            break

        drop = energy - cand_energy
        if candidate is step:
            step = values  # the old iterate becomes the next buffer
        values, energy, diffs, s = candidate, cand_energy, cand_diffs, cand_s
        iterations = it + 1
        trial = min(t * 2.0, 1024.0)
        if drop <= cfg.tol * max(1.0, abs(energy)):
            converged = True
            break

    final = GridMap(
        domain=domain,
        target=target,
        values=values,
        constraint_tol=max(u.constraint_tol, default_constraint_tol(domain)),
    )
    return MinimizeResult(
        map=final,
        energy=energy,
        iterations=iterations,
        converged=converged,
        gradient_sup=grad_sup,
        backtracks=backtracks,
    )


def minimize_extension_detailed(
    u: TraceMap, domain: DomainSpec, target: TargetSpec, cfg: MinimizeConfig
) -> MinimizeResult:
    """Estimate the constrained extension energy over a collar domain.

    The bottom row of the result carries ``u`` bit-identically; accepted
    iterations never increase the objective.
    """
    if u.target != target:
        raise ParameterError("trace target does not match the requested target")
    return _descend(u, domain, target, cfg, None)


def minimize_penalized_detailed(
    u: TraceMap, penalty: PenaltySpec, domain: DomainSpec, cfg: MinimizeConfig
) -> MinimizeResult:
    """Unconstrained descent on Dirichlet-plus-penalty with pinned bottom."""
    if penalty is None:
        raise ParameterError("penalized descent needs a non-trivial penalty")
    return _descend(u, domain, euclidean(u.nu), cfg, penalty)


# ------------------------------------------------------------------ sweep

def isobe_sweep(
    u: TraceMap,
    eps_list: Sequence[float],
    depth_list: Sequence[float],
    cfg: MinimizeConfig,
) -> SweepResult:
    """Tabulate penalized minima over penalty widths and collar depths.

    The descents and the penalty power use the exponent ``cfg.p``; the
    penalty's reference is ``u.target``, a circle or sphere.
    """
    if len(eps_list) == 0 or len(depth_list) == 0:
        raise ParameterError("sweep lists must be nonempty")
    # every depth and width is checked, and its collar and penalty built,
    # before any descent
    collars = [(float(d), collar_over(u.base, depth_node_count(u.base, d), d)) for d in depth_list]
    penalties = [(float(e), distance_penalty(float(e), cfg.p, u.target)) for e in eps_list]
    triples: list[tuple[float, float, float]] = []
    for depth, domain in collars:
        for eps, penalty in penalties:
            try:
                energy = minimize_penalized_detailed(u, penalty, domain, cfg).energy
            except OptimizationError as exc:
                raise OptimizationError(
                    f"sweep point eps={eps} depth={depth}: {exc}"
                ) from exc
            triples.append((eps, depth, energy))

    by_depth: dict[float, dict[float, float]] = {}
    for eps, depth, energy in triples:
        by_depth.setdefault(depth, {})[eps] = energy
    # smallest-eps energy against the largest-eps one, above an absolute floor
    bounded = all(row[min(row)] <= max(2.0 * row[max(row)], 1e-9) for row in by_depth.values())
    return SweepResult(triples=tuple(triples), bounded_in_eps=bounded)


# ---------------------------------------------------------- lifting oracle

def circle_lifting_oracle(
    u: TraceMap, domain: DomainSpec
) -> tuple[GridMap, float]:
    """Exact p = 2 extension energy of circle-valued data via its lifting.

    Unwraps the boundary angles (adjacent jumps must stay below pi),
    splits off the winding part, solves the scalar harmonic problem with
    pinned bottom and free top exactly (a real FFT along theta, one
    tridiagonal solve in depth per Fourier mode, the inverse FFT; Hockney,
    J. ACM 12 (1965)), and returns the wrapped harmonic map with the exact
    discrete energy of its lifting.
    """
    if u.base.kind != "circle":
        raise ParameterError(f"the lifting oracle needs a circle base, got {u.base.kind!r}")
    if not u.base.is_canonical():
        raise ParameterError("the lifting oracle's winding term needs circumference 2*pi")
    if u.nu != 2 or not u.target.constrained:
        raise ParameterError("the lifting oracle needs circle-valued data")
    _check_collar(u, domain)

    n = u.base.shape[0]
    n_t = domain.shape[-1]
    h_theta = domain.axes[0].spacing
    h_t = domain.axes[1].spacing

    vals = np.asarray(u.values)
    if np.any(sum_of_squares(vals) == 0.0):
        raise LiftingError("boundary data vanishes at a node; no angle exists")
    raw = np.arctan2(vals[:, 1], vals[:, 0])
    jumps = wrap(np.diff(raw, append=raw[0]) + math.pi, 2.0 * math.pi) - math.pi
    if np.any(np.abs(jumps) >= math.pi - 1e-9):
        raise LiftingError("adjacent boundary angles jump by pi or more")
    winding = float(np.sum(jumps)) / (2.0 * math.pi)
    degree = int(round(winding))
    if abs(winding - degree) > 1e-6:
        raise LiftingError(f"winding number {winding} is not an integer")

    phi = raw[0] + np.concatenate([[0.0], np.cumsum(jumps[:-1])])
    theta = u.base.axes[0].coordinates()
    psi_bottom = phi - degree * theta

    # scalar harmonic extension of psi: quadratic form over grid edges,
    # theta edges only below the top row (cells anchor at their low corner).
    # Its normal equations are periodic in theta with constant
    # coefficients, so Fourier mode k of the free rows j = 1..n_t-1 solves
    # one tridiagonal system: off-diagonal -w_t, diagonal
    # 2 w_t + w_theta (2 - 2 cos(2 pi k / n)) below the top row and w_t
    # on the top row, which has no theta edges.  Only row 1 sees the data,
    # through its depth edge w_t to the pinned bottom, so mode k is
    # psi_hat_k(0) times the real response g_k to that unit load.
    # g_k comes from a Thomas sweep over the rows, vectorised over the
    # modes, on the system divided by w_t; array row r is depth j = r + 1.
    ratio = (h_t / h_theta) ** 2  # w_theta / w_t
    n_free = n_t - 1
    k = np.arange(n // 2 + 1)
    diagonal = 2.0 + ratio * (2.0 - 2.0 * np.cos(2.0 * math.pi * k / n))
    # forward sweep: inv[r] is 1 / (pivot of row r), load[r] the swept load
    inv = np.empty((n_free, k.size))
    load = np.empty((n_free, k.size))
    inv_above, load_above = 0.0, 1.0
    for r in range(n_free):
        pivot = (1.0 if r == n_free - 1 else diagonal) - inv_above
        inv[r] = inv_above = 1.0 / pivot
        load[r] = load_above = inv_above * load_above
    # back substitution, in place: load becomes g
    for r in range(n_free - 2, -1, -1):
        load[r] += inv[r] * load[r + 1]
    modes = np.fft.rfft(psi_bottom)
    psi = np.empty((n, n_t))
    psi[:, 0] = psi_bottom
    psi[:, 1:] = np.fft.irfft(modes * load, n=n, axis=-1).T

    # exact discrete energy of the lifting deg*theta + psi: every theta
    # difference carries the winding increment deg * h_theta
    d_theta, d_t = _forward_differences(psi[..., None], domain)
    d_theta += degree * h_theta
    energy = _dirichlet_sum(_grad_sq((d_theta, d_t), domain), domain, 2.0)

    full_phi = degree * theta[:, None] + psi
    wrapped = np.stack([np.cos(full_phi), np.sin(full_phi)], axis=-1)
    lifted = GridMap(domain=domain, target=u.target, values=wrapped)
    return lifted, energy
