"""Gradient-descent estimators for collar extension energies.

``minimize_extension_detailed`` runs projected gradient descent on the
discrete p-Dirichlet cell sum with the bottom row pinned to the boundary
data, ``minimize_penalized_detailed`` drops the manifold projection and
adds a pointwise distance penalty; both return a ``MinimizeResult`` with
the map, its energy and the descent's convergence record.
``isobe_sweep`` tabulates penalized minima over a grid of penalty widths
and collar depths, and ``circle_lifting_oracle`` solves the lifted scalar
problem exactly for p = 2 circle-valued data: an FFT along the periodic
angle and one tridiagonal solve in depth per Fourier mode, in
O(N log N) time and O(N) memory for N grid nodes.

The descent direction is the exact analytic gradient of the discrete
objective; the bottom row's gradient is zeroed and every trial point
gets the boundary data copied into its bottom row, so it stays
bit-identical throughout.  ``MinimizeResult.backtracks`` counts the
rejected trial steps, those whose projection hit the origin included.

Each point is evaluated once.  A trial point's objective computes the
undivided forward differences along every axis and the cell |DU|^2
built from them; when the point is accepted, the next gradient reuses
both instead of recomputing them, and ``MinimizeResult.energy`` is the
last accepted objective.  The gradient multiplies the cell
weight into each component separately, divides in place and writes
roll(t, 1, a) - t as two slice subtractions into a reused buffer; the
descent builds every trial point and its squared move in two buffers
it allocates once.  The gradient, the energy and the iterates are the
bits the two-pass roll-and-broadcast formulas gave, because every entry
is computed from the same operands in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import DomainSpec, collar_over
from .energy import (
    PenaltySpec,
    _FIRST,
    _LAST,
    _layer,
    _cell_volume,
    _cells,
    _check_p,
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
    PreconditionError,
    SingularityError,
)
from .gridmap import GridMap, TraceMap, default_constraint_tol
from .target import (
    TargetSpec,
    distance_to_target,
    euclidean,
    project_to_target,
    sum_of_squares,
)

_ARMIJO = 1e-4
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class MinimizeConfig:
    """Optimizer knobs.

    ``step`` is the initial trial step; it is halved until sufficient
    decrease holds and regrows after acceptances.
    ``tol`` stops the loop once the relative energy decrease of an
    accepted step falls below it.
    """

    p: float = 2.0
    max_iterations: int = 500
    step: float = 1.0
    tol: float = 1e-8
    projection: str = "auto"

    def __post_init__(self) -> None:
        _check_p(self.p)
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be positive")
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ParameterError(f"step must be positive, got {self.step}")
        if not (self.tol > 0.0):
            raise ParameterError(f"tolerance must be positive, got {self.tol}")
        if self.projection not in ("auto", "none"):
            raise ParameterError(
                f"projection mode must be auto|none, got {self.projection!r}"
            )


@dataclass(frozen=True)
class MinimizeResult:
    map: GridMap
    energy: float
    iterations: int
    energies: tuple[float, ...]
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


# ------------------------------------------------------------- objectives

def _dirichlet_gradient(
    diffs: list[np.ndarray], s: np.ndarray, domain: DomainSpec, p: float
) -> np.ndarray:
    """Gradient from a point's forward differences and its ``_grad_sq``."""
    exponent = (p - 2.0) / 2.0
    if exponent < 0.0:
        # p < 2: the cell term is non-differentiable at zero gradient;
        # take the zero subgradient there
        w_cells = np.where(s > 0.0, s, 1.0) ** exponent
        w_cells = np.where(s > 0.0, w_cells, 0.0)
    else:
        w_cells = s**exponent
    w_full = np.zeros(domain.shape)
    w_full[_cells(domain)] = w_cells
    grad = np.zeros_like(diffs[0])
    t = np.empty_like(grad, order="C")
    back = np.empty_like(grad, order="C")  # roll(t, 1, a) - t
    t_flat, back_flat = t.reshape(-1), back.reshape(-1)
    for a, (diff, axis) in enumerate(zip(diffs, domain.axes)):
        for c in range(t.shape[-1]):
            np.multiply(w_full, diff[..., c], out=t[..., c])
        t /= axis.spacing**2
        # t[i - k] - t[i] off the first layer along a (k entries per step,
        # as in ``_forward_differences``), then that layer's wrapped term
        k = math.prod(t.shape[a + 1 :])
        np.subtract(t_flat[:-k], t_flat[k:], out=back_flat[k:])
        first = _layer(a, _FIRST)
        np.subtract(t[_layer(a, _LAST)], t[first], out=back[first])
        grad += back
    grad *= p * _cell_volume(domain)
    return grad


def _penalty_gradient(
    values: np.ndarray, vols: np.ndarray, penalty: PenaltySpec
) -> np.ndarray:
    norms = np.sqrt(sum_of_squares(values))
    dist = np.abs(norms - 1.0)
    q = penalty.power
    mag = q * np.where(dist > 0.0, dist, 1.0) ** (q - 1.0)
    mag = np.where(dist > 0.0, mag, 0.0) / penalty.eps**q
    safe = np.where(norms > 0.0, norms, 1.0)
    direction = values * (np.sign(norms - 1.0) / safe)[..., None]
    direction[norms == 0.0] = 0.0
    return (vols * mag)[..., None] * direction


def dirichlet_gradient(m: GridMap, p: float) -> np.ndarray:
    """Exact gradient of the discrete p-Dirichlet energy in the node values."""
    p = _check_p(p)
    diffs = list(_forward_differences(np.asarray(m.values), m.domain))
    return _dirichlet_gradient(diffs, _grad_sq(diffs, m.domain), m.domain, p)


# ---------------------------------------------------------------- descent

def _check_collar(u: TraceMap, domain: DomainSpec) -> None:
    if domain.kind not in ("cylinder", "torus_collar", "square", "box"):
        raise ParameterError(
            f"extension domains are collars over the trace base, got {domain.kind!r}"
        )
    if domain.shape[:-1] != u.base.shape:
        raise ParameterError(
            f"collar base resolution {domain.shape[:-1]} does not match the "
            f"trace resolution {u.base.shape}"
        )
    for a in range(u.base.ndim):
        if abs(domain.axes[a].length - u.base.axes[a].length) > 1e-12:
            raise ParameterError("collar base lengths do not match the trace")


def _descend(
    u: TraceMap,
    domain: DomainSpec,
    target: TargetSpec,
    cfg: MinimizeConfig,
    penalty: Optional[PenaltySpec],
    project: bool,
) -> MinimizeResult:
    """Descent from the depth-replicated trace; ``penalty=None`` adds no penalty."""
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
            g += _penalty_gradient(v, vols, penalty)
        g[..., 0, :] = 0.0  # bottom row pinned
        return g

    energy, diffs, s = evaluate(values)
    if not np.isfinite(energy):
        raise OptimizationError("initial energy is not finite")
    energies = [energy]
    trial = cfg.step
    converged = False
    grad_sup = float("inf")
    iterations = 0
    backtracks = 0

    # reused buffers: ``step`` holds values - t * grad (an unprojected
    # descent's candidate itself), ``moved`` the squared move
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
            candidate = np.subtract(values, step, out=step)
            if project:
                try:
                    candidate = project_to_target(target, candidate)
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
        energies.append(energy)
        iterations = it + 1
        trial = min(t * 2.0, cfg.step * 1024.0)
        if drop <= cfg.tol * max(1.0, abs(energy)):
            converged = True
            break

    final = GridMap(
        domain=domain,
        target=target if project else euclidean(u.nu),
        values=values,
        constraint_tol=max(u.constraint_tol, default_constraint_tol(domain)),
    )
    return MinimizeResult(
        map=final,
        energy=energy,
        iterations=iterations,
        energies=tuple(energies),
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
    if target.constrained:
        worst = float(np.max(distance_to_target(target, u.values)))
        if worst > u.constraint_tol:
            raise PreconditionError(
                f"boundary data strays {worst:.3g} from the target"
            )
    project = target.constrained and cfg.projection == "auto"
    return _descend(u, domain, target, cfg, None, project)


def minimize_penalized_detailed(
    u: TraceMap, penalty: PenaltySpec, domain: DomainSpec, cfg: MinimizeConfig
) -> MinimizeResult:
    """Unconstrained descent on Dirichlet-plus-penalty with pinned bottom."""
    if penalty is None:
        raise ParameterError("penalized descent needs a non-trivial penalty")
    return _descend(u, domain, euclidean(u.nu), cfg, penalty, project=False)


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
    if any(e <= 0 for e in eps_list) or any(L <= 0 for L in depth_list):
        raise ParameterError("sweep parameters must be positive")
    h_base = u.base.max_spacing
    triples: list[tuple[float, float, float]] = []
    for depth in depth_list:
        n_depth = max(8, min(64, int(round(depth / h_base)) + 1))
        domain = collar_over(u.base, n_depth, float(depth))
        for eps in eps_list:
            penalty = distance_penalty(float(eps), cfg.p, u.target)
            try:
                energy = minimize_penalized_detailed(u, penalty, domain, cfg).energy
            except OptimizationError as exc:
                raise OptimizationError(
                    f"sweep point eps={eps} depth={depth}: {exc}"
                ) from exc
            triples.append((float(eps), float(depth), energy))

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
    if domain.kind != "cylinder":
        raise ParameterError(f"the lifting oracle needs a cylinder collar, got {domain.kind!r}")
    if u.nu != 2 or not u.target.constrained:
        raise ParameterError("the lifting oracle needs circle-valued data")
    _check_collar(u, domain)

    n = u.base.shape[0]
    n_t = domain.shape[-1]
    h_theta = domain.axes[0].spacing
    h_t = domain.axes[1].spacing

    vals = np.asarray(u.values)
    norms = np.linalg.norm(vals, axis=-1)
    if np.any(norms == 0.0):
        raise LiftingError("boundary data vanishes at a node; no angle exists")
    raw = np.arctan2(vals[:, 1], vals[:, 0])
    jumps = np.mod(np.diff(raw, append=raw[0]) + math.pi, 2.0 * math.pi) - math.pi
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

    # exact discrete energy of the lifting deg*theta + psi; the seam
    # difference carries the winding increment deg * h_theta
    d_theta = (np.roll(psi, -1, axis=0) - psi) + degree * h_theta
    d_t = psi[:, 1:] - psi[:, :-1]
    energy = float(
        np.sum((d_theta[:, : n_t - 1] / h_theta) ** 2) * h_theta * h_t
        + np.sum((d_t / h_t) ** 2) * h_theta * h_t
    )

    full_phi = degree * theta[:, None] + psi
    wrapped = np.stack([np.cos(full_phi), np.sin(full_phi)], axis=-1)
    lifted = GridMap(domain=domain, target=u.target, values=wrapped)
    return lifted, energy
