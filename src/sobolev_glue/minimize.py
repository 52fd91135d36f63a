"""Gradient-descent estimators for collar extension energies.

This module owns the descent, the sweep and the lifting oracle; each
objective's value and exact gradient belong to ``energy``.

``minimize_extension_detailed`` runs projected Sobolev-gradient descent
on the discrete p-Dirichlet cell sum with the bottom row pinned to the
boundary data, ``minimize_penalized_detailed`` drops the manifold
projection and adds a pointwise distance penalty; both return a
``MinimizeResult`` with the map, its energy, the iteration count, the
convergence flag, the final gradient sup and the backtracks.
``isobe_sweep`` tabulates penalized minima over penalty widths and
collar depths, each collar with ``domain.depth_node_count`` depth nodes,
and ``circle_lifting_oracle`` solves the lifted scalar problem exactly
for p = 2 circle-valued data.  Descents and the oracle share
``_collar_stiffness_solve``, the collar's p = 2 stiffness solve: an FFT
along the base axes (an interval axis mirrored into a periodic one) and
one tridiagonal solve in depth per Fourier mode, in O(N log N) time and
O(N) memory for N grid nodes.  The oracle's energy is
``energy.dirichlet_p_energy`` of the circle-valued map it returns, so it
bounds the discrete constrained minimum from above.

A descent runs only on ``domain.collar_over(u.base, ...)``, the trace
base's own axes then depth; any other domain is a ``ParameterError``.

Every descent has one step rule, whatever its target, p, penalty or
base.  It starts from the exact analytic gradient g of the discrete
objective, with the bottom row's gradient zeroed, and steps along the
projected Sobolev gradient d = P_T (K + sigma V)^-1 P_T g (Neuberger,
*Sobolev Gradients and Differential Equations*, LNM 1670; Alouges, SIAM
J. Numer. Anal. 34 (1997)): P_T is the projection onto the tangent space
of a circle or sphere target at the iterate and the identity on a
Euclidean one, K the p = 2 Hessian, a fixed metric for every p, and
sigma = 2 / eps^2, the penalty's normal curvature at its target, for a
penalized descent and 0 otherwise.  It tries t = 1 at every iteration,
halves a rejected step and accepts v - t d, projected onto the target,
when the objective falls by at least 1e-4 t <g, d>.  Every trial point
gets the boundary data copied into its bottom row, so it stays
bit-identical throughout.  ``MinimizeResult.backtracks`` counts the
rejected trial steps, those whose projection hit the origin included.

Each point is evaluated once.  A trial point's objective computes the
cell |DU|^2 through ``energy._streamed_grad_sq``, the one Dirichlet cell
kernel; when the point is accepted, the next gradient reuses that
|DU|^2 and takes each axis' forward difference afresh, and
``MinimizeResult.energy`` is the last accepted objective.  A descent
holds no full-size differences: the gradient writes each axis' into one
reused buffer.  The descent builds every trial point in one
buffer it allocates once.  The gradient and the energy are the bits the
two-pass roll-and-broadcast formulas gave, because every entry is
computed from the same operands in the same order.  If 30 halvings
accept no trial step, the descent stops with ``converged=False`` at the
last accepted iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import DomainSpec, collar_over, depth_node_count, wrap
from .energy import (
    PenaltySpec,
    _cell_volume,
    _check_p,
    _dirichlet_gradient,
    _dirichlet_sum,
    _penalty_sum,
    _streamed_grad_sq,
    dirichlet_p_energy,
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
# sigma eps^2 of a penalized descent: 2, the penalty's normal
# curvature at its target, rather than 1.  With 2 an S^2-valued
# 24^2 x 25 torus collar at eps 0.25 took 9 iterations instead of 31,
# and each of criterion 08's six descents 2 instead of up to 74.  Only a
# 128 x 32 cylinder at eps 0.25 took more, 44 instead of 27: its
# minimizer moves mostly along the circle, where the penalty has no
# curvature.
_SHIFT = 2.0


@dataclass(frozen=True)
class MinimizeConfig:
    """Optimizer knobs.

    ``tol`` stops the loop once the relative energy decrease of an
    accepted step falls below it.
    """

    p: float = 2.0
    max_iterations: int = 500
    tol: float = 1e-8

    def __post_init__(self) -> None:
        _check_p(self.p)
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be positive")
        if not (self.tol > 0.0 and np.isfinite(self.tol)):
            raise ParameterError(f"tolerance must be positive and finite, got {self.tol}")

    @property
    def projection(self) -> str:
        """Always ``"auto"``: a descent projects onto the target it is given.

        Not a setting; kept read-only because the benchmark reads it.
        """
        return "auto"


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
    about the computed resolutions only.  ``converged`` holds each
    triple's ``MinimizeResult.converged``, in the order of ``triples``.
    """

    triples: tuple[tuple[float, float, float], ...]
    bounded_in_eps: bool
    converged: tuple[bool, ...]


# -------------------------------------------------------------- gradient

def dirichlet_gradient(m: GridMap, p: float) -> np.ndarray:
    """Exact gradient of the discrete p-Dirichlet energy in the node values.

    Looks ``_dirichlet_gradient`` up in this module, so a patched kernel
    here is the one this function and the descent both run.
    """
    p = _check_p(p)
    values = np.asarray(m.values)
    return _dirichlet_gradient(values, _streamed_grad_sq(values, m.domain), m.domain, p)


# --------------------------------------------------------- stiffness solve

def _collar_stiffness_solve(domain: DomainSpec, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (K + shift V) x = rhs on the free rows of a collar.

    K is the Hessian of the p = 2 Dirichlet cell sum, V the node volumes
    (``node_volumes``); the bottom row is pinned, so ``rhs``'s row 0 is
    not read and ``x``'s row 0 is zero.  ``rhs`` has the collar's shape
    plus a component axis, and every component is solved at once.

    Over a periodic base, K is 2 |cell| times the sum of two parts: the
    base's periodic second differences / h_a^2 on every row below the top
    (cells anchor at their low corner, so the top row has no base edges),
    and the depth second difference / h_t^2 with the pinned bottom and a
    free top.  V is |cell| on the rows below the top and |cell| / 2 on
    it.  Every coefficient is constant along the base axes, so ``rfftn``
    over them diagonalises the operator: mode k with base eigenvalue
    lam_k = sum_a (2 - 2 cos(2 pi k_a / n_a)) / h_a^2 leaves one
    tridiagonal system in depth, which divided by 2 |cell| / h_t^2 has
    off-diagonal -1, diagonal 2 + h_t^2 lam_k + shift h_t^2 / 2 below the
    top and 1 + shift h_t^2 / 4 on it.  One Thomas sweep over the rows,
    vectorised over the modes and components, and the inverse FFT give x
    (Hockney, J. ACM 12 (1965)): O(N log N) time for N nodes.

    An interval base axis of n nodes is mirrored into a periodic axis of
    2n nodes, solved and cropped.  On even vectors the periodic second
    difference is the path Laplacian, so this is the cosine transform
    of the separable operator with that axis' path Laplacian and the
    constant mass above.  There it is a preconditioner, not an exact
    solve: the cell sum's edges along one axis skip the last layer of
    each interval axis, and V halves there.  A node on the last layer of
    two interval axes, the depth axis' top row counted as one, is read
    by no cell: the top-row nodes on an interval axis' last layer, and a
    square base's corner column.  A step moves them while no Dirichlet
    energy changes.
    """
    base, depth = domain.axes[:-1], domain.axes[-1]
    h_t = depth.spacing
    load = rhs[..., 1:, :]
    counts = [axis.count if axis.periodic else 2 * axis.count for axis in base]
    lam = np.zeros(())
    for a, (axis, n) in enumerate(zip(base, counts)):
        if not axis.periodic:
            load = np.concatenate([load, np.flip(load, axis=a)], axis=a)
        # rfftn keeps the non-negative half of the last axis' modes
        k = np.arange(n // 2 + 1 if a == len(base) - 1 else n)
        second_difference = 2.0 - 2.0 * np.cos(2.0 * math.pi * k / n)
        lam = np.add.outer(lam, second_difference / axis.spacing**2)
    interior = 2.0 + h_t**2 * lam + 0.5 * shift * h_t**2
    top = 1.0 + 0.25 * shift * h_t**2

    axes = tuple(range(len(base)))
    swept = np.fft.rfftn(load, axes=axes)
    swept *= h_t**2 / (2.0 * _cell_volume(domain))
    # forward sweep, in place: inv[r] is 1 / (pivot of free row r), which
    # holds depth r + 1
    n_free = depth.count - 1
    inv = np.empty((n_free,) + lam.shape)
    above = 0.0
    for r in range(n_free):
        inv[r] = above = 1.0 / ((top if r == n_free - 1 else interior) - above)
        if r > 0:
            swept[..., r, :] += swept[..., r - 1, :]
        swept[..., r, :] *= inv[r][..., None]
    # back substitution, in place: the swept loads become x's modes
    for r in range(n_free - 2, -1, -1):
        swept[..., r, :] += inv[r][..., None] * swept[..., r + 1, :]
    free = np.fft.irfftn(swept, s=counts, axes=axes)
    x = np.zeros_like(rhs)
    x[..., 1:, :] = free[tuple(slice(axis.count) for axis in base)]
    return x


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

    Every descent steps along d = P_T (K + sigma V)^-1 P_T g, the
    projected Sobolev gradient of ``_collar_stiffness_solve``: P_T(x) =
    x - (x . v) v at each node of the iterate v on a circle or sphere
    target, the identity on a Euclidean one, and sigma = ``_SHIFT`` /
    eps^2 for a penalized descent, 0 otherwise.  The solve is the p = 2
    Hessian, a fixed metric for every p.  A trial point v - t d is
    projected onto ``target``, which leaves it as it is on a Euclidean
    target; t starts at 1 and halves on a rejected trial.
    """
    _check_collar(u, domain)
    p = cfg.p
    n_depth = domain.shape[-1]
    bottom = np.array(u.values)
    values = np.repeat(bottom[..., None, :], n_depth, axis=-2)
    vols = node_volumes(domain)
    shift = 0.0 if penalty is None else _SHIFT / penalty.eps**2

    def evaluate(v: np.ndarray) -> tuple[float, np.ndarray]:
        # the objective, with the cell |DU|^2 that the gradient at v reuses
        s = _streamed_grad_sq(v, domain)
        return _dirichlet_sum(s, domain, p) + _penalty_sum(v, vols, penalty), s

    def gradient(v: np.ndarray, s: np.ndarray) -> np.ndarray:
        g = _dirichlet_gradient(v, s, domain, p)
        if penalty is not None:
            g += penalty.gradient(v, vols)
        g[..., 0, :] = 0.0  # bottom row pinned
        return g

    def tangential(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # P_T x in place: the tangent part at v of a circle or sphere
        if target.constrained:
            x -= np.sum(x * v, axis=-1)[..., None] * v
        return x

    energy, s = evaluate(values)
    if not np.isfinite(energy):
        raise OptimizationError("initial energy is not finite")
    converged = False
    grad_sup = float("inf")
    iterations = 0
    backtracks = 0

    # reused buffer: values - t * direction (the candidate itself on a
    # Euclidean target)
    step = np.empty_like(values)

    for it in range(cfg.max_iterations):
        grad = gradient(values, s)
        # the max of |grad| is NaN or infinite exactly when some entry is
        grad_sup = float(np.max(np.abs(grad)))
        if not math.isfinite(grad_sup):
            raise OptimizationError(f"gradient not finite at iteration {it}")
        if grad_sup == 0.0:
            converged = True
            break
        direction = tangential(
            _collar_stiffness_solve(domain, shift, tangential(grad, values)), values
        )
        # grad holds P_T g now, and <P_T g, d> = <g, d> for a tangent d
        slope = float(np.vdot(grad, direction))

        accepted = False
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            np.multiply(direction, t, out=step)
            try:
                candidate = project_to_target(target, np.subtract(values, step, out=step))
            except SingularityError:
                t *= 0.5
                backtracks += 1
                continue
            candidate[..., 0, :] = bottom
            cand_energy, cand_s = evaluate(candidate)
            if math.isfinite(cand_energy) and cand_energy <= energy - _ARMIJO * t * slope:
                accepted = True
                break
            t *= 0.5
            backtracks += 1

        if not accepted:
            # 30 halvings found no acceptable step: a stall, not a
            # stationary point
            break

        drop = energy - cand_energy
        if candidate is step:
            step = values  # the old iterate becomes the next buffer
        values, energy, s = candidate, cand_energy, cand_s
        iterations = it + 1
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
    converged: list[bool] = []
    for depth, domain in collars:
        for eps, penalty in penalties:
            try:
                result = minimize_penalized_detailed(u, penalty, domain, cfg)
            except OptimizationError as exc:
                raise OptimizationError(
                    f"sweep point eps={eps} depth={depth}: {exc}"
                ) from exc
            triples.append((eps, depth, result.energy))
            converged.append(result.converged)

    by_depth: dict[float, dict[float, float]] = {}
    for eps, depth, energy in triples:
        by_depth.setdefault(depth, {})[eps] = energy
    # smallest-eps energy against the largest-eps one, above an absolute floor
    bounded = all(row[min(row)] <= max(2.0 * row[max(row)], 1e-9) for row in by_depth.values())
    return SweepResult(
        triples=tuple(triples), bounded_in_eps=bounded, converged=tuple(converged)
    )


# ---------------------------------------------------------- lifting oracle

def circle_lifting_oracle(
    u: TraceMap, domain: DomainSpec
) -> tuple[GridMap, float]:
    """Reference p = 2 extension of circle-valued data via its lifting.

    Unwraps the boundary angles (adjacent jumps must stay below pi),
    splits off the winding part, solves the scalar harmonic problem with
    pinned bottom and free top exactly (``_collar_stiffness_solve``
    without a shift), and returns the wrapped harmonic map with its own
    Dirichlet cell sum, ``dirichlet_p_energy(lifted, 2.0).value``.  That
    map satisfies the constraint, so its energy bounds the discrete
    constrained minimum from above; it lies O(h^4) from it, while the
    lifting's own cell sum lies O(h^2) above (every chord is shorter than
    its arc).
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

    # scalar harmonic extension of psi: the cell sum of the lifting is
    # minimal over the free rows where K psi = 0, K the p = 2 Hessian of
    # ``_collar_stiffness_solve``.  Only row 1 couples to the pinned
    # bottom, through its depth edge, so the free rows solve K x = r with
    # r = 2 |cell| / h_t^2 psi_bottom on row 1 and zero elsewhere.
    load = np.zeros((n, n_t, 1))
    load[:, 1, 0] = 2.0 * _cell_volume(domain) / h_t**2 * psi_bottom
    psi = _collar_stiffness_solve(domain, 0.0, load)[..., 0]
    psi[:, 0] = psi_bottom

    full_phi = degree * theta[:, None] + psi
    wrapped = np.stack([np.cos(full_phi), np.sin(full_phi)], axis=-1)
    lifted = GridMap(domain=domain, target=u.target, values=wrapped)
    return lifted, dirichlet_p_energy(lifted, 2.0).value
