"""Discrete energies of node-sampled maps.

Three functionals are provided.

* ``dirichlet_p_energy``: sum over grid cells of |DU|^p times the cell
  volume, where DU is the forward-difference Jacobian anchored at the
  low corner of the cell and |.| is the Frobenius norm.
* ``gagliardo_energy``: double sum over node pairs of
  |u(x)-u(y)|^p / d(x,y)^(s p + d) weighted by both node quadrature
  weights.  d(x,y) is the geodesic distance of the base (arc length on
  circles, minimum-image on tori, Euclidean on intervals and squares).
  The x = y pairs are included through their one-sided difference-quotient
  limit so the quadrature stays consistent when s p + d <= p; see
  ``_diagonal_completion``.
* ``penalized_energy``: the Dirichlet term plus a node-quadrature sum of
  a pointwise penalty F(U) = dist(U, N)^power / eps^power.

The pair sum is evaluated in offset form.  On a product grid the kernel
d^-(s p + d) depends only on the index offset between two nodes, taken
circularly on periodic axes and over (-n, n) on interval axes, so it is
tabulated once on an offset grid (``_offset_kernel``) and the sum runs
exactly, offset by offset, each unordered offset pair {o, -o} once, for
every p: O(N^2) time, with every temporary at O(N) entries times the
number of components.  The result is deterministic: the same input gives
the same bits on every run.

Node quadrature weights are trapezoidal along interval axes (half weight
at the two ends) and uniform along periodic axes, so constants integrate
to the exact domain volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import DomainSpec
from .errors import ParameterError
from .gridmap import GridMap, TraceMap
from .target import TargetSpec, distance_to_target


@dataclass(frozen=True)
class EnergyReport:
    value: float
    p: float
    s: Optional[float]
    resolution: tuple[int, ...]
    quadrature: str


@dataclass(frozen=True)
class PenaltySpec:
    """Pointwise penalty dist(., reference)^power / eps^power.

    ``kind`` is "none" (no penalty) or "distance_power".
    """

    kind: str
    eps: float = 1.0
    power: float = 2.0
    reference: Optional[TargetSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "distance_power"):
            raise ParameterError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "distance_power":
            if not (self.eps > 0.0 and np.isfinite(self.eps)):
                raise ParameterError(f"penalty eps must be positive, got {self.eps}")
            if not (self.power > 0.0):
                raise ParameterError(f"penalty power must be positive, got {self.power}")
            if self.reference is None:
                raise ParameterError("distance_power penalty needs a reference target")

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return np.zeros(values.shape[:-1])
        dist = distance_to_target(self.reference, values)
        return dist**self.power / self.eps**self.power


def no_penalty() -> PenaltySpec:
    return PenaltySpec(kind="none")


def distance_penalty(eps: float, power: float, reference: TargetSpec) -> PenaltySpec:
    return PenaltySpec(kind="distance_power", eps=eps, power=power, reference=reference)


def _check_p(p: float) -> float:
    p = float(p)
    if not (p > 1.0 and np.isfinite(p)):
        raise ParameterError(f"exponent p must satisfy p > 1, got {p}")
    return p


def node_weights(domain: DomainSpec) -> list[np.ndarray]:
    """Per-axis quadrature weights; their outer product sums to the volume."""
    weights = []
    for axis in domain.axes:
        h = axis.spacing
        w = np.full(axis.count, h)
        if not axis.periodic:
            w[0] = 0.5 * h
            w[-1] = 0.5 * h
        weights.append(w)
    return weights


def node_volumes(domain: DomainSpec) -> np.ndarray:
    vols = node_weights(domain)
    out = vols[0]
    for w in vols[1:]:
        out = np.multiply.outer(out, w)
    return out


def _cells(domain: DomainSpec) -> tuple[slice, ...]:
    """Index of the cells, each anchored at its low-corner node."""
    return tuple(slice(0, ax.cell_count) for ax in domain.axes)


def _cell_volume(domain: DomainSpec) -> float:
    return float(np.prod([ax.spacing for ax in domain.axes]))


def _grad_sq(values: np.ndarray, domain: DomainSpec) -> np.ndarray:
    cells = _cells(domain)
    total = None
    for a, axis in enumerate(domain.axes):
        diff = (np.roll(values, -1, axis=a) - values) / axis.spacing
        contrib = np.sum(diff[cells + (slice(None),)] ** 2, axis=-1)
        total = contrib if total is None else total + contrib
    return total


def _dirichlet_sum(values: np.ndarray, domain: DomainSpec, p: float) -> float:
    return float(np.sum(_grad_sq(values, domain) ** (p / 2.0)) * _cell_volume(domain))


def _penalty_sum(values: np.ndarray, vols: np.ndarray, penalty: PenaltySpec) -> float:
    """Node-quadrature sum of the penalty; ``vols`` is ``node_volumes``."""
    if penalty.kind == "none":
        return 0.0
    return float(np.sum(penalty.evaluate(values) * vols))


def cell_gradient_sq(m: GridMap | TraceMap) -> np.ndarray:
    """Squared Frobenius norm of the forward-difference Jacobian per cell."""
    return _grad_sq(m.values, m.domain)


def dirichlet_p_energy(m: GridMap | TraceMap, p: float) -> EnergyReport:
    p = _check_p(p)
    return EnergyReport(
        value=_dirichlet_sum(m.values, m.domain, p),
        p=p,
        s=None,
        resolution=m.domain.shape,
        quadrature="forward_difference_cells",
    )


def _diagonal_completion(u: TraceMap, s: float, p: float) -> np.ndarray:
    """Limit value of the pair integrand at x = y via one-sided quotients.

    For s p + d = p this is the exact finite limit |Du|^p of the kernel on
    smooth data; elsewhere it is a consistent near-field proxy whose total
    contribution vanishes with the grid.
    """
    base = u.base
    d = base.ndim
    exponent = s * p + d
    vals = u.values
    per_axis = []
    for a, axis in enumerate(base.axes):
        forward = np.roll(vals, -1, axis=a)
        if not axis.periodic:
            forward = np.array(forward)
            # last node has no forward neighbour; use the backward one
            last: list = [slice(None)] * vals.ndim
            prev: list = [slice(None)] * vals.ndim
            last[a] = axis.count - 1
            prev[a] = axis.count - 2
            forward[tuple(last)] = vals[tuple(prev)]
        jump = np.linalg.norm(forward - vals, axis=-1)
        per_axis.append(jump**p / axis.spacing**exponent)
    return np.mean(per_axis, axis=0).reshape(-1)


def _offset_kernel(base: DomainSpec, exponent: float) -> np.ndarray:
    """Pair kernel d^-exponent on the offset grid, zero where no pair exists.

    A periodic axis of n nodes has the n circular offsets; an interval
    axis has 2n slots, slot j < n holding offset j and slot j > n offset
    j - 2n.  On both, slot j lies h min(j, m - j) from the origin (m the
    axis' slot count) and slot (-j) mod m holds the opposite offset.  The
    origin and the unused interval slot n are put at infinite distance.
    """
    sq = np.zeros(())
    for axis in base.axes:
        m = axis.count if axis.periodic else 2 * axis.count
        j = np.arange(m)
        length = axis.spacing * np.minimum(j, m - j)
        if not axis.periodic:
            length[axis.count] = np.inf  # no two nodes are n apart
        sq = np.add.outer(sq, length**2)
    sq[(0,) * base.ndim] = np.inf  # same-node pairs: ``_diagonal_completion``
    return sq ** (-0.5 * exponent)


def _offset_pair_sum(
    vals: np.ndarray, base: DomainSpec, kernel: np.ndarray, p: float
) -> float:
    """Off-diagonal pair sum, exactly, one offset at a time.

    Offsets o and -o give equal sums, so each unordered pair {o, -o} is
    summed once and doubled; offsets equal to their own opposite (n/2 on
    an even periodic axis) count once.
    """
    grid = kernel.shape
    slot = np.arange(kernel.size)
    opposite = np.ravel_multi_index(
        tuple((-j) % m for j, m in zip(np.unravel_index(slot, grid), grid)), grid
    )
    keep = (kernel.reshape(-1) > 0.0) & (slot <= opposite)
    # periodic axes are wrapped once, so every partner block is a slice
    wrap = [axis.count if axis.periodic else 0 for axis in base.axes]
    comps = np.moveaxis(vals, -1, 0)
    wrapped = np.pad(comps, [(0, 0)] + [(0, k) for k in wrap], mode="wrap")
    weights = node_weights(base)
    wrapped_weights = [np.pad(wa, (0, k), mode="wrap") for wa, k in zip(weights, wrap)]
    total = 0.0
    for flat in slot[keep]:
        index = np.unravel_index(flat, grid)
        here, there, pair_weights = [slice(None)], [slice(None)], []
        for axis, j, wa, wb in zip(base.axes, index, weights, wrapped_weights):
            n = axis.count
            if axis.periodic:
                lo, hi = slice(0, n), slice(j, j + n)
            else:
                o = j if j < n else j - 2 * n
                lo, hi = slice(max(0, -o), n - max(0, o)), slice(max(0, o), n + min(0, o))
            here.append(lo)
            there.append(hi)
            pair_weights.append(wa[lo] * wb[hi])
        diff = comps[tuple(here)] - wrapped[tuple(there)]
        term = np.einsum("c...,c...->...", diff, diff) ** (0.5 * p)
        for wp in reversed(pair_weights):
            term = term @ wp
        factor = 1.0 if flat == opposite[flat] else 2.0
        total += factor * float(kernel[index]) * float(term)
    return total


def gagliardo_energy(u: TraceMap, s: float, p: float) -> EnergyReport:
    p = float(p)
    if not (p >= 1.0 and np.isfinite(p)):
        raise ParameterError(f"pair-sum energy needs p >= 1, got {p}")
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ParameterError(f"fractional order s must lie in (0,1), got {s}")
    base = u.base
    d = base.ndim
    if d > 2:
        raise ParameterError(f"pair-sum energy supports base dimension 1 or 2, got {d}")
    kernel = _offset_kernel(base, s * p + d)
    w = node_volumes(base)
    total = _offset_pair_sum(u.values, base, kernel, p)
    total += float(np.sum(w.reshape(-1) ** 2 * _diagonal_completion(u, s, p)))
    return EnergyReport(
        value=total,
        p=p,
        s=s,
        resolution=base.shape,
        quadrature="node_pairs_diagonal_completed",
    )


def penalty_total(m: GridMap | TraceMap, penalty: PenaltySpec) -> float:
    return _penalty_sum(m.values, node_volumes(m.domain), penalty)


def penalized_energy(m: GridMap | TraceMap, p: float, penalty: PenaltySpec) -> EnergyReport:
    p = _check_p(p)
    if penalty.kind != "none" and m.target.constrained:
        raise ParameterError(
            "penalized maps are unconstrained; use a Euclidean ambient target"
        )
    base_report = dirichlet_p_energy(m, p)
    value = base_report.value + penalty_total(m, penalty)
    return EnergyReport(
        value=value,
        p=p,
        s=None,
        resolution=m.domain.shape,
        quadrature="forward_difference_cells+node_trapezoid",
    )
