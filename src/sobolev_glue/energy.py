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
from .gridmap import GridMap, TraceMap, node_mesh
from .target import TargetSpec, distance_to_target

#: row block size for the pairwise double sum; fixed so reductions are
#: bit-reproducible run to run
_PAIR_BLOCK = 256


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


def _pair_distances(base: DomainSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Geodesic distances between two point sets on the base, (len(xs), len(ys))."""
    out = np.zeros((xs.shape[0], ys.shape[0]))
    for a, axis in enumerate(base.axes):
        delta = np.abs(xs[:, None, a] - ys[None, :, a])
        if axis.periodic:
            delta = np.minimum(delta, axis.length - delta)
        out += delta**2
    return np.sqrt(out)


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
    exponent = s * p + d
    pts = node_mesh(base)
    n = pts.shape[0]
    vals = u.values.reshape(n, u.nu)
    w = node_volumes(base).reshape(-1)
    total = 0.0
    for start in range(0, n, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n)
        diff = np.linalg.norm(vals[start:stop, None, :] - vals[None, :, :], axis=-1)
        dist = _pair_distances(base, pts[start:stop], pts)
        rows = np.arange(start, stop)
        dist[rows - start, rows] = 1.0  # diagonal handled separately
        kern = diff**p / dist**exponent
        kern[rows - start, rows] = 0.0
        total += float(np.sum(w[start:stop, None] * w[None, :] * kern))
    total += float(np.sum(w**2 * _diagonal_completion(u, s, p)))
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
