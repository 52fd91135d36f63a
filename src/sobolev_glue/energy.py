"""Discrete energies of node-sampled maps, with the descent's exact gradients.

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

This module owns the value and the exact gradient of each functional
that ``minimize`` descends: ``_dirichlet_sum`` with
``_dirichlet_gradient``, and ``PenaltySpec.evaluate`` with
``PenaltySpec.gradient``.

The pair sum is evaluated in offset form.  On a product grid the kernel
d^-(s p + d) depends only on the index offset between two nodes, taken
circularly on periodic axes and over (-n, n) on interval axes, so it is
tabulated once on an offset grid (``_offset_kernel``) and the sum runs
exactly, offset by offset, each unordered offset pair {o, -o} once, for
every p: O(N^2) time, with every temporary at O(N) entries times the
number of components.  The result is deterministic: the same input gives
the same bits on every run.

The energy entry points stream the Dirichlet sum: ``_streamed_grad_sq``
builds the cell |DU|^2 one (axis, component) difference at a time, so
``dirichlet_p_energy`` and ``penalized_energy`` hold the map plus three
cell-shaped arrays, plus three node arrays for a penalty, whose terms
are computed in place.  The descent builds the same sum in two steps,
because its gradient reuses the differences: ``_forward_differences``
takes the full-size undivided differences roll(U, -1, a) - U along every
axis and ``_grad_sq`` sums their squares over the 2 or 3 components.
Both write through slices instead of calling ``np.roll``: every
difference, the gradient's roll(t, 1, a) - t included, is a slice
subtraction plus the wrapped layer (``_wrap_difference``), and the
scaled differences are squared in place.  The components are added one
at a time in the order ``np.add.reduce`` uses for short axes
(``target.sum_of_squares``), so every result has the bits of the
roll-and-reduce formulas at a fraction of their cost.  A streamed
descent keeps the bits too, but it is slower: its gradient would take
every difference a second time.

Node quadrature weights are trapezoidal along interval axes (half weight
at the two ends) and uniform along periodic axes, so constants integrate
to the exact domain volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .domain import DomainSpec
from .errors import ParameterError
from .gridmap import GridMap, TraceMap
from .target import TargetSpec, distance_to_target, sum_of_squares


@dataclass(frozen=True)
class EnergyReport:
    value: float


@dataclass(frozen=True)
class PenaltySpec:
    """Pointwise penalty dist(., reference)^power / eps^power.

    The reference is the unit circle or a unit sphere, so ``gradient``
    differentiates the distance to the unit sphere.  Functions that take
    an ``Optional[PenaltySpec]`` read ``None`` as no penalty.
    """

    eps: float
    power: float
    reference: TargetSpec

    def __post_init__(self) -> None:
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise ParameterError(f"penalty eps must be positive, got {self.eps}")
        if not (self.power > 0.0 and np.isfinite(self.power)):
            raise ParameterError(f"penalty power must be positive and finite, got {self.power}")
        if not self.reference.constrained:
            raise ParameterError(
                f"penalty reference must be a circle or sphere, got {self.reference.kind!r}"
            )

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        dist = distance_to_target(self.reference, values)
        dist **= self.power
        dist /= self.eps**self.power
        return dist

    def gradient(self, values: np.ndarray, vols: np.ndarray) -> np.ndarray:
        """Exact gradient of the node-quadrature sum ``_penalty_sum``.

        Zero where the distance is zero (power <= 1 has no derivative
        there) and at the origin, where the nearest point is undefined.
        """
        norms = np.sqrt(sum_of_squares(values))
        dist = np.abs(norms - 1.0)
        q = self.power
        mag = q * np.where(dist > 0.0, dist, 1.0) ** (q - 1.0)
        mag = np.where(dist > 0.0, mag, 0.0) / self.eps**q
        safe = np.where(norms > 0.0, norms, 1.0)
        direction = values * (np.sign(norms - 1.0) / safe)[..., None]
        direction[norms == 0.0] = 0.0
        return (vols * mag)[..., None] * direction


def distance_penalty(eps: float, power: float, reference: TargetSpec) -> PenaltySpec:
    return PenaltySpec(eps=eps, power=power, reference=reference)


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
    # left to right, the order in which np.prod multiplies so few factors
    return math.prod(ax.spacing for ax in domain.axes)


_FIRST, _LAST = slice(None, 1), slice(-1, None)


def _layer(axis: int, layer: slice) -> tuple[slice, ...]:
    """Index of the layers ``layer`` along ``axis`` (``_FIRST``, ``_LAST`` or a range)."""
    return (slice(None),) * axis + (layer,)


def _wrap_difference(v: np.ndarray, a: int, shift: int, out: np.ndarray) -> None:
    """Write ``roll(v, shift, a) - v`` on the layer along ``a`` that wraps.

    That is the last layer for shift -1 and the first for shift 1; its
    partner is the layer at the other end.
    """
    wrap, partner = (_LAST, _FIRST) if shift == -1 else (_FIRST, _LAST)
    np.subtract(v[_layer(a, partner)], v[_layer(a, wrap)], out=out[_layer(a, wrap)])


def _roll_difference(v: np.ndarray, a: int, shift: int, out: np.ndarray) -> np.ndarray:
    """Write ``roll(v, shift, a) - v`` into the C-ordered ``out``; shift is -1 or 1.

    Two slice subtractions instead of ``np.roll``.  One step along axis a
    is k entries apart in C order, so v[i - shift k] - v[i] over the
    flattened array is the difference at every node off the layer that
    wraps; ``_wrap_difference`` then writes that layer's wrapped
    difference over the pairs that ran into the next row.  Every entry
    subtracts the operands ``np.roll`` would pair, so the bits are the
    same.
    """
    k = math.prod(v.shape[a + 1 :])
    ahead, behind = slice(k, None), slice(None, -k)
    src, dst = (ahead, behind) if shift == -1 else (behind, ahead)
    flat = v.reshape(-1)
    np.subtract(flat[src], flat[dst], out=out.reshape(-1)[dst])
    _wrap_difference(v, a, shift, out)
    return out


def _forward_differences(values: np.ndarray, domain: DomainSpec) -> Iterator[np.ndarray]:
    """Undivided forward differences ``roll(v, -1, a) - v``, one per axis.

    Made on demand, so ``_diagonal_completion`` holds one at a time; the
    descent keeps them in a list for its gradient.  Full-size C-ordered
    arrays: on interval axes the last layer wraps around and is never
    read, because no cell is anchored there.
    """
    for a in range(domain.ndim):
        yield _roll_difference(values, a, -1, np.empty_like(values, order="C"))


def _squares_summed(q: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis; squares ``q`` in place.

    Adds the 2 or 3 components in ``target.sum_of_squares``' order, so
    the result has the bits of ``np.sum(q**2, axis=-1)``.
    """
    np.multiply(q, q, out=q)
    nu = q.shape[-1]
    total = q[..., 0] + q[..., 1] if nu > 1 else q[..., 0]
    for c in range(2, nu):
        total += q[..., c]
    return total


def _grad_sq(diffs: Iterable[np.ndarray], domain: DomainSpec) -> np.ndarray:
    """|DU|^2 per cell from the forward differences of its low corner.

    Sums ``_squares_summed(diff[cells] / h)`` over the axes in order, for
    the callers that keep the differences: the descent, its gradient and
    the lifting oracle.  ``_streamed_grad_sq`` gives the same bits without
    them.
    """
    cells = _cells(domain)
    total = None
    for diff, axis in zip(diffs, domain.axes):
        contrib = _squares_summed(diff[cells] / axis.spacing)
        if total is None:
            total = contrib
        else:
            total += contrib
    return total


def _streamed_grad_sq(values: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """|DU|^2 per cell, one (axis, component) pair at a time.

    Holds three cell-shaped arrays: the total, one axis' contribution and
    one component's difference roll(v, -1, a) - v over the cells, which
    is one slice subtraction, plus ``_wrap_difference`` on a periodic
    axis.  Each difference is divided by h and squared in place, the
    components are added into the contribution in order and the
    contributions into the total in axis order: the operands and the
    order of ``_grad_sq``, so the same bits.
    """
    cells = _cells(domain)
    total = np.empty(tuple(ax.cell_count for ax in domain.axes))
    contrib = np.empty_like(total)
    diff = np.empty_like(total)
    for a, axis in enumerate(domain.axes):
        # every node along a, the cells along every other axis
        across = cells[:a] + (slice(None),) + cells[a + 1 :]
        ahead, body = _layer(a, slice(1, None)), _layer(a, slice(None, axis.count - 1))
        acc = total if a == 0 else contrib
        for c in range(values.shape[-1]):
            v = values[..., c][across]
            out = acc if c == 0 else diff
            np.subtract(v[ahead], v[body], out=out[body])
            if axis.periodic:
                _wrap_difference(v, a, -1, out)
            out /= axis.spacing
            np.multiply(out, out, out=out)
            if c > 0:
                acc += diff
        if a > 0:
            total += contrib
    return total


def _dirichlet_sum(s: np.ndarray, domain: DomainSpec, p: float) -> float:
    """Cell sum of |DU|^p from ``s`` = |DU|^2 per cell; p = 2 sums ``s`` itself."""
    total = np.sum(s) if p == 2.0 else np.sum(s ** (p / 2.0))
    return float(total * _cell_volume(domain))


def _dirichlet_gradient(
    diffs: list[np.ndarray], s: np.ndarray, domain: DomainSpec, p: float
) -> np.ndarray:
    """Exact gradient of ``_dirichlet_sum`` from the forward differences and ``s``.

    Each axis adds roll(t, 1, a) - t for t = w diff / h^2, the cell weight
    w = |DU|^(p-2) multiplied into each component separately.
    """
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
    back = np.empty_like(grad, order="C")
    for a, (diff, axis) in enumerate(zip(diffs, domain.axes)):
        for c in range(t.shape[-1]):
            np.multiply(w_full, diff[..., c], out=t[..., c])
        t /= axis.spacing**2
        grad += _roll_difference(t, a, 1, back)
    grad *= p * _cell_volume(domain)
    return grad


def _penalty_sum(
    values: np.ndarray, vols: np.ndarray, penalty: Optional[PenaltySpec]
) -> float:
    """Node-quadrature sum of the penalty; ``vols`` is ``node_volumes``."""
    if penalty is None:
        return 0.0
    terms = penalty.evaluate(values)
    terms *= vols
    return float(np.sum(terms))


def dirichlet_p_energy(m: GridMap, p: float) -> EnergyReport:
    p = _check_p(p)
    return EnergyReport(value=_dirichlet_sum(_streamed_grad_sq(m.values, m.domain), m.domain, p))


def _diagonal_completion(u: TraceMap, s: float, p: float) -> np.ndarray:
    """Limit value of the pair integrand at x = y via one-sided quotients.

    For s p + d = p this is the exact finite limit |Du|^p of the kernel on
    smooth data; elsewhere it is a consistent near-field proxy whose total
    contribution vanishes with the grid.
    """
    base = u.base
    exponent = s * p + base.ndim
    per_axis = []
    for a, (diff, axis) in enumerate(zip(_forward_differences(u.values, base), base.axes)):
        if not axis.periodic:
            # last node has no forward neighbour; use the backward one,
            # the layer before's difference up to a sign
            diff[_layer(a, _LAST)] = diff[_layer(a, slice(-2, -1))]
        jump = np.sqrt(sum_of_squares(diff))
        per_axis.append(jump**p / axis.spacing**exponent)
    return np.mean(per_axis, axis=0).reshape(-1)


def _offset_kernel(base: DomainSpec, exponent: float) -> np.ndarray:
    """Pair kernel d^-exponent on the offset grid, zero where no pair exists.

    A periodic axis of n nodes has the n circular offsets; an interval
    axis has 2n - 1 slots for the offsets -(n - 1) .. n - 1, slot j < n
    holding offset j and slot j >= n offset j - (2n - 1).  On both, slot
    j lies h min(j, m - j) from the origin (m the axis' slot count) and
    slot (-j) mod m holds the opposite offset.  Only the origin is put at
    infinite distance.
    """
    sq = np.zeros(())
    for axis in base.axes:
        m = axis.count if axis.periodic else 2 * axis.count - 1
        j = np.arange(m)
        length = axis.spacing * np.minimum(j, m - j)
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
                o = j if j < n else j - (2 * n - 1)
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
    return EnergyReport(value=total)


def penalty_total(m: GridMap, penalty: Optional[PenaltySpec]) -> float:
    return _penalty_sum(m.values, node_volumes(m.domain), penalty)


def penalized_energy(
    m: GridMap, p: float, penalty: Optional[PenaltySpec]
) -> EnergyReport:
    """Dirichlet energy plus the penalty; ``penalty=None`` adds nothing."""
    p = _check_p(p)
    if penalty is not None and m.target.constrained:
        raise ParameterError(
            "penalized maps are unconstrained; use a Euclidean ambient target"
        )
    return EnergyReport(value=dirichlet_p_energy(m, p).value + penalty_total(m, penalty))
