"""Folding two extensions with matching bottom traces into one.

The fold acts on the last two coordinates (x1, x2) of a square or cube
grid; any leading periodic factor rides along untouched.  The unit square
splits into three regions:

* ``FROM_FIRST``    x1 <= x2/2:      value of the first map at (2 x1, x2 - 2 x1)
* ``REFLECTED``     x2/2 < x1 <= x2: value of the second map at (x2, 2 x1 - x2)
* ``COPIED``        x2 < x1:         the second map's own value

Ties sit with the earlier region.  The folded map keeps the second map's
bottom trace at nodes, keeps the first map's x1 = 0 face and the second
map's x1 = 1 face, and its p-energy is controlled by the largest singular
values of the two affine substitutions, computed in closed form below and
cross-checked against an SVD oracle in the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .energy import dirichlet_p_energy
from .errors import DomainError, ParameterError, PreconditionError
from .gridmap import GridMap, evaluate_batch, extract_trace, node_mesh
from .target import project_to_target

# Affine substitutions of the two folded regions (rows act on (x1, x2)).
FIRST_WEDGE_MATRIX = np.array([[2.0, 0.0], [-2.0, 1.0]])
REFLECTED_WEDGE_MATRIX = np.array([[0.0, 1.0], [2.0, -1.0]])

# Largest squared singular values of the matrices above, in closed form.
FIRST_WEDGE_STRETCH_SQ = (9.0 + math.sqrt(65.0)) / 2.0
REFLECTED_WEDGE_STRETCH_SQ = 3.0 + math.sqrt(5.0)


class FoldRegion(enum.Enum):
    FROM_FIRST = "from_first"
    REFLECTED = "reflected"
    COPIED = "copied"


@dataclass(frozen=True)
class FoldReport:
    trace_bottom_error: float
    trace_left_error: float
    trace_right_error: float
    energy_in_0: float
    energy_in_1: float
    energy_out: float
    ratio: float
    p: float


def classify_region(x1: float, x2: float) -> FoldRegion:
    """Region of a point of the folding square; ties go to the earlier region."""
    if x1 <= x2 / 2.0:
        return FoldRegion.FROM_FIRST
    if x1 <= x2:
        return FoldRegion.REFLECTED
    return FoldRegion.COPIED


def fold_energy_bound(p: float) -> float:
    """Guaranteed ceiling for energy_out / (energy_in_0 + energy_in_1)."""
    stretch = max(FIRST_WEDGE_STRETCH_SQ, REFLECTED_WEDGE_STRETCH_SQ)
    return stretch ** (p / 2.0) / 2.0 + 1.0


def _sup_norm_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(a - b, axis=-1), initial=0.0))


def _check_fold_inputs(u0: GridMap, u1: GridMap) -> None:
    if u0.domain != u1.domain:
        raise DomainError("folded maps must share one domain")
    if u0.target != u1.target:
        raise DomainError("folded maps must share one target")
    if u0.domain.kind not in ("square", "cube"):
        raise DomainError(
            f"folding needs a square or cube domain, got {u0.domain.kind!r}"
        )


def fold(
    u0: GridMap,
    u1: GridMap,
    trace_tol: float | None = None,
    p: float = 2.0,
) -> tuple[GridMap, FoldReport]:
    """Fold two extensions with (approximately) equal bottom traces.

    Raises PreconditionError when the bottom traces differ by more than
    ``trace_tol`` in the sup norm (default: the maps' constraint_tol).
    """
    _check_fold_inputs(u0, u1)
    dom = u0.domain
    if trace_tol is None:
        trace_tol = 10.0 * dom.max_spacing
    bottom0 = u0.values[..., 0, :]
    bottom1 = u1.values[..., 0, :]
    gap = _sup_norm_gap(bottom0, bottom1)
    if gap > trace_tol:
        raise PreconditionError(
            f"bottom traces differ by {gap:.3g}, tolerance {trace_tol:.3g}"
        )

    mesh = node_mesh(dom)
    x1 = mesh[:, -2]
    x2 = mesh[:, -1]
    in_first = x1 <= x2 / 2.0
    in_reflected = ~in_first & (x1 <= x2)
    in_copied = ~in_first & ~in_reflected

    n = mesh.shape[0]
    out = np.empty((n, u0.nu))

    if np.any(in_first):
        pts = mesh[in_first].copy()
        pts[:, -2] = 2.0 * x1[in_first]
        pts[:, -1] = x2[in_first] - 2.0 * x1[in_first]
        out[in_first] = evaluate_batch(u0, pts)
    if np.any(in_reflected):
        pts = mesh[in_reflected].copy()
        pts[:, -2] = x2[in_reflected]
        pts[:, -1] = 2.0 * x1[in_reflected] - x2[in_reflected]
        out[in_reflected] = evaluate_batch(u1, pts)
    if np.any(in_copied):
        out[in_copied] = u1.values.reshape(n, u1.nu)[in_copied]

    # interpolated values drift off a constrained target by O(h); project
    # them back, but keep the verbatim copies bit-identical to the input
    if u0.target.constrained:
        resampled = in_first | in_reflected
        out[resampled] = project_to_target(u0.target, out[resampled])

    folded = GridMap(
        domain=dom,
        target=u0.target,
        values=out.reshape(dom.shape + (u0.nu,)),
        constraint_tol=max(u0.constraint_tol, u1.constraint_tol),
    )
    values = folded.values
    report = _fold_report(
        folded,
        u0,
        u1,
        p,
        _sup_norm_gap(values[..., 0, :], u0.values[..., 0, :]),
        _sup_norm_gap(values[..., 0, :, :], u0.values[..., 0, :, :]),
        _sup_norm_gap(values[..., -1, :, :], u1.values[..., -1, :, :]),
    )
    return folded, report


def _fold_report(
    folded: GridMap,
    u0: GridMap,
    u1: GridMap,
    p: float,
    bottom_err: float,
    left_err: float,
    right_err: float,
) -> FoldReport:
    """The given trace errors with the three energies and their ratio."""
    e0 = dirichlet_p_energy(u0, p).value
    e1 = dirichlet_p_energy(u1, p).value
    eout = dirichlet_p_energy(folded, p).value
    denom = e0 + e1
    ratio = eout / denom if denom > 0.0 else float("nan")
    return FoldReport(
        trace_bottom_error=bottom_err,
        trace_left_error=left_err,
        trace_right_error=right_err,
        energy_in_0=e0,
        energy_in_1=e1,
        energy_out=eout,
        ratio=ratio,
        p=p,
    )


def verify_fold_traces(
    folded: GridMap, u0: GridMap, u1: GridMap, p: float = 2.0
) -> FoldReport:
    """Recompute the trace discrepancies through the public face extraction.

    Independent of the bookkeeping inside :func:`fold`: traces are pulled
    via extract_trace and energies recomputed from scratch.
    """
    _check_fold_inputs(u0, u1)
    if folded.domain != u0.domain or folded.target != u0.target:
        raise DomainError("folded map does not match the inputs")
    bottom = extract_trace(folded, "bottom")
    left = extract_trace(folded, "left")
    right = extract_trace(folded, "right")
    return _fold_report(
        folded,
        u0,
        u1,
        p,
        _sup_norm_gap(bottom.values, extract_trace(u0, "bottom").values),
        _sup_norm_gap(left.values, extract_trace(u0, "left").values),
        _sup_norm_gap(right.values, extract_trace(u1, "right").values),
    )
