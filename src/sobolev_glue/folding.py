"""Folding two extensions with matching bottom traces into one.

The fold acts on the last two coordinates (x1, x2) of a square or cube
grid; any leading periodic factor rides along untouched.  The unit square
splits into three regions, numbered by the codes ``fold_sources`` returns:

* 0, from first   x1 <= x2/2:      value of the first map at (2 x1, x2 - 2 x1)
* 1, reflected    x2/2 < x1 <= x2: value of the second map at (x2, 2 x1 - x2)
* 2, copied       x2 < x1:         the second map's own value

Ties sit with the earlier region.  ``fold_sources`` is the one statement
of this rule: ``fold`` calls it here, and ``covering.glue`` calls it in
(radial, depth) coordinates of each chart's annulus.  ``fold`` returns
only the folded map.  It keeps the second map's bottom trace at nodes,
keeps the first map's x1 = 0 face and the second map's x1 = 1 face, and
its p-energy is controlled by the largest singular values of the two
affine substitutions, computed in closed form below and cross-checked
against an SVD oracle in the test suite.
``fold_trace_errors`` measures a folded map's three trace errors, and
``verify_fold_traces`` builds its ``FoldReport``: those errors, the three
p-energies and their ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import dirichlet_p_energy
from .errors import DomainError, ParameterError, PreconditionError
from .gridmap import (
    GridMap,
    default_constraint_tol,
    evaluate_batch,
    extract_trace,
    node_mesh,
)
from .target import project_to_target

# Affine substitutions of the two folded regions (rows act on (x1, x2)).
FIRST_WEDGE_MATRIX = np.array([[2.0, 0.0], [-2.0, 1.0]])
REFLECTED_WEDGE_MATRIX = np.array([[0.0, 1.0], [2.0, -1.0]])

# Largest squared singular values of the matrices above, in closed form.
FIRST_WEDGE_STRETCH_SQ = (9.0 + math.sqrt(65.0)) / 2.0
REFLECTED_WEDGE_STRETCH_SQ = 3.0 + math.sqrt(5.0)


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


def fold_sources(
    x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Region code and source coordinates of points of the folding square.

    Returns ``(region, s1, s2)``.  ``region`` is 0 where the folded map
    reads the first map, 1 where it reads the second map reflected and 2
    where it copies the second map; ties go to the earlier region.
    ``(s1, s2)`` is the point the folded map reads: (2 x1, x2 - 2 x1) in
    region 0, (x2, 2 x1 - x2) in region 1 and (x1, x2) itself in region 2.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    first = x1 <= x2 / 2.0
    reflected = ~first & (x1 <= x2)
    region = np.where(first, 0, np.where(reflected, 1, 2))
    s1 = np.where(first, 2.0 * x1, np.where(reflected, x2, x1))
    s2 = np.where(first, x2 - 2.0 * x1, np.where(reflected, 2.0 * x1 - x2, x2))
    return region, s1, s2


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


def fold(u0: GridMap, u1: GridMap, trace_tol: float | None = None) -> GridMap:
    """Fold two extensions with (approximately) equal bottom traces.

    Returns the folded map; :func:`verify_fold_traces` measures its trace
    errors and energies.  Raises PreconditionError when the bottom traces
    differ by more than ``trace_tol`` in the sup norm (default: ten times
    the largest grid spacing); a tolerance that is negative or not finite
    is a ParameterError.
    """
    _check_fold_inputs(u0, u1)
    dom = u0.domain
    if trace_tol is None:
        trace_tol = default_constraint_tol(dom)
    elif not (np.isfinite(trace_tol) and trace_tol >= 0.0):
        # a nan tolerance would accept any traces: gap > nan is false
        raise ParameterError(
            f"trace tolerance must be finite and non-negative, got {trace_tol}"
        )
    bottom0 = u0.values[..., 0, :]
    bottom1 = u1.values[..., 0, :]
    gap = _sup_norm_gap(bottom0, bottom1)
    if gap > trace_tol:
        raise PreconditionError(
            f"bottom traces differ by {gap:.3g}, tolerance {trace_tol:.3g}"
        )

    mesh = node_mesh(dom)
    region, s1, s2 = fold_sources(mesh[:, -2], mesh[:, -1])
    sources = mesh.copy()
    sources[:, -2] = s1
    sources[:, -1] = s2
    in_first = region == 0
    in_reflected = region == 1

    n = mesh.shape[0]
    out = u1.values.reshape(n, u1.nu).copy()
    out[in_first] = evaluate_batch(u0, sources[in_first])
    out[in_reflected] = evaluate_batch(u1, sources[in_reflected])

    # interpolated values drift off a constrained target by O(h); project
    # them back, but keep the verbatim copies bit-identical to the input
    if u0.target.constrained:
        resampled = in_first | in_reflected
        out[resampled] = project_to_target(u0.target, out[resampled])

    return GridMap(
        domain=dom,
        target=u0.target,
        values=out.reshape(dom.shape + (u0.nu,)),
        constraint_tol=max(u0.constraint_tol, u1.constraint_tol),
    )


def fold_trace_errors(
    folded: GridMap, u0: GridMap, u1: GridMap
) -> tuple[float, float, float]:
    """Sup-norm trace errors ``(bottom, left, right)`` of a folded map.

    Independent of the bookkeeping inside :func:`fold`: each face is pulled
    via extract_trace and compared with the input that must own it, the
    first map on the bottom and the x1 = 0 face, the second on x1 = 1.
    """
    _check_fold_inputs(u0, u1)
    if folded.domain != u0.domain or folded.target != u0.target:
        raise DomainError("folded map does not match the inputs")

    def face_gap(face: str, reference: GridMap) -> float:
        return _sup_norm_gap(
            extract_trace(folded, face).values, extract_trace(reference, face).values
        )

    return face_gap("bottom", u0), face_gap("left", u0), face_gap("right", u1)


def verify_fold_traces(
    folded: GridMap, u0: GridMap, u1: GridMap, p: float = 2.0
) -> FoldReport:
    """Trace errors, p-energies and energy ratio of a folded map.

    The trace errors come from :func:`fold_trace_errors`; energies are
    recomputed from scratch.  The ratio is
    energy_out / (energy_in_0 + energy_in_1), nan when both inputs have
    zero energy.
    """
    bottom, left, right = fold_trace_errors(folded, u0, u1)
    e0 = dirichlet_p_energy(u0, p).value
    e1 = dirichlet_p_energy(u1, p).value
    eout = dirichlet_p_energy(folded, p).value
    denom = e0 + e1
    return FoldReport(
        trace_bottom_error=bottom,
        trace_left_error=left,
        trace_right_error=right,
        energy_in_0=e0,
        energy_in_1=e1,
        energy_out=eout,
        ratio=eout / denom if denom > 0.0 else float("nan"),
        p=p,
    )
