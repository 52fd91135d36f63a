"""Node-sampled maps on product grids and the operations that read them.

A :class:`GridMap` stores one nu-vector per grid node, C-ordered over the
axes of its domain.  Values are 64-bit floats and the array is frozen on
construction, after the shape, finiteness, tolerance and target checks.
A read-only C-contiguous float64 array, such as the one an SGF reader
hands over, is adopted as it is; any other array is copied, so the
caller's stays writable and later changes to it never reach the map.
A :class:`TraceMap` is a ``GridMap`` over a boundary face or over the base
manifold of a collar; it differs only in naming its domain ``base``.

Evaluation is multilinear interpolation of the stored node values.  It is
exact at nodes and never projects back onto a curved target: interpolated
values of a circle-valued map lie inside the disk, and callers that need
a manifold value must project explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import Axis, DomainSpec, face_axis_side, face_domain, wrap
from .errors import DomainError, ParameterError, PreconditionError
from .target import TargetSpec, distance_to_target, sum_of_squares

#: Relative slack used when clamping nearly-in-range coordinates.
_EDGE_TOL = 1e-9


def default_constraint_tol(domain: DomainSpec) -> float:
    """Default tolerance for the distance of node values to the target: 10 h."""
    return 10.0 * domain.max_spacing


def _sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest Euclidean distance between matching value vectors; 0.0 when there are none."""
    return float(np.max(np.sqrt(sum_of_squares(a - b)), initial=0.0))


@dataclass(frozen=True)
class GridMap:
    domain: DomainSpec
    target: TargetSpec
    values: np.ndarray
    constraint_tol: Optional[float] = None

    def __post_init__(self) -> None:
        # constraint_tol None means the default 10 h
        tol = self.constraint_tol
        if tol is None:
            tol = default_constraint_tol(self.domain)
        elif not (math.isfinite(tol) and tol >= 0.0):
            raise ParameterError(f"constraint tolerance must be finite and >= 0, got {tol}")
        values = self.values
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and not values.flags.writeable
            and values.flags.c_contiguous
        ):
            values = np.array(values, dtype=np.float64)
        expected = self.domain.shape + (self.target.nu,)
        if values.shape != expected:
            raise ParameterError(f"value array has shape {values.shape}, expected {expected}")
        if not np.all(np.isfinite(values)):
            raise ParameterError("value array contains non-finite entries")
        if self.target.constrained:
            worst = float(np.max(distance_to_target(self.target, values)))
            if worst > tol:
                raise PreconditionError(
                    f"node values stray {worst:.3g} from the target, tolerance {tol:.3g}"
                )
        values.flags.writeable = False
        object.__setattr__(self, "constraint_tol", tol)
        object.__setattr__(self, "values", values)

    @property
    def nu(self) -> int:
        return self.target.nu


class TraceMap(GridMap):
    """A grid map over a boundary face or a collar's base, which it names ``base``."""

    def __init__(
        self, base: DomainSpec, target: TargetSpec, values: np.ndarray,
        constraint_tol: Optional[float] = None,
    ) -> None:
        super().__init__(base, target, values, constraint_tol)

    @property
    def base(self) -> DomainSpec:
        return self.domain


def _locate(axis: Axis, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and fractional offset for each coordinate along one axis."""
    h = axis.spacing
    x = np.asarray(coords, dtype=np.float64)
    if axis.periodic:
        x = wrap(x, axis.length)
    else:
        slack = _EDGE_TOL * max(1.0, axis.length)
        if np.any(x < -slack) or np.any(x > axis.length + slack):
            bad_low = float(np.min(x))
            bad_high = float(np.max(x))
            raise DomainError(
                f"coordinate outside [0, {axis.length}] (saw range [{bad_low}, {bad_high}])"
            )
        x = np.clip(x, 0.0, axis.length)
    idx = np.floor(x / h).astype(np.int64)
    idx = np.clip(idx, 0, axis.cell_count - 1)
    frac = x / h - idx
    return idx, np.clip(frac, 0.0, 1.0)


def evaluate_batch(m: GridMap, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at an (N, ndim) array of points."""
    dom = m.domain
    points = np.asarray(points, dtype=np.float64)
    if points.shape[-1] != dom.ndim:
        raise DomainError(
            f"points have dimension {points.shape[-1]}, domain has {dom.ndim}"
        )
    # per axis, the flat-index offsets and the weights of each cell's low
    # and high corner, once
    corners = []
    for a, axis in enumerate(dom.axes):
        i, f = _locate(axis, points[:, a])
        j = i + 1
        if axis.periodic:
            j %= axis.count
        stride = math.prod(dom.shape[a + 1 :])
        corners.append(((i * stride, 1.0 - f), (j * stride, f)))
    values = m.values.reshape(-1, m.nu)
    out = np.zeros((points.shape[0], m.nu))
    # accumulate the 2^ndim corner contributions of each containing cell;
    # bit a of ``corner`` picks axis a's side, and the weights multiply in
    # axis order
    for corner in range(1 << dom.ndim):
        flat, weight = corners[0][corner & 1]
        for a in range(1, dom.ndim):
            offset, w = corners[a][(corner >> a) & 1]
            flat = flat + offset
            weight = weight * w
        corner_values = np.take(values, flat, axis=0)
        # one component at a time: a broadcast over nu-long rows would run
        # an inner loop per point
        for c in range(m.nu):
            out[:, c] += weight * corner_values[:, c]
    return out


def extract_trace(m: GridMap, face: str) -> TraceMap:
    """Restrict a map to a boundary face as a map over the face's own grid."""
    axis, side = face_axis_side(m.domain, face)
    base = face_domain(m.domain, face)
    picker: list = [slice(None)] * (m.domain.ndim + 1)
    picker[axis] = 0 if side == 0 else m.domain.shape[axis] - 1
    values = np.array(m.values[tuple(picker)])
    return TraceMap(base=base, target=m.target, values=values, constraint_tol=m.constraint_tol)


def node_mesh(domain: DomainSpec) -> np.ndarray:
    """(N, ndim) array of all node coordinates in C order."""
    grids = np.meshgrid(*(axis.coordinates() for axis in domain.axes), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)
