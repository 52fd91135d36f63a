"""Node-sampled maps on product grids and the operations that read them.

A :class:`GridMap` stores one nu-vector per grid node, C-ordered over the
axes of its domain.  Values are 64-bit floats and the array is frozen on
construction.  A :class:`TraceMap` is the same thing over a boundary face
or over the base manifold of a collar; the two types are kept separate so
signatures say which one they mean.

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

from .domain import Axis, DomainSpec, face_axis_side, face_domain
from .errors import DomainError, ParameterError, PreconditionError
from .target import TargetSpec, distance_to_target

#: Relative slack used when clamping nearly-in-range coordinates.
_EDGE_TOL = 1e-9


def default_constraint_tol(domain: DomainSpec) -> float:
    """Default tolerance for the distance of node values to the target: 10 h."""
    return 10.0 * domain.max_spacing


def _check_values(domain: DomainSpec, target: TargetSpec, values: np.ndarray, tol: float) -> np.ndarray:
    values = np.array(values, dtype=np.float64)
    expected = domain.shape + (target.nu,)
    if values.shape != expected:
        raise ParameterError(f"value array has shape {values.shape}, expected {expected}")
    if not np.all(np.isfinite(values)):
        raise ParameterError("value array contains non-finite entries")
    if target.constrained:
        worst = float(np.max(distance_to_target(target, values)))
        if worst > tol:
            raise PreconditionError(
                f"node values stray {worst:.3g} from the target, tolerance {tol:.3g}"
            )
    values.flags.writeable = False
    return values


def _freeze(m: GridMap | TraceMap, domain: DomainSpec) -> None:
    """Settle ``m.constraint_tol`` (``None``: the default 10 h) and check ``m.values``."""
    tol = m.constraint_tol
    if tol is None:
        tol = default_constraint_tol(domain)
    elif not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"constraint tolerance must be finite and >= 0, got {tol}")
    object.__setattr__(m, "constraint_tol", tol)
    object.__setattr__(m, "values", _check_values(domain, m.target, m.values, tol))


@dataclass(frozen=True)
class GridMap:
    domain: DomainSpec
    target: TargetSpec
    values: np.ndarray
    constraint_tol: Optional[float] = None

    def __post_init__(self) -> None:
        _freeze(self, self.domain)

    @property
    def nu(self) -> int:
        return self.target.nu


@dataclass(frozen=True)
class TraceMap:
    base: DomainSpec
    target: TargetSpec
    values: np.ndarray
    constraint_tol: Optional[float] = None

    def __post_init__(self) -> None:
        _freeze(self, self.base)

    @property
    def domain(self) -> DomainSpec:
        # structural alias so grid utilities can treat both map types alike
        return self.base

    @property
    def nu(self) -> int:
        return self.target.nu


def _locate(axis: Axis, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and fractional offset for each coordinate along one axis."""
    h = axis.spacing
    x = np.asarray(coords, dtype=np.float64)
    if axis.periodic:
        x = np.mod(x, axis.length)
        idx = np.floor(x / h).astype(np.int64)
        idx = np.clip(idx, 0, axis.count - 1)
        frac = x / h - idx
        return idx, np.clip(frac, 0.0, 1.0)
    slack = _EDGE_TOL * max(1.0, axis.length)
    if np.any(x < -slack) or np.any(x > axis.length + slack):
        bad_low = float(np.min(x))
        bad_high = float(np.max(x))
        raise DomainError(
            f"coordinate outside [0, {axis.length}] (saw range [{bad_low}, {bad_high}])"
        )
    x = np.clip(x, 0.0, axis.length)
    idx = np.floor(x / h).astype(np.int64)
    idx = np.clip(idx, 0, axis.count - 2)
    frac = x / h - idx
    return idx, np.clip(frac, 0.0, 1.0)


def evaluate_batch(m: GridMap | TraceMap, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at an (N, ndim) array of points."""
    dom = m.domain
    points = np.asarray(points, dtype=np.float64)
    if points.shape[-1] != dom.ndim:
        raise DomainError(
            f"points have dimension {points.shape[-1]}, domain has {dom.ndim}"
        )
    n = points.shape[0]
    idx = []
    frac = []
    for a, axis in enumerate(dom.axes):
        i, f = _locate(axis, points[:, a])
        idx.append(i)
        frac.append(f)
    out = np.zeros((n, m.nu))
    # accumulate the 2^ndim corner contributions of each containing cell
    for corner in range(1 << dom.ndim):
        weight = np.ones(n)
        index = []
        for a, axis in enumerate(dom.axes):
            bit = (corner >> a) & 1
            if bit:
                j = idx[a] + 1
                if axis.periodic:
                    j = np.mod(j, axis.count)
                weight = weight * frac[a]
            else:
                j = idx[a]
                weight = weight * (1.0 - frac[a])
            index.append(j)
        out += weight[:, None] * m.values[tuple(index)]
    return out


def extract_trace(m: GridMap, face: str) -> TraceMap:
    """Restrict a map to a boundary face as a map over the face's own grid."""
    axis, side = face_axis_side(m.domain, face)
    base = face_domain(m.domain, face)
    picker: list = [slice(None)] * (m.domain.ndim + 1)
    picker[axis] = 0 if side == 0 else m.domain.shape[axis] - 1
    values = np.array(m.values[tuple(picker)])
    return TraceMap(base=base, target=m.target, values=values, constraint_tol=m.constraint_tol)


def grid_coordinates(domain: DomainSpec) -> list[np.ndarray]:
    """Per-axis node coordinate vectors."""
    return [axis.coordinates() for axis in domain.axes]


def node_mesh(domain: DomainSpec) -> np.ndarray:
    """(N, ndim) array of all node coordinates in C order."""
    grids = np.meshgrid(*grid_coordinates(domain), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)
