"""Target spaces for grid maps: Euclidean space, the unit circle, unit spheres."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularityError


@dataclass(frozen=True)
class TargetSpec:
    kind: str  # "euclidean" | "circle" | "sphere"
    nu: int  # ambient dimension

    def __post_init__(self) -> None:
        if self.kind not in ("euclidean", "circle", "sphere"):
            raise ParameterError(f"unknown target kind {self.kind!r}")
        if self.nu < 1:
            raise ParameterError(f"ambient dimension must be positive, got {self.nu}")
        if self.kind == "circle" and self.nu != 2:
            raise ParameterError("circle target requires ambient dimension 2")
        # S^1 has one name, so that equal targets compare equal
        if self.kind == "sphere" and self.nu < 3:
            raise ParameterError("sphere target requires ambient dimension >= 3; S^1 is circle()")

    @property
    def constrained(self) -> bool:
        return self.kind in ("circle", "sphere")


def euclidean(nu: int) -> TargetSpec:
    return TargetSpec("euclidean", nu)


def circle() -> TargetSpec:
    return TargetSpec("circle", 2)


def sphere(nu: int) -> TargetSpec:
    return TargetSpec("sphere", nu)


def sum_of_squares(values: np.ndarray) -> np.ndarray:
    """Sum of squares over the last (component) axis.

    Adds ``x[..., c] * x[..., c]`` for c = 0, 1, ... in that order, which
    is the order in which ``np.add.reduce`` sums fewer than eight
    elements: for fewer than eight components the result equals
    ``np.sum(values**2, axis=-1)`` bit for bit.  Its square root is the
    package's one component norm, with the bits that ``np.linalg.norm``
    gives along the last axis for those component counts.
    A loop over the 2 or 3 components is several times faster than
    numpy's reduction over such a short axis.
    """
    first = values[..., 0]
    total = first * first
    for c in range(1, values.shape[-1]):
        comp = values[..., c]
        total += comp * comp
    return total


def project_to_target(target: TargetSpec, values: np.ndarray) -> np.ndarray:
    """Nearest-point projection onto the target, applied along the last axis.

    Euclidean targets are returned unchanged.  For the circle and the
    sphere the projection is y/|y|, undefined at the origin: any zero
    value raises a SingularityError rather than silently picking a point.
    Each component is divided by the norm on its own, into one new
    array: the bits of ``values / norms[..., None]`` without numpy's
    slower broadcast over the short last axis.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != target.nu:
        raise ParameterError(
            f"value dimension {values.shape[-1]} does not match target {target.nu}"
        )
    if not target.constrained:
        return values
    norms = np.sqrt(sum_of_squares(values))
    if not np.all(norms > 0.0):
        raise SingularityError("cannot project the zero vector onto the unit sphere")
    out = np.empty_like(values)
    for c in range(target.nu):
        np.divide(values[..., c], norms, out=out[..., c])
    return out


def distance_to_target(target: TargetSpec, values: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean distance from values to the target manifold."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != target.nu:
        raise ParameterError(
            f"value dimension {values.shape[-1]} does not match target {target.nu}"
        )
    if not target.constrained:
        return np.zeros(values.shape[:-1])
    # in place: the bits of abs(sqrt(.) - 1) in one node array (0-d for one point)
    dist = np.asarray(sum_of_squares(values))
    np.sqrt(dist, out=dist)
    dist -= 1.0
    return np.abs(dist, out=dist)
