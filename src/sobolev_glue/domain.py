"""Product-grid domains.

Every domain handled here is a finite product of one-dimensional axes,
each either a closed interval [0, L] sampled at ``count`` nodes or a
circle of circumference L sampled at ``count`` equally spaced nodes.
The node spacing is ``L/(count-1)`` on intervals and ``L/count`` on
circles (the last node of a circle is not duplicated).

A ``kind`` string names the structural family and fixes the canonical
axis lengths used by the file format:

============   ==========================================  canonical lengths
interval       (0,1)                                       1
circle         circumference-2*pi circle                   2*pi
square         (0,1)^2                                     1, 1
box            (0,1)^3                                     1, 1, 1
cylinder       circle x (0,1)                              2*pi, 1
cube           circle x (0,1)^2                            2*pi, 1, 1
torus          unit flat torus                             1, 1
torus_collar   torus x (0,1)                               1, 1, 1
============   ==========================================  =================

Non-canonical lengths (a collar of depth L != 1, a chart patch whose
first axis is an arc length) are allowed in memory; the file sidecar
records them so round trips are exact.

A domain is built from its axes alone, ``DomainSpec(axes)``, and its
kind is the name of their periodicity pattern: the eight patterns in
``KIND_TABLE`` are distinct, and any other pattern raises
``DomainError``.  ``from_kind`` (which the named constructors call) lays
out the axes of a named kind.  ``collar_over`` is the one collar rule:
the base's own axes, lengths included, then one interval depth axis;
box, cube and torus_collar bases have no collar.

``wrap`` is the one float modulo of the package: a coordinate on a
circle of length L, or an angle, reduced into [0, L].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

TWO_PI = 2.0 * np.pi

# kind -> (periodic flags, canonical lengths)
KIND_TABLE: dict[str, tuple[tuple[bool, ...], tuple[float, ...]]] = {
    "interval": ((False,), (1.0,)),
    "circle": ((True,), (TWO_PI,)),
    "square": ((False, False), (1.0, 1.0)),
    "box": ((False, False, False), (1.0, 1.0, 1.0)),
    "cylinder": ((True, False), (TWO_PI, 1.0)),
    "cube": ((True, False, False), (TWO_PI, 1.0, 1.0)),
    "torus": ((True, True), (1.0, 1.0)),
    "torus_collar": ((True, True, False), (1.0, 1.0, 1.0)),
}
_KIND_OF_PATTERN = {flags: kind for kind, (flags, _) in KIND_TABLE.items()}


@dataclass(frozen=True)
class Axis:
    count: int
    length: float
    periodic: bool

    def __post_init__(self) -> None:
        minimum = 3 if self.periodic else 2
        if self.count < minimum:
            raise ParameterError(
                f"axis needs at least {minimum} nodes, got {self.count}"
            )
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ParameterError(f"axis length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        if self.periodic:
            return self.length / self.count
        return self.length / (self.count - 1)

    @property
    def cell_count(self) -> int:
        return self.count if self.periodic else self.count - 1

    def coordinates(self) -> np.ndarray:
        return self.spacing * np.arange(self.count)


@dataclass(frozen=True)
class DomainSpec:
    """A product of axes, of the kind that their periodicity pattern names."""

    kind: str = field(init=False)
    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        pattern = tuple(a.periodic for a in self.axes)
        if pattern not in _KIND_OF_PATTERN:
            raise DomainError(f"no named kind for periodicity pattern {pattern}")
        object.__setattr__(self, "kind", _KIND_OF_PATTERN[pattern])

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(a.length for a in self.axes)

    @property
    def max_spacing(self) -> float:
        return max(a.spacing for a in self.axes)

    def is_canonical(self) -> bool:
        _, canonical = KIND_TABLE[self.kind]
        return all(
            abs(a.length - c) <= 1e-12 * max(1.0, c)
            for a, c in zip(self.axes, canonical)
        )


def from_kind(kind: str, counts: tuple[int, ...], lengths=None) -> DomainSpec:
    """The domain of ``kind`` with ``counts`` nodes per axis; canonical lengths by default."""
    if kind not in KIND_TABLE:
        raise ParameterError(f"unknown domain kind {kind!r}")
    flags, canonical = KIND_TABLE[kind]
    lengths = canonical if lengths is None else lengths
    # zip would silently drop the surplus of a longer tuple
    if not len(counts) == len(lengths) == len(flags):
        raise ParameterError(
            f"kind {kind!r} has {len(flags)} axes, got {len(counts)} counts and {len(lengths)} lengths"
        )
    return DomainSpec(tuple(Axis(n, float(L), f) for n, L, f in zip(counts, lengths, flags)))


def interval(n: int) -> DomainSpec:
    return from_kind("interval", (n,))


def circle(n: int) -> DomainSpec:
    return from_kind("circle", (n,))


def square(n1: int, n2: int, lengths: tuple[float, float] | None = None) -> DomainSpec:
    return from_kind("square", (n1, n2), lengths)


def box(n1: int, n2: int, n3: int, lengths: tuple[float, float, float] | None = None) -> DomainSpec:
    return from_kind("box", (n1, n2, n3), lengths)


def cylinder(n_theta: int, n_depth: int, depth: float = 1.0) -> DomainSpec:
    return from_kind("cylinder", (n_theta, n_depth), (TWO_PI, depth))


def cube(n_theta: int, n1: int, n2: int) -> DomainSpec:
    return from_kind("cube", (n_theta, n1, n2))


def torus(n1: int, n2: int) -> DomainSpec:
    return from_kind("torus", (n1, n2))


def torus_collar(n1: int, n2: int, n_depth: int, depth: float = 1.0) -> DomainSpec:
    return from_kind("torus_collar", (n1, n2, n_depth), (1.0, 1.0, depth))


def collar_over(base: DomainSpec, n_depth: int, depth: float) -> DomainSpec:
    """The collar base x (0, depth): the base's own axes, then one depth interval."""
    return DomainSpec(base.axes + (Axis(n_depth, float(depth), False),))


def depth_node_count(base: DomainSpec, depth: float) -> int:
    """round(depth / h) + 1 depth nodes for the coarsest base spacing h, clamped to 8..128."""
    if not (np.isfinite(depth) and depth > 0.0):
        raise ParameterError(f"collar depth must be finite and > 0, got {depth}")
    return max(8, min(128, round(min(depth / base.max_spacing, 128.0)) + 1))


def wrap(x, length):
    """``x`` modulo ``length > 0`` into [0, length], equal to ``np.mod`` bit for bit.

    ``np.fmod`` is exact and keeps the sign of ``x``.  ``np.mod`` for
    floats is that same remainder, plus ``length`` when it is negative,
    and +0 when it is zero.  Adding ``length * (r < 0)`` does both: a
    negative r gets r + length, rounded as ``np.mod`` rounds it (a tiny
    negative r rounds up to ``length`` in both), and any other r gets
    r + 0.0, which turns -0 into +0 and leaves every other value, nan
    included, as it is.  An infinite ``x`` gives nan and the same
    invalid-value warning in both.  ``np.fmod``'s cost grows with
    |x| / length: on values within a few lengths of [0, length], as in
    every use here, the two passes take about two thirds of ``np.mod``'s
    time (52K doubles, one CPU); fifty lengths out they take twice as
    long.
    """
    r = np.fmod(x, length)
    r += length * (r < 0.0)
    return r


# Boundary faces.  "bottom"/"top" always refer to the last axis, which by
# convention carries the collar depth; "left"/"right" refer to the
# second-to-last axis where that axis is an interval.
_FACE_AXIS_OFFSET = {"bottom": -1, "top": -1, "left": -2, "right": -2}
_FACE_SIDE = {"bottom": 0, "top": 1, "left": 0, "right": 1}


def face_axis_side(domain: DomainSpec, face: str) -> tuple[int, int]:
    """Resolve a face name to (axis index, side index). Side 0 is coordinate 0."""
    if face not in _FACE_AXIS_OFFSET:
        raise DomainError(f"unknown face {face!r}")
    offset = _FACE_AXIS_OFFSET[face]
    if domain.ndim + offset < 0:
        raise DomainError(f"face {face!r} invalid for kind {domain.kind!r}")
    axis = domain.ndim + offset
    if domain.axes[axis].periodic:
        raise DomainError(f"face {face!r} lies on a periodic axis of {domain.kind!r}")
    return axis, _FACE_SIDE[face]


def face_domain(domain: DomainSpec, face: str) -> DomainSpec:
    axis, _ = face_axis_side(domain, face)
    return DomainSpec(domain.axes[:axis] + domain.axes[axis + 1 :])
