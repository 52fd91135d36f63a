import pathlib

import numpy as np
import pytest

from sobolev_glue import domain as dom
from sobolev_glue.errors import DomainError, ParameterError


def test_interval_spacing_counts_nodes_inclusively():
    d = dom.interval(5)
    assert d.kind == "interval"
    assert d.shape == (5,)
    assert d.axes[0].spacing == pytest.approx(0.25)
    assert not d.axes[0].periodic
    assert d.axes[0].cell_count == 4


def test_circle_spacing_has_no_duplicate_node():
    d = dom.circle(8)
    assert d.axes[0].periodic
    assert d.axes[0].spacing == pytest.approx(2.0 * np.pi / 8.0)
    assert d.axes[0].cell_count == 8
    coords = d.axes[0].coordinates()
    assert coords[0] == 0.0
    assert coords[-1] < 2.0 * np.pi


def test_kind_table_matches_constructors():
    cases = {
        "interval": dom.interval(4),
        "circle": dom.circle(4),
        "square": dom.square(4, 5),
        "box": dom.box(3, 4, 5),
        "cylinder": dom.cylinder(6, 4),
        "cube": dom.cube(6, 3, 4),
        "torus": dom.torus(4, 4),
        "torus_collar": dom.torus_collar(4, 4, 3),
    }
    for kind, d in cases.items():
        assert d.kind == kind
        flags, lengths = dom.KIND_TABLE[kind]
        assert tuple(a.periodic for a in d.axes) == flags
        assert d.is_canonical()
        assert d.lengths == pytest.approx(lengths)


def test_noncanonical_lengths_are_allowed_and_flagged():
    d = dom.square(4, 4, lengths=(3.0, 0.5))
    assert not d.is_canonical()
    assert d.lengths == (3.0, 0.5)
    assert d.axes[0].spacing == pytest.approx(1.0)


def test_from_kind_round_trips_every_kind():
    for kind, (flags, _) in dom.KIND_TABLE.items():
        counts = tuple(4 for _ in flags)
        d = dom.from_kind(kind, counts)
        assert d.kind == kind
        assert d.shape == counts


def test_from_kind_rejects_unknown_kind_and_bad_counts():
    with pytest.raises(ParameterError):
        dom.from_kind("pretzel", (4,))
    with pytest.raises(ParameterError):
        dom.from_kind("square", (4,))
    with pytest.raises(ParameterError):
        dom.from_kind("square", (4, 4, 4))  # zip would drop the third count
    with pytest.raises(ParameterError):
        dom.from_kind("circle", (4,), (1.0, 2.0))  # and the surplus length
    with pytest.raises(ParameterError):
        dom.interval(1)


def test_face_axis_side_uses_last_interval_axes():
    cyl = dom.cylinder(8, 5)
    assert dom.face_axis_side(cyl, "bottom") == (1, 0)
    assert dom.face_axis_side(cyl, "top") == (1, 1)
    sq = dom.square(4, 6)
    assert dom.face_axis_side(sq, "bottom") == (1, 0)
    assert dom.face_axis_side(sq, "left") == (0, 0)
    assert dom.face_axis_side(sq, "right") == (0, 1)


def test_face_on_periodic_axis_is_rejected():
    cyl = dom.cylinder(8, 5)
    with pytest.raises(DomainError):
        dom.face_axis_side(cyl, "left")
    with pytest.raises(DomainError):
        dom.face_axis_side(dom.circle(8), "bottom")
    with pytest.raises(DomainError):
        dom.face_axis_side(cyl, "front")


def test_face_domain_drops_the_collar_axis():
    collar = dom.torus_collar(6, 6, 4)
    base = dom.face_domain(collar, "bottom")
    assert base.kind == "torus"
    assert base.shape == (6, 6)
    cyl = dom.cylinder(8, 5)
    assert dom.face_domain(cyl, "bottom").kind == "circle"


def test_max_spacing_takes_the_coarsest_axis():
    d = dom.cylinder(4, 33)
    assert d.max_spacing == pytest.approx(2.0 * np.pi / 4.0)


def test_collar_over_maps_each_base_to_its_collar():
    # the base's own axes, lengths included, then the depth interval
    cases = (
        (dom.interval(6), dom.square(6, 4, lengths=(1.0, 0.5))),
        (dom.circle(12), dom.cylinder(12, 4, 0.5)),
        (dom.square(6, 5), dom.box(6, 5, 4, lengths=(1.0, 1.0, 0.5))),
        (dom.cylinder(12, 5), dom.from_kind("cube", (12, 5, 4), (2.0 * np.pi, 1.0, 0.5))),
        (dom.torus(6, 8), dom.torus_collar(6, 8, 4, 0.5)),
    )
    for base, collar in cases:
        assert dom.collar_over(base, 4, 0.5) == collar
        assert dom.face_domain(collar, "bottom") == base
    for base in (dom.box(4, 4, 4), dom.cube(6, 4, 4), dom.torus_collar(6, 6, 4)):
        with pytest.raises(DomainError):
            dom.collar_over(base, 4, 1.0)


def test_collar_over_keeps_non_canonical_base_lengths():
    base = dom.from_kind("circle", (12,), (3.0,))
    collar = dom.collar_over(base, 5, 2.0)
    assert (collar.kind, collar.lengths, collar.shape) == ("cylinder", (3.0, 2.0), (12, 5))
    assert dom.face_domain(collar, "bottom") == base


def test_domain_spec_names_the_kind_of_the_periodicity_pattern():
    axes = (dom.Axis(6, 1.0, True), dom.Axis(6, 1.0, True), dom.Axis(4, 2.0, False))
    assert dom.DomainSpec(axes) == dom.torus_collar(6, 6, 4, 2.0)
    assert dom.DomainSpec(axes).kind == "torus_collar"
    with pytest.raises(DomainError):
        dom.DomainSpec((dom.Axis(4, 1.0, False), dom.Axis(4, 1.0, True)))


def test_depth_node_count_is_one_per_base_spacing_from_8_to_128():
    # round(depth / h) + 1 nodes; 64 and 65 straddle the sweep's former cap
    circle = dom.circle(64)
    h = circle.max_spacing
    counts = [dom.depth_node_count(circle, k * h) for k in (1, 6, 7, 63, 64, 127, 128, 500)]
    assert counts == [8, 8, 8, 64, 65, 128, 128, 128]
    # the coarsest base axis sets h: 1/16 here
    assert dom.depth_node_count(dom.torus(32, 16), 2.0) == 33


@pytest.mark.parametrize("depth", [0.0, -1.0, float("nan"), float("inf")])
def test_depth_node_count_needs_a_finite_positive_depth(depth):
    with pytest.raises(ParameterError, match="depth"):
        dom.depth_node_count(dom.circle(16), depth)


def test_depth_node_count_caps_a_huge_finite_depth():
    assert dom.depth_node_count(dom.circle(16), 1e308) == 128


@pytest.mark.parametrize("length", [1.0, 2.0 * np.pi, 0.75, 1.0 / 3.0, 1e-3])
def test_wrap_equals_np_mod_byte_for_byte(length):
    rng = np.random.default_rng(7)
    tiny = np.nextafter(0.0, 1.0)
    below = np.nextafter(length, 0.0)
    edges = np.array([
        0.0, -0.0, length, -length, 2.0 * length, -2.0 * length, below, -below,
        tiny, -tiny, 1e-310, -1e-310, -1e-17 * length, -1e-300,
        1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan,
    ])
    draws = rng.uniform(-50.0 * length, 50.0 * length, 100_000)
    x = np.concatenate([edges, draws, np.rint(draws / length) * length])
    # the infinities give nan and an invalid-value warning in both
    with np.errstate(invalid="ignore"):
        want = np.mod(x, length)
        got = dom.wrap(x, length)
    assert got.tobytes() == want.tobytes()
    # wrapping rounds -1e-17 * length up to length itself, as np.mod does
    assert got[12] == length


def test_no_float_modulo_outside_wrap():
    # every float modulo goes through domain.wrap, whose np.fmod pass is
    # the cheap one; integer remainders use the % operator
    src = pathlib.Path(dom.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "np.mod(" in line or "np.remainder(" in line
    ]
    assert offenders == []
