import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_glue import domain as dom
from sobolev_glue import gridmap as gm
from sobolev_glue import target as tg
from sobolev_glue.errors import DomainError, ParameterError, PreconditionError


def _linear_map(domain, coeffs, offset):
    # Multilinear data: nodewise a.x + b, reproduced exactly by the
    # interpolation inside every cell.
    mesh = gm.node_mesh(domain)
    vals = mesh @ np.asarray(coeffs).T + np.asarray(offset)
    vals = vals.reshape(domain.shape + (vals.shape[-1],))
    return gm.GridMap(domain=domain, target=tg.euclidean(vals.shape[-1]), values=vals)


def test_evaluate_is_exact_at_nodes():
    d = dom.square(7, 5)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=d.shape + (3,))
    m = gm.GridMap(domain=d, target=tg.euclidean(3), values=vals)
    out = gm.evaluate_batch(m, gm.node_mesh(d))
    np.testing.assert_allclose(out, vals.reshape(-1, 3), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_interpolation_reproduces_linear_functions(x, y, a, b):
    d = dom.square(9, 9)
    m = _linear_map(d, [[a, b]], [0.5])
    got = gm.evaluate(m, (x, y))
    assert got[0] == pytest.approx(a * x + b * y + 0.5, abs=1e-12)


def test_periodic_axis_wraps_instead_of_failing():
    d = dom.circle(16)
    m = gm.sample_function(d, tg.euclidean(1), lambda t: np.cos(t))
    inside = gm.evaluate(m, (0.3,))
    wrapped = gm.evaluate(m, (0.3 + 2.0 * np.pi,))
    assert wrapped == pytest.approx(inside, abs=1e-12)
    negative = gm.evaluate(m, (0.3 - 2.0 * np.pi,))
    assert negative == pytest.approx(inside, abs=1e-12)


def test_evaluation_outside_an_interval_axis_is_a_domain_error():
    d = dom.square(5, 5)
    m = _linear_map(d, [[1.0, 0.0]], [0.0])
    with pytest.raises(DomainError):
        gm.evaluate(m, (1.5, 0.5))
    with pytest.raises(DomainError):
        gm.evaluate(m, (-0.5, 0.5))
    # A hair outside is clamped, not rejected.
    got = gm.evaluate(m, (1.0 + 1e-12, 0.5))
    assert got[0] == pytest.approx(1.0, abs=1e-9)


def test_constraint_tolerance_is_enforced_on_construction():
    d = dom.circle(8)
    theta = d.axes[0].coordinates()
    good = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    m = gm.GridMap(domain=d, target=tg.circle(), values=good, constraint_tol=1e-9)
    assert not m.values.flags.writeable
    bad = good * 1.5
    with pytest.raises(PreconditionError):
        gm.GridMap(domain=d, target=tg.circle(), values=bad, constraint_tol=1e-9)
    # The default tolerance is resolution dependent (10 h), so the same
    # stray data is admitted when no explicit tolerance is given.
    loose = gm.GridMap(domain=d, target=tg.circle(), values=bad)
    assert loose.constraint_tol == pytest.approx(10.0 * d.max_spacing)
    # a NaN would pass every node; infinite or negative bounds mean nothing
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ParameterError):
            gm.GridMap(domain=d, target=tg.circle(), values=good, constraint_tol=tol)
        with pytest.raises(ParameterError):
            gm.TraceMap(base=d, target=tg.circle(), values=good, constraint_tol=tol)


def test_value_shape_must_match_domain():
    d = dom.square(4, 4)
    with pytest.raises(ParameterError):
        gm.GridMap(domain=d, target=tg.euclidean(2), values=np.zeros((4, 5, 2)))
    with pytest.raises(ParameterError):
        gm.GridMap(domain=d, target=tg.euclidean(2), values=np.zeros((4, 4)))


def test_extract_set_boundary_round_trip():
    d = dom.cylinder(12, 6)
    rng = np.random.default_rng(5)
    m = gm.GridMap(domain=d, target=tg.euclidean(2), values=rng.normal(size=(12, 6, 2)))
    tr = gm.extract_trace(m, "bottom")
    assert tr.base.kind == "circle"
    assert np.array_equal(tr.values, m.values[:, 0, :])
    replaced = gm.set_boundary(m, "bottom", tr)
    assert np.array_equal(replaced.values, m.values)
    other = gm.TraceMap(base=tr.base, target=tr.target, values=tr.values + 1.0)
    bumped = gm.set_boundary(m, "bottom", other)
    assert np.array_equal(bumped.values[:, 0, :], m.values[:, 0, :] + 1.0)
    assert np.array_equal(bumped.values[:, 1:, :], m.values[:, 1:, :])


def test_set_boundary_rejects_mismatched_trace():
    d = dom.cylinder(12, 6)
    m = gm.GridMap(domain=d, target=tg.euclidean(2), values=np.zeros((12, 6, 2)))
    short = gm.TraceMap(
        base=dom.circle(8), target=tg.euclidean(2), values=np.zeros((8, 2))
    )
    with pytest.raises(DomainError):
        gm.set_boundary(m, "bottom", short)


def test_sample_function_stores_values_verbatim():
    d = dom.circle(10)
    m = gm.sample_function(
        d,
        tg.circle(),
        lambda pts: np.stack([np.cos(pts[:, 0]), np.sin(pts[:, 0])], axis=-1),
        constraint_tol=1e-12,
    )
    theta = d.axes[0].coordinates()
    np.testing.assert_array_equal(m.values[:, 0], np.cos(theta))
    np.testing.assert_array_equal(m.values[:, 1], np.sin(theta))


def test_trace_map_domain_alias():
    tr = gm.sample_trace(dom.circle(6), tg.euclidean(1), lambda t: t[..., None] * 0.0)
    assert tr.domain is tr.base
    assert tr.nu == 1
