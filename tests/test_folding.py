"""Folding two extensions through a common bottom trace.

The energy bound comes from numpy's SVD of the two wedge substitutions;
the energies are checked against a hand-integrated affine example, and
the trace contract against the public face extraction.
"""

import numpy as np
import pytest

from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import folding as fo
from sobolev_glue import gridmap as gm
from sobolev_glue import target as tg
from sobolev_glue.errors import DomainError, ParameterError, PreconditionError


def _fold_energy_bound(p):
    """Ceiling for energy_out / (energy_in_0 + energy_in_1) from the largest wedge stretch."""
    matrices = (fo.FIRST_WEDGE_MATRIX, fo.REFLECTED_WEDGE_MATRIX)
    stretch = max(float(np.linalg.svd(m, compute_uv=False)[0]) for m in matrices)
    return stretch**p / 2.0 + 1.0


def _region_code(x1, x2):
    # the documented rule written out: 0 first map, 1 reflected, 2 copied;
    # ties go to the earlier region
    if x1 <= x2 / 2.0:
        return 0
    if x1 <= x2:
        return 1
    return 2


def test_region_classification_with_tie_breaks():
    x1 = [0.1, 0.4, 0.5, 0.8, 0.9, 0.5, 0.0]
    x2 = [0.8, 0.8, 0.8, 0.8, 0.8, 0.0, 0.0]
    region, _, _ = fo.fold_sources(x1, x2)
    # ties x1 = x2/2 (second point) and x1 = x2 (fourth) sit with the
    # earlier region
    assert region.tolist() == [0, 0, 1, 1, 2, 2, 0]


def test_shared_rule_matches_the_classifier_and_substitutes():
    # tie points of both region borders, a point inside each region, and
    # the bottom edge
    x1 = np.array([0.1, 0.4, 0.5, 0.8, 0.9, 0.5, 0.0, 0.25, 0.5])
    x2 = np.array([0.8, 0.8, 0.8, 0.8, 0.8, 0.0, 0.0, 0.5, 0.5])
    region, s1, s2 = fo.fold_sources(x1, x2)
    assert region.tolist() == [_region_code(a, b) for a, b in zip(x1, x2)]
    first = region == 0
    reflected = region == 1
    copied = region == 2
    assert first.any() and reflected.any() and copied.any()
    np.testing.assert_array_equal(s1[first], 2.0 * x1[first])
    np.testing.assert_array_equal(s2[first], x2[first] - 2.0 * x1[first])
    np.testing.assert_array_equal(s1[reflected], x2[reflected])
    np.testing.assert_array_equal(s2[reflected], 2.0 * x1[reflected] - x2[reflected])
    np.testing.assert_array_equal(s1[copied], x1[copied])
    np.testing.assert_array_equal(s2[copied], x2[copied])


def test_region_measures_are_quarter_quarter_half():
    rng = np.random.default_rng(1)
    pts = rng.random((20000, 2))
    regions, _, _ = fo.fold_sources(pts[:, 0], pts[:, 1])
    frac = [float(np.mean(regions == code)) for code in (0, 1, 2)]
    assert frac[0] == pytest.approx(0.25, abs=0.02)
    assert frac[1] == pytest.approx(0.25, abs=0.02)
    assert frac[2] == pytest.approx(0.50, abs=0.02)


def _affine_pair(n, v, w):
    # Two extensions of the zero bottom trace, linear in the depth
    # coordinate x2.  The folded output is piecewise affine, so its
    # continuum energy integrates in closed form.
    d = dom.square(n, n)
    mesh = gm.node_mesh(d).reshape(n, n, 2)
    x2 = mesh[..., 1:2]
    u0 = gm.GridMap(domain=d, target=tg.euclidean(2), values=x2 * np.asarray(v))
    u1 = gm.GridMap(domain=d, target=tg.euclidean(2), values=x2 * np.asarray(w))
    return u0, u1


def _affine_fold_exact_energy(v, w):
    # |D(x2 - 2 x1)|^2 = 5 on the first wedge (area 1/4), likewise 5 on
    # the reflected wedge (area 1/4), and |D x2|^2 = 1 on the copied half.
    v2 = float(np.dot(v, v))
    w2 = float(np.dot(w, w))
    return 5.0 * v2 / 4.0 + 5.0 * w2 / 4.0 + w2 / 2.0


def test_affine_pair_energy_matches_hand_integration():
    n = 129
    h = 1.0 / (n - 1)
    for v, w in (((1.0, 0.0), (0.0, 1.0)), ((0.5, 0.2), (-0.3, 0.7))):
        u0, u1 = _affine_pair(n, v, w)
        report = fo.verify_fold_traces(fo.fold(u0, u1), u0, u1)
        exact = _affine_fold_exact_energy(v, w)
        scale = float(np.dot(v, v) + np.dot(w, w))
        # first order quadrature error along the fold seams
        assert abs(report.energy_out - exact) <= 5.0 * h * max(scale, 1.0)
        assert report.ratio <= _fold_energy_bound(2.0)


def test_affine_pair_frozen_values():
    u0, u1 = _affine_pair(129, (1.0, 0.0), (0.0, 1.0))
    report = fo.verify_fold_traces(fo.fold(u0, u1), u0, u1)
    assert _affine_fold_exact_energy((1.0, 0.0), (0.0, 1.0)) == 3.0
    assert report.energy_out == pytest.approx(2.9765625, abs=1e-10)
    assert report.energy_in_0 == pytest.approx(1.0, rel=1e-12)
    assert report.energy_in_1 == pytest.approx(1.0, rel=1e-12)


def _smooth_pair(rng, n, n2=None):
    # Random low-frequency fields with equal bottom rows, on an n x n2
    # square (n x n by default).
    n2 = n if n2 is None else n2
    d = dom.square(n, n2)
    mesh = gm.node_mesh(d).reshape(n, n2, 2)
    x1, x2 = mesh[..., 0], mesh[..., 1]

    def field():
        out = np.zeros((n, n2, 2))
        for k1 in range(3):
            for k2 in range(3):
                amp = rng.normal(size=2) / (1.0 + k1 * k1 + k2 * k2)
                out += amp * np.cos(np.pi * (k1 * x1 + k2 * x2))[..., None]
        return out

    v0, v1 = field(), field()
    v1 = v1 - v1[:, 0, None, :] + v0[:, 0, None, :]  # equalize bottom traces
    u0 = gm.GridMap(domain=d, target=tg.euclidean(2), values=v0)
    u1 = gm.GridMap(domain=d, target=tg.euclidean(2), values=v1)
    return u0, u1


def _sphere_pair(rng, n1, n2):
    # S^2-valued matched pair: smooth planar fields through
    # x -> (1.5 x, 1) / |(1.5 x, 1)|, so the bottom traces stay equal
    u0, u1 = _smooth_pair(rng, n1, n2)

    def lift(u):
        y = np.concatenate([1.5 * u.values, np.ones(u.values.shape[:-1] + (1,))], axis=-1)
        values = y / np.linalg.norm(y, axis=-1, keepdims=True)
        return gm.GridMap(domain=u.domain, target=tg.sphere(3), values=values)

    return lift(u0), lift(u1)


def test_fold_projects_interpolated_values_back_onto_the_sphere():
    # On a 129 x 97 square about a third of the fold's sources fall
    # between grid nodes, so the fold interpolates, and its multilinear
    # values sit inside the sphere until the fold projects them back.
    u0, u1 = _sphere_pair(np.random.default_rng(9), 129, 97)
    d = u0.domain
    mesh = gm.node_mesh(d)
    region, s1, s2 = fo.fold_sources(mesh[:, 0], mesh[:, 1])
    resampled = region < 2
    sources = np.stack([s1, s2], axis=-1)
    steps = sources / [axis.spacing for axis in d.axes]
    between = np.any(np.abs(steps - np.round(steps)) > 1e-9, axis=-1)
    assert 0.30 < between.mean() < 0.36
    raw = np.where(
        (region == 0)[:, None],
        gm.evaluate_batch(u0, sources),
        gm.evaluate_batch(u1, sources),
    )
    assert np.max(np.abs(np.linalg.norm(raw[resampled], axis=-1) - 1.0)) > 1e-4

    folded = fo.fold(u0, u1)
    out = folded.values.reshape(-1, 3)
    assert np.max(np.abs(np.linalg.norm(out, axis=-1) - 1.0)) <= 4.0 * np.finfo(float).eps
    copied = ~resampled
    assert out[copied].tobytes() == u1.values.reshape(-1, 3)[copied].tobytes()
    assert max(fo.fold_trace_errors(folded, u0, u1)) < 10.0 * d.max_spacing


def test_bottom_trace_is_copied_bit_exactly():
    u0, u1 = _smooth_pair(np.random.default_rng(3), 65)
    folded = fo.fold(u0, u1)
    bottom = gm.extract_trace(folded, "bottom")
    assert np.array_equal(bottom.values, gm.extract_trace(u1, "bottom").values)


def test_side_traces_are_node_exact():
    # The left edge x1 = 0 lies entirely in the first region and the
    # right edge x1 = 1 in the copied one, so both side traces land on
    # nodes of the respective input and come out exact.
    for n in (33, 65):
        u0, u1 = _smooth_pair(np.random.default_rng(4), n)
        check = fo.verify_fold_traces(fo.fold(u0, u1), u0, u1)
        assert check.trace_bottom_error == 0.0
        assert check.trace_left_error == 0.0
        assert check.trace_right_error == 0.0


def test_energy_bound_holds_for_several_exponents():
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0):
        bound = _fold_energy_bound(p)
        for _ in range(3):
            u0, u1 = _smooth_pair(rng, 65)
            report = fo.verify_fold_traces(fo.fold(u0, u1), u0, u1, p)
            assert report.p == p
            assert report.ratio <= bound
            assert report.energy_out == pytest.approx(
                report.ratio * (report.energy_in_0 + report.energy_in_1), rel=1e-12
            )


def test_mismatched_bottom_traces_are_rejected():
    u0, u1 = _smooth_pair(np.random.default_rng(6), 33)
    shifted = gm.GridMap(
        domain=u1.domain, target=u1.target, values=u1.values + 1.0
    )
    with pytest.raises(PreconditionError):
        fo.fold(u0, shifted)
    # An explicit generous tolerance admits the same pair.
    folded = fo.fold(u0, shifted, trace_tol=2.0)
    assert folded.domain == u0.domain


def test_single_corrupted_trace_node_is_detected():
    u0, u1 = _smooth_pair(np.random.default_rng(7), 33)
    delta = 0.01
    vals = np.array(u1.values)
    vals[5, 0, 0] += delta
    bumped = gm.GridMap(domain=u1.domain, target=u1.target, values=vals)
    with pytest.raises(PreconditionError):
        fo.fold(u0, bumped, trace_tol=delta / 2.0)
    folded = fo.fold(u0, bumped, trace_tol=2.0 * delta)
    check = fo.verify_fold_traces(folded, u0, bumped)
    # the sup norm sees exactly the planted defect against the first map
    assert check.trace_bottom_error == pytest.approx(delta, rel=1e-9)
    # the report's errors are the ones the bare trace check measures
    assert fo.fold_trace_errors(folded, u0, bumped) == (
        check.trace_bottom_error,
        check.trace_left_error,
        check.trace_right_error,
    )


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_tolerance_that_is_nan_negative_or_infinite_is_a_parameter_error(tol):
    # bottom traces (1, 0) and (0, 1) differ by sqrt(2) at every node; a
    # nan tolerance used to fold them silently, because gap > nan is false
    d = dom.square(9, 9)
    a = gm.GridMap(domain=d, target=tg.euclidean(2), values=np.tile([1.0, 0.0], (9, 9, 1)))
    b = gm.GridMap(domain=d, target=tg.euclidean(2), values=np.tile([0.0, 1.0], (9, 9, 1)))
    with pytest.raises(ParameterError):
        fo.fold(a, b, trace_tol=tol)
    with pytest.raises(ParameterError):
        fo.fold(a, a, trace_tol=tol)
    # zero is a valid tolerance: identical traces fold, distinct ones do not
    assert fo.fold(a, a, trace_tol=0.0).domain == d
    with pytest.raises(PreconditionError):
        fo.fold(a, b, trace_tol=0.0)


def test_fold_rejects_mismatched_inputs():
    d = dom.square(17, 17)
    other = dom.square(17, 16)
    a = gm.GridMap(domain=d, target=tg.euclidean(1), values=np.zeros((17, 17, 1)))
    b = gm.GridMap(domain=other, target=tg.euclidean(1), values=np.zeros((17, 16, 1)))
    with pytest.raises(DomainError):
        fo.fold(a, b)
    c = gm.GridMap(domain=d, target=tg.euclidean(2), values=np.zeros((17, 17, 2)))
    with pytest.raises(DomainError):
        fo.fold(a, c)
    with pytest.raises(DomainError):
        fo.fold_trace_errors(c, a, a)  # folded map on another target
    circ = dom.cylinder(8, 8)
    e = gm.GridMap(domain=circ, target=tg.euclidean(1), values=np.zeros((8, 8, 1)))
    with pytest.raises(DomainError):
        fo.fold(e, e)


def test_fold_on_a_cube_collar():
    # Three dimensional variant: same region split along the last axis.
    d = dom.cube(8, 6, 9)
    rng = np.random.default_rng(8)
    base = rng.normal(size=(8, 6, 1, 2)) * np.ones((1, 1, 9, 1))
    u0 = gm.GridMap(domain=d, target=tg.euclidean(2), values=base)
    u1 = gm.GridMap(domain=d, target=tg.euclidean(2), values=np.array(base))
    report = fo.verify_fold_traces(fo.fold(u0, u1), u0, u1)
    assert report.trace_bottom_error == 0.0
    assert report.ratio <= _fold_energy_bound(2.0)
