import pathlib

import numpy as np
import pytest

from sobolev_glue import target as tg
from sobolev_glue.errors import ParameterError, SingularityError


def test_constructors_fix_kind_and_dimension():
    assert tg.euclidean(3).kind == "euclidean"
    assert not tg.euclidean(3).constrained
    assert tg.circle().nu == 2
    assert tg.circle().constrained
    assert tg.sphere(4).nu == 4
    assert tg.sphere(4).constrained


def test_sphere_needs_at_least_three_components():
    with pytest.raises(ParameterError):
        tg.sphere(1)
    with pytest.raises(ParameterError):
        tg.TargetSpec(kind="sphere", nu=1)
    # S^1 is only ever the circle target, which compares unequal to any sphere
    with pytest.raises(ParameterError, match=r"circle\(\)"):
        tg.sphere(2)
    with pytest.raises(ParameterError):
        tg.TargetSpec(kind="torus", nu=2)


def test_projection_normalizes_and_is_idempotent():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(40, 3))
    proj = tg.project_to_target(tg.sphere(3), y)
    norms = np.linalg.norm(proj, axis=-1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-15)
    again = tg.project_to_target(tg.sphere(3), proj)
    np.testing.assert_allclose(again, proj, rtol=0, atol=1e-15)


def test_projection_on_euclidean_target_is_identity():
    y = np.arange(12.0).reshape(4, 3)
    out = tg.project_to_target(tg.euclidean(3), y)
    assert np.array_equal(out, y)


def test_projecting_the_origin_is_singular():
    y = np.zeros((2, 2))
    y[1] = (1.0, 0.0)
    with pytest.raises(SingularityError):
        tg.project_to_target(tg.circle(), y)


def test_distance_to_target_is_norm_defect():
    y = np.array([[2.0, 0.0], [0.0, 0.5], [1.0, 0.0], [0.0, 0.0]])
    d = tg.distance_to_target(tg.circle(), y)
    np.testing.assert_allclose(d, [1.0, 0.5, 0.0, 1.0], atol=1e-15)
    assert np.all(tg.distance_to_target(tg.euclidean(2), y) == 0.0)


def test_projection_is_stable_near_the_sphere():
    # Lipschitz-type sanity: small perturbation moves the projection a
    # comparably small amount.
    rng = np.random.default_rng(11)
    base = tg.project_to_target(tg.sphere(3), rng.normal(size=(30, 3)))
    noisy = base + 1e-6 * rng.normal(size=base.shape)
    moved = tg.project_to_target(tg.sphere(3), noisy)
    assert np.max(np.linalg.norm(moved - base, axis=-1)) < 1e-5


def test_no_component_norm_outside_sum_of_squares():
    # the square root of sum_of_squares is the package's one component
    # norm; np.linalg.norm has the same bits and is not spelled twice
    src = pathlib.Path(tg.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "np.linalg.norm(" in line
    ]
    assert offenders == []
