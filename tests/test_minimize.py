"""Projected descent for extension energies, checked against the exact
lifting oracle on the circle and against finite differences.
"""

import numpy as np
import pytest

from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import gridmap as gm
from sobolev_glue import minimize as mi
from sobolev_glue import target as tg
from sobolev_glue.errors import (
    LiftingError,
    ParameterError,
)


def _degree_trace(n, degree, tol=1e-12):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.stack([np.cos(degree * t), np.sin(degree * t)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=tol)


def test_lifting_oracle_degree_one_is_two_pi():
    u = _degree_trace(64, 1)
    collar = dom.cylinder(64, 24)
    lifted, energy = mi.circle_lifting_oracle(u, collar)
    assert energy == pytest.approx(2.0 * np.pi, rel=1e-12)
    # the oracle re-wraps its unwrapped angles, exact only to rounding
    np.testing.assert_allclose(lifted.values[:, 0, :], u.values, atol=1e-12)


def test_lifting_oracle_degree_two_is_exactly_eight_pi():
    # the angle defect of pure winding data is constant, so the harmonic
    # part is constant and the energy collapses to the winding term,
    # which the edge quadrature reproduces without discretization error
    u = _degree_trace(48, 2)
    collar = dom.cylinder(48, 16)
    _, energy = mi.circle_lifting_oracle(u, collar)
    assert energy == pytest.approx(8.0 * np.pi, rel=1e-14)


def test_lifting_oracle_constant_data_has_zero_energy():
    base = dom.circle(32)
    vals = np.tile([np.cos(0.3), np.sin(0.3)], (32, 1))
    u = gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)
    _, energy = mi.circle_lifting_oracle(u, dom.cylinder(32, 8))
    assert energy == pytest.approx(0.0, abs=1e-24)


def test_lifting_oracle_rejects_bad_inputs():
    u = _degree_trace(32, 1)
    with pytest.raises(ParameterError):
        mi.circle_lifting_oracle(u, dom.square(32, 8))
    antipodal = np.ones((32, 2)) * np.array([1.0, 0.0])
    antipodal[16:] = (-1.0, 0.0)
    jumpy = gm.TraceMap(
        base=dom.circle(32), target=tg.circle(), values=antipodal, constraint_tol=1e-9
    )
    with pytest.raises(LiftingError):
        mi.circle_lifting_oracle(jumpy, dom.cylinder(32, 8))
    dead = np.array(antipodal)
    dead[3] = (0.0, 0.0)
    vanishing = gm.TraceMap(
        base=dom.circle(32), target=tg.circle(), values=dead, constraint_tol=2.0
    )
    with pytest.raises(LiftingError):
        mi.circle_lifting_oracle(vanishing, dom.cylinder(32, 8))


def test_descent_brackets_the_oracle_on_degree_one_data():
    n, n_depth = 64, 24
    u = _degree_trace(n, 1)
    collar = dom.cylinder(n, n_depth)
    _, oracle = mi.circle_lifting_oracle(u, collar)
    cfg = mi.MinimizeConfig(max_iterations=600)
    res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
    # the chord energy of wrapped values sits just below the lift energy
    assert res.energy >= 0.99 * oracle
    assert res.energy <= 1.05 * oracle
    diffs = np.diff(res.energies)
    assert np.all(diffs <= 1e-12)  # accepted steps never increase
    assert np.array_equal(res.map.values[:, 0, :], u.values)
    assert res.gradient_sup >= 0.0


def test_constant_trace_converges_immediately_to_zero():
    base = dom.circle(24)
    u = gm.TraceMap(base=base, target=tg.euclidean(2), values=np.ones((24, 2)))
    res = mi.minimize_extension_detailed(
        u, dom.cylinder(24, 8), tg.euclidean(2), mi.MinimizeConfig()
    )
    assert res.energy == 0.0
    assert res.converged
    assert res.iterations <= 2


def test_exact_gradient_matches_fourth_order_differences():
    rng = np.random.default_rng(2)
    d = dom.cylinder(12, 7)
    vals = rng.normal(size=(12, 7, 2))
    m = gm.GridMap(domain=d, target=tg.euclidean(2), values=vals)
    delta = 1e-4
    for p in (1.5, 2.0, 3.0):
        grad = mi.dirichlet_gradient(m, p)
        worst = 0.0
        for _ in range(12):
            i = rng.integers(12)
            j = rng.integers(7)
            c = rng.integers(2)

            def energy_at(x):
                w = np.array(vals)
                w[i, j, c] = x
                probe = gm.GridMap(domain=d, target=tg.euclidean(2), values=w)
                return en.dirichlet_p_energy(probe, p).value

            x0 = vals[i, j, c]
            fd = (
                8.0 * (energy_at(x0 + delta) - energy_at(x0 - delta))
                - (energy_at(x0 + 2 * delta) - energy_at(x0 - 2 * delta))
            ) / (12.0 * delta)
            worst = max(worst, abs(fd - grad[i, j, c]))
        assert worst <= 1e-6, f"p={p}: gradient mismatch {worst}"


def test_gradient_requires_p_above_one():
    d = dom.cylinder(8, 4)
    m = gm.GridMap(domain=d, target=tg.euclidean(1), values=np.zeros((8, 4, 1)))
    with pytest.raises(ParameterError):
        mi.dirichlet_gradient(m, 1.0)


def test_config_validation():
    with pytest.raises(ParameterError):
        mi.MinimizeConfig(p=1.0)
    with pytest.raises(ParameterError):
        mi.MinimizeConfig(max_iterations=0)
    with pytest.raises(ParameterError):
        mi.MinimizeConfig(step=0.0)
    with pytest.raises(ParameterError):
        mi.MinimizeConfig(tol=0.0)
    with pytest.raises(ParameterError):
        mi.MinimizeConfig(projection="always")


def test_trace_and_target_must_agree():
    u = _degree_trace(16, 1)
    with pytest.raises(ParameterError):
        mi.minimize_extension(u, dom.cylinder(16, 6), tg.euclidean(2), mi.MinimizeConfig())
    with pytest.raises(ParameterError):
        mi.minimize_extension(u, dom.cylinder(24, 6), tg.circle(), mi.MinimizeConfig())


def test_penalized_descent_relaxes_below_the_constrained_energy():
    n, n_depth = 48, 16
    u = _degree_trace(n, 1)
    collar = dom.cylinder(n, n_depth)
    cfg = mi.MinimizeConfig(max_iterations=500)
    pen = en.distance_penalty(0.25, 2.0, tg.circle())
    relaxed, e_pen = mi.minimize_penalized(u, pen, collar, cfg)
    assert 0.0 < e_pen <= 2.0 * np.pi + 1e-6
    assert relaxed.target == tg.euclidean(2)
    assert np.array_equal(relaxed.values[:, 0, :], u.values)
    with pytest.raises(ParameterError):
        mi.minimize_penalized(u, en.no_penalty(), collar, cfg)


@pytest.mark.parametrize("p, eps", [(2.0, None), (3.0, None), (2.0, 0.25)])
def test_last_descent_energy_is_the_reported_energy(p, eps):
    # the descent objective and the reported energy share one
    # implementation, so the last accepted value is bit-identical
    u = _degree_trace(24, 1)
    t = u.base.axes[0].coordinates()
    wobble = t + 0.3 * np.sin(2.0 * t)
    u = gm.TraceMap(
        base=u.base,
        target=tg.circle(),
        values=np.stack([np.cos(wobble), np.sin(wobble)], axis=-1),
    )
    collar = dom.cylinder(24, 8)
    cfg = mi.MinimizeConfig(p=p, max_iterations=40)
    if eps is None:
        res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
    else:
        pen = en.distance_penalty(eps, p, tg.circle())
        res = mi.minimize_penalized_detailed(u, pen, collar, cfg)
    assert res.iterations >= 1
    assert res.energies[-1] == res.energy


def test_deeper_collars_carry_more_energy():
    n, n_depth = 48, 16
    u = _degree_trace(n, 1)
    cfg = mi.MinimizeConfig(max_iterations=500)
    _, shallow = mi.minimize_extension(
        u, dom.cylinder(n, n_depth, depth=0.5), tg.circle(), cfg
    )
    _, deep = mi.minimize_extension(
        u, dom.cylinder(n, n_depth, depth=1.0), tg.circle(), cfg
    )
    assert shallow <= deep * 1.01


def test_sweep_flags_on_winding_data():
    u = _degree_trace(32, 1)
    cfg = mi.MinimizeConfig(max_iterations=300)
    sweep = mi.isobe_sweep(u, 2.0, (0.5, 0.25), (1.0, 0.5), cfg, n_depth=10)
    assert len(sweep.triples) == 4
    for eps, depth, energy in sweep.triples:
        assert np.isfinite(energy)
        assert energy <= 1.1 * 2.0 * np.pi
    assert sweep.bounded_in_eps
    assert sweep.depth_limit_vanishes


def test_sweep_validates_parameters():
    u = _degree_trace(16, 1)
    cfg = mi.MinimizeConfig()
    with pytest.raises(ParameterError):
        mi.isobe_sweep(u, 2.0, (), (1.0,), cfg)
    with pytest.raises(ParameterError):
        mi.isobe_sweep(u, 2.0, (0.5,), (-1.0,), cfg)
    free = gm.TraceMap(
        base=dom.circle(16), target=tg.euclidean(2), values=np.ones((16, 2))
    )
    with pytest.raises(ParameterError):
        mi.isobe_sweep(free, 2.0, (0.5,), (1.0,), cfg)
    on_interval = gm.TraceMap(
        base=dom.interval(16), target=tg.circle(), values=np.tile([1.0, 0.0], (16, 1))
    )
    with pytest.raises(ParameterError):
        mi.isobe_sweep(on_interval, 2.0, (0.5,), (1.0,), cfg)


def _wiggle_trace(rng, n):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    psi = np.zeros(n)
    for k in range(1, 5):
        a, b = rng.normal(size=2)
        psi += (a * np.cos(k * t) + b * np.sin(k * t)) / k**2
    vals = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)


def test_extension_to_seminorm_ratio_is_stable_at_p_three_halves():
    # degree-zero family at p = 3/2, s = 1 - 1/p = 1/3: the worst ratio
    # of descent energy to pair-sum seminorm moves by less than 30
    # percent under one grid refinement
    p = 1.5
    s = 1.0 - 1.0 / p
    cfg = mi.MinimizeConfig(p=p, max_iterations=400)
    ratios = {}
    for n in (48, 96):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(4):
            u = _wiggle_trace(rng, n)
            collar = dom.cylinder(n, max(8, n // 6))
            _, ext = mi.minimize_extension(u, collar, tg.circle(), cfg)
            gag = en.gagliardo_energy(u, s, p).value
            worst = max(worst, ext / gag)
        ratios[n] = worst
    drift = abs(ratios[96] - ratios[48]) / ratios[48]
    assert drift <= 0.3, f"ratio drift {drift:.3f} across refinement"
