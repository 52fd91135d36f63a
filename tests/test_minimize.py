"""Projected descent for extension energies, checked against the exact
lifting oracle on the circle and against finite differences.
"""

import functools

import numpy as np
import pytest

from sobolev_glue import acceptance as acc
from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import gridmap as gm
from sobolev_glue import minimize as mi
from sobolev_glue import target as tg
from sobolev_glue.errors import (
    LiftingError,
    ParameterError,
    SingularityError,
)


def _degree_trace(n, degree, tol=1e-12):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.stack([np.cos(degree * t), np.sin(degree * t)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=tol)


def _winding_chord_energy(degree, collar):
    # a pure winding map is constant in depth, and each theta edge is a
    # chord of angle degree * h: 2 pi L (2 sin(degree h / 2) / h)^2
    h, depth = collar.axes[0].spacing, collar.axes[1].length
    return 2.0 * np.pi * depth * (2.0 * np.sin(degree * h / 2.0) / h) ** 2


def test_lifting_oracle_degree_one_is_two_pi():
    u = _degree_trace(64, 1)
    collar = dom.cylinder(64, 24)
    lifted, energy = mi.circle_lifting_oracle(u, collar)
    _check_oracle_energy(lifted, energy, 1)
    assert energy == pytest.approx(_winding_chord_energy(1, collar), rel=1e-12)
    # 2 pi is the lifting's energy, an arc above every chord
    h_theta, h_t = collar.axes[0].spacing, collar.axes[1].spacing
    lifting = _lifting_energy(_harmonic_part(lifted, 1), 1, h_theta, h_t)
    assert lifting == pytest.approx(2.0 * np.pi, rel=1e-12)
    # the oracle re-wraps its unwrapped angles, exact only to rounding
    np.testing.assert_allclose(lifted.values[:, 0, :], u.values, atol=1e-12)


def test_lifting_oracle_degree_two_is_exactly_eight_pi():
    # the angle defect of pure winding data is constant, so the harmonic
    # part is constant and the lifting's energy collapses to the winding
    # term, which the edge quadrature reproduces without discretization
    # error; the map's own energy is the chord closed form below it
    u = _degree_trace(48, 2)
    collar = dom.cylinder(48, 16)
    lifted, energy = mi.circle_lifting_oracle(u, collar)
    _check_oracle_energy(lifted, energy, 2)
    assert energy == pytest.approx(_winding_chord_energy(2, collar), rel=1e-14)
    h_theta, h_t = collar.axes[0].spacing, collar.axes[1].spacing
    lifting = _lifting_energy(_harmonic_part(lifted, 2), 2, h_theta, h_t)
    assert lifting == pytest.approx(8.0 * np.pi, rel=1e-14)


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


def _lifted_trace(n, degree, psi_bottom):
    base = dom.circle(n)
    phi = degree * base.axes[0].coordinates() + psi_bottom
    vals = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)


def _harmonic_part(lifted, degree):
    # angle of the map relative to the winding part; exact while |psi| < pi
    theta = lifted.domain.axes[0].coordinates()[:, None]
    z = (lifted.values[..., 0] + 1j * lifted.values[..., 1]) * np.exp(-1j * degree * theta)
    return np.angle(z)


def _edge_sum(v, h_theta, h_t, winding=0.0):
    # p = 2 edge sum on a cylinder: theta edges below the top row, each
    # plus ``winding``, and depth edges between adjacent rows
    d_theta = np.roll(v, -1, axis=0)[:, :-1] - v[:, :-1] + winding
    d_t = np.diff(v, axis=1)
    return float((np.sum(d_theta**2) / h_theta**2 + np.sum(d_t**2) / h_t**2) * h_theta * h_t)


def _lifting_energy(psi, degree, h_theta, h_t):
    # edge sum of the lifting degree * theta + psi
    return _edge_sum(psi, h_theta, h_t, degree * h_theta)


def _chord_energy(values, h_theta, h_t):
    # edge sum of a circle-valued map: each edge a chord between two
    # values on the circle
    return _edge_sum(values, h_theta, h_t)


def _check_oracle_energy(lifted, energy, degree):
    """The oracle's number is the cell sum of the map it returns.

    It matches the chord sum of that map and ``dirichlet_p_energy`` bit
    for bit, and it lies at most at the lifting's energy, because no
    chord is longer than its arc.
    """
    h_theta, h_t = lifted.domain.axes[0].spacing, lifted.domain.axes[1].spacing
    assert energy == en.dirichlet_p_energy(lifted, 2.0).value
    assert energy == pytest.approx(_chord_energy(lifted.values, h_theta, h_t), rel=1e-13)
    lifting = _lifting_energy(_harmonic_part(lifted, degree), degree, h_theta, h_t)
    assert energy <= lifting * (1.0 + 1e-13)


def _sparse_reference_psi(psi_bottom, n, n_t, h_theta, h_t):
    """The lifted harmonic problem assembled edge by edge and solved sparse."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    w_theta, w_t = h_t / h_theta, h_theta / h_t
    n_free = n * (n_t - 1)
    rows, cols, data = [], [], []
    rhs = np.zeros(n_free)
    for j in range(n_t - 1):
        for i in range(n):
            # theta edge (i, j)-(i+1, j) and depth edge (i, j)-(i, j+1)
            for (ia, ja), (ib, jb), w in (
                ((i, j), ((i + 1) % n, j), w_theta),
                ((i, j), (i, j + 1), w_t),
            ):
                free = [(jj - 1) * n + ii if jj >= 1 else None for ii, jj in ((ia, ja), (ib, jb))]
                pinned = [psi_bottom[ii] for ii in (ia, ib)]
                for me, other, value in ((free[0], free[1], pinned[1]), (free[1], free[0], pinned[0])):
                    if me is None:
                        continue
                    rows.append(me)
                    cols.append(me)
                    data.append(w)
                    if other is None:
                        rhs[me] += w * value
                    else:
                        rows.append(me)
                        cols.append(other)
                        data.append(-w)
    matrix = coo_matrix((data, (rows, cols)), shape=(n_free, n_free)).tocsr()
    psi = np.empty((n, n_t))
    psi[:, 0] = psi_bottom
    psi[:, 1:] = spsolve(matrix, rhs).reshape(n_t - 1, n).T
    return psi


@pytest.mark.parametrize("n", [8, 33, 64])
@pytest.mark.parametrize("n_t", [2, 5, 17])
@pytest.mark.parametrize("degree", [0, 1, -2])
def test_lifting_oracle_matches_a_sparse_direct_solve(n, n_t, degree):
    rng = np.random.default_rng(100 * n + 10 * n_t + degree)
    theta = dom.circle(n).axes[0].coordinates()
    psi_bottom = 0.3 + sum(
        rng.uniform(-0.08, 0.08) * np.cos(k * theta + rng.uniform(0.0, 2.0 * np.pi))
        for k in range(1, 5)
    )
    collar = dom.cylinder(n, n_t)
    lifted, energy = mi.circle_lifting_oracle(_lifted_trace(n, degree, psi_bottom), collar)
    h_theta, h_t = collar.axes[0].spacing, collar.axes[1].spacing
    psi = _sparse_reference_psi(psi_bottom, n, n_t, h_theta, h_t)
    _check_oracle_energy(lifted, energy, degree)
    full = degree * theta[:, None] + psi
    np.testing.assert_allclose(
        lifted.values, np.stack([np.cos(full), np.sin(full)], axis=-1), rtol=0.0, atol=1e-11
    )


def test_lifting_oracle_single_mode_separates_in_theta_and_depth():
    # psi = eps cos(k theta) lifts to eps cos(k theta) a_j, where a solves
    # the depth recurrence of mode k with a_0 = 1
    n, n_t, k, eps, degree = 48, 12, 3, 0.2, 1
    collar = dom.cylinder(n, n_t, depth=0.7)
    h_theta, h_t = collar.axes[0].spacing, collar.axes[1].spacing
    w_theta, w_t = h_t / h_theta, h_theta / h_t
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)
    rows = n_t - 1
    a_mat = np.zeros((rows, rows))
    rhs = np.zeros(rows)
    for r in range(rows):  # row r holds depth index r + 1
        top = r == rows - 1
        a_mat[r, r] = w_t if top else 2.0 * w_t + w_theta * lam
        if r > 0:
            a_mat[r, r - 1] = -w_t
        if not top:
            a_mat[r, r + 1] = -w_t
    rhs[0] = w_t
    profile = np.concatenate([[1.0], np.linalg.solve(a_mat, rhs)])
    theta = collar.axes[0].coordinates()
    psi = eps * np.cos(k * theta)[:, None] * profile[None, :]

    lifted, energy = mi.circle_lifting_oracle(_lifted_trace(n, degree, psi[:, 0]), collar)
    np.testing.assert_allclose(_harmonic_part(lifted, degree), psi, rtol=0.0, atol=1e-13)
    _check_oracle_energy(lifted, energy, degree)
    # a nonzero mode decays into the depth, down to the free top row
    assert np.all(np.diff(profile[:-1]) < 0.0)


def test_lifting_oracle_solves_a_large_cylinder_exactly():
    # ~262k unknowns; the harmonic part satisfies the discrete
    # Euler-Lagrange equations at every free node
    n, n_t, degree = 1024, 256, 2
    theta = dom.circle(n).axes[0].coordinates()
    psi_bottom = 0.5 * np.cos(theta) + 0.3 * np.sin(7.0 * theta) + 0.02 * np.cos(300.0 * theta)
    collar = dom.cylinder(n, n_t)
    lifted, energy = mi.circle_lifting_oracle(_lifted_trace(n, degree, psi_bottom), collar)
    h_theta, h_t = collar.axes[0].spacing, collar.axes[1].spacing
    w_theta, w_t = h_t / h_theta, h_theta / h_t
    psi = _harmonic_part(lifted, degree)
    inner = psi[:, 1:-1]
    residual = w_theta * (
        2.0 * inner - np.roll(inner, 1, axis=0) - np.roll(inner, -1, axis=0)
    ) + w_t * (2.0 * inner - psi[:, :-2] - psi[:, 2:])
    assert np.max(np.abs(residual)) <= 1e-9
    assert np.max(np.abs(w_t * (psi[:, -1] - psi[:, -2]))) <= 1e-9
    _check_oracle_energy(lifted, energy, degree)


def test_descent_brackets_the_oracle_on_degree_one_data():
    n, n_depth = 64, 24
    u = _degree_trace(n, 1)
    collar = dom.cylinder(n, n_depth)
    _, oracle = mi.circle_lifting_oracle(u, collar)
    cfg = mi.MinimizeConfig(max_iterations=600)
    res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
    # the oracle's map is the depth-replicated trace, where the descent
    # starts and stops: both report the chord energy of that map
    assert res.energy >= 0.99 * oracle
    assert res.energy <= 1.05 * oracle
    assert np.array_equal(res.map.values[:, 0, :], u.values)
    assert res.gradient_sup >= 0.0


def test_a_converged_descent_sits_just_below_the_oracle():
    # the oracle's map satisfies the constraint, so its energy bounds the
    # discrete constrained minimum from above and lies O(h^4) from it; a
    # converged descent lands on or just below it
    rng = np.random.default_rng(0)
    collar = dom.cylinder(32, 8)
    cfg = mi.MinimizeConfig(max_iterations=20000, tol=1e-15)
    for _ in range(3):
        u = acc._degree_zero_trace(rng, 32)
        _, reference = mi.circle_lifting_oracle(u, collar)
        res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
        assert res.converged
        assert -1e-4 <= (res.energy - reference) / reference <= 0.0


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
    for tol in (0.0, float("nan"), float("inf")):
        # an infinite tol would stop every descent after one step as converged
        with pytest.raises(ParameterError, match="tolerance"):
            mi.MinimizeConfig(tol=tol)
    # projection is a read-only "auto", not a setting
    assert mi.MinimizeConfig().projection == "auto"
    with pytest.raises(TypeError):
        mi.MinimizeConfig(projection="always")
    with pytest.raises(TypeError, match="projection"):
        mi.MinimizeConfig(projection="none")


def test_trace_and_target_must_agree():
    u = _degree_trace(16, 1)
    with pytest.raises(ParameterError):
        mi.minimize_extension_detailed(
            u, dom.cylinder(16, 6), tg.euclidean(2), mi.MinimizeConfig()
        )
    with pytest.raises(ParameterError):
        mi.minimize_extension_detailed(
            u, dom.cylinder(24, 6), tg.circle(), mi.MinimizeConfig()
        )


def test_penalized_descent_relaxes_below_the_constrained_energy():
    n, n_depth = 48, 16
    u = _degree_trace(n, 1)
    collar = dom.cylinder(n, n_depth)
    cfg = mi.MinimizeConfig(max_iterations=500)
    pen = en.distance_penalty(0.25, 2.0, tg.circle())
    res = mi.minimize_penalized_detailed(u, pen, collar, cfg)
    relaxed, e_pen = res.map, res.energy
    assert 0.0 < e_pen <= 2.0 * np.pi + 1e-6
    assert relaxed.target == tg.euclidean(2)
    assert np.array_equal(relaxed.values[:, 0, :], u.values)
    with pytest.raises(ParameterError):
        mi.minimize_penalized_detailed(u, None, collar, cfg)


@pytest.mark.parametrize("p, eps", [(2.0, None), (3.0, None), (2.0, 0.25)])
def test_last_descent_energy_is_the_reported_energy(p, eps):
    # the reported energy is the last accepted objective, and it is the
    # public penalized_energy of the returned map bit for bit
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
    pen = None if eps is None else en.distance_penalty(eps, p, tg.circle())
    if eps is None:
        res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
    else:
        res = mi.minimize_penalized_detailed(u, pen, collar, cfg)
    assert res.iterations >= 1
    assert en.penalized_energy(res.map, p, pen).value == res.energy


def test_unpenalized_descent_never_builds_a_penalty_gradient(monkeypatch):
    def no_call(*args):
        raise AssertionError("an unpenalized descent has no penalty gradient")

    monkeypatch.setattr(en.PenaltySpec, "gradient", no_call)
    u = _wobbled_trace(20)
    cfg = mi.MinimizeConfig(max_iterations=5)
    res = mi.minimize_extension_detailed(u, dom.cylinder(20, 6), tg.circle(), cfg)
    assert res.iterations == 5


def test_deeper_collars_carry_more_energy():
    n, n_depth = 48, 16
    u = _degree_trace(n, 1)
    cfg = mi.MinimizeConfig(max_iterations=500)
    shallow = mi.minimize_extension_detailed(
        u, dom.cylinder(n, n_depth, depth=0.5), tg.circle(), cfg
    ).energy
    deep = mi.minimize_extension_detailed(
        u, dom.cylinder(n, n_depth, depth=1.0), tg.circle(), cfg
    ).energy
    assert shallow <= deep * 1.01


def test_sweep_flags_on_winding_data():
    u = _degree_trace(32, 1)
    cfg = mi.MinimizeConfig(max_iterations=300)
    sweep = mi.isobe_sweep(u, (0.5, 0.25), (1.0, 0.5), cfg)
    assert len(sweep.triples) == 4
    for eps, depth, energy in sweep.triples:
        assert np.isfinite(energy)
        assert energy <= 1.1 * 2.0 * np.pi
    assert sweep.bounded_in_eps
    assert sweep.converged == (True,) * 4


def _no_descent(*args):
    raise AssertionError("a descent ran before the sweep checked its parameters")


def test_sweep_validates_parameters(monkeypatch):
    u = _degree_trace(16, 1)
    cfg = mi.MinimizeConfig()
    with pytest.raises(ParameterError):
        mi.isobe_sweep(u, (), (1.0,), cfg)
    for depth in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="depth"):
            mi.isobe_sweep(u, (0.5,), (1.0, depth), cfg)
    # a bad width is refused before the first descent runs
    monkeypatch.setattr(mi, "minimize_penalized_detailed", _no_descent)
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="eps"):
            mi.isobe_sweep(u, (0.5, eps), (1.0,), cfg)
    monkeypatch.undo()
    free = gm.TraceMap(
        base=dom.circle(16), target=tg.euclidean(2), values=np.ones((16, 2))
    )
    with pytest.raises(ParameterError):
        mi.isobe_sweep(free, (0.5,), (1.0,), cfg)
    # an interval trace sweeps over square collars; a torus_collar base
    # has no collar kind
    on_interval = gm.TraceMap(
        base=dom.interval(16), target=tg.circle(), values=np.tile([1.0, 0.0], (16, 1))
    )
    assert mi.isobe_sweep(on_interval, (0.5,), (1.0,), cfg).triples == ((0.5, 1.0, 0.0),)
    on_collar = gm.TraceMap(
        base=dom.torus_collar(4, 4, 3), target=tg.circle(), values=np.tile([1.0, 0.0], (4, 4, 3, 1))
    )
    with pytest.raises(ParameterError):
        mi.isobe_sweep(on_collar, (0.5,), (1.0,), cfg)


def _circumference_three_trace(n):
    base = dom.from_kind("circle", (n,), (3.0,))
    t = base.axes[0].coordinates() * (2.0 * np.pi / 3.0)
    vals = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)


def test_sweep_runs_on_a_non_canonical_circle():
    u = _circumference_three_trace(16)
    sweep = mi.isobe_sweep(u, (0.5,), (1.0,), mi.MinimizeConfig(max_iterations=50))
    assert len(sweep.triples) == 1 and sweep.triples[0][2] > 0.0


def test_descent_needs_the_collar_over_the_trace_base():
    u = _circumference_three_trace(16)
    cfg = mi.MinimizeConfig(max_iterations=1)
    own = dom.collar_over(u.base, 6, 1.0)
    assert mi.minimize_extension_detailed(u, own, tg.circle(), cfg).map.domain == own
    # a 2*pi cylinder, a torus collar, and base lengths off by one ulp
    nudged = dom.from_kind("cylinder", (16, 6), (np.nextafter(3.0, 4.0), 1.0))
    for domain in (dom.cylinder(16, 6), dom.torus_collar(16, 16, 6), nudged):
        with pytest.raises(ParameterError):
            mi.minimize_extension_detailed(u, domain, tg.circle(), cfg)


def test_lifting_oracle_refuses_a_non_canonical_circle():
    # the oracle's winding term assumes circumference 2*pi: on this
    # matching collar it would report about twice the true minimum
    u = _circumference_three_trace(64)
    collar = dom.from_kind("cylinder", (64, 17), (3.0, 1.0))
    with pytest.raises(ParameterError, match="circumference"):
        mi.circle_lifting_oracle(u, collar)


def test_descent_runs_on_the_collar_of_every_base_kind():
    cfg = mi.MinimizeConfig(max_iterations=2)
    for base in (dom.interval(5), dom.circle(6), dom.square(4, 5), dom.cylinder(6, 4),
                 dom.torus(4, 5)):
        angle = 0.3 * np.arange(np.prod(base.shape)).reshape(base.shape)
        vals = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        u = gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)
        collar = dom.collar_over(base, 4, 0.5)
        result = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
        assert result.map.domain == collar and np.isfinite(result.energy)
        assert np.array_equal(result.map.values[..., 0, :], u.values)


@pytest.mark.parametrize("p, cap", [(2.0, 10), (1.5, 200), (3.0, 200)])
def test_solved_descents_converge_in_few_iterations(p, cap):
    # a plain gradient step stops at a 3000 cap on most of these
    cfg = mi.MinimizeConfig(p=p, max_iterations=cap, tol=1e-10)
    for n in (64, 128, 256):
        u = acc._degree_zero_trace(np.random.default_rng(0), n)
        res = mi.minimize_extension_detailed(u, dom.cylinder(n, n // 4), tg.circle(), cfg)
        assert res.converged, f"n={n}: {res.iterations} iterations"


def _smooth_angle_trace(base, rng):
    # a degree-zero circle-valued trace on an interval or square base
    coords = np.meshgrid(*(ax.coordinates() for ax in base.axes), indexing="ij")
    psi = sum(
        rng.normal() * np.cos(k * x + rng.uniform(0.0, 2.0 * np.pi)) / k**2
        for x in coords
        for k in range(1, 4)
    )
    return gm.TraceMap(base=base, target=tg.circle(),
                       values=np.stack([np.cos(psi), np.sin(psi)], axis=-1), constraint_tol=1e-12)


@pytest.mark.parametrize(
    "base, n_depth", [(dom.interval(128), 33), (dom.square(24, 24), 12)], ids=["interval", "square"]
)
def test_descents_over_interval_bases_converge_in_few_iterations(base, n_depth):
    # the mirrored solve preconditions a collar with free sides; the plain
    # gradient step takes 971-3000 iterations on these
    cfg = mi.MinimizeConfig(max_iterations=60, tol=1e-10)
    for seed in (0, 1):
        u = _smooth_angle_trace(base, np.random.default_rng(seed))
        collar = dom.collar_over(base, n_depth, 1.0)
        res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
        assert res.converged, f"seed {seed}: {res.iterations} iterations"
        assert _same_bits(res.map.values[..., 0, :], u.values)


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
            ext = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg).energy
            gag = en.gagliardo_energy(u, s, p).value
            worst = max(worst, ext / gag)
        ratios[n] = worst
    drift = abs(ratios[96] - ratios[48]) / ratios[48]
    assert drift <= 0.3, f"ratio drift {drift:.3f} across refinement"


# ----------------------------------------------- kernels against references
#
# The descent evaluates each point once and reuses its forward differences
# for the gradient, and it sums over the 2-3 components with a loop.  The
# roll-and-reduce formulas below are the ones these replaced; the kernels
# must reproduce them bit for bit, so a descent differs from its dense
# reference only by the rounding of its solve.


def _reference_grad_sq(values, domain):
    cells = en._cells(domain)
    total = None
    for a, axis in enumerate(domain.axes):
        diff = (np.roll(values, -1, axis=a) - values) / axis.spacing
        contrib = np.sum(diff[cells + (slice(None),)] ** 2, axis=-1)
        total = contrib if total is None else total + contrib
    return total


def _reference_objective(values, domain, p, vols, penalty):
    dirichlet = float(
        np.sum(_reference_grad_sq(values, domain) ** (p / 2.0)) * en._cell_volume(domain)
    )
    if penalty is None:
        return dirichlet
    dist = np.abs(np.linalg.norm(values, axis=-1) - 1.0)
    q = penalty.power
    return dirichlet + float(np.sum(dist**q / penalty.eps**q * vols))


def _reference_dirichlet_gradient(values, domain, p):
    s = _reference_grad_sq(values, domain)
    exponent = (p - 2.0) / 2.0
    if exponent < 0.0:
        w_cells = np.where(s > 0.0, s, 1.0) ** exponent
        w_cells = np.where(s > 0.0, w_cells, 0.0)
    else:
        w_cells = s**exponent
    w_full = np.zeros(domain.shape)
    w_full[en._cells(domain)] = w_cells
    grad = np.zeros_like(values)
    for a, axis in enumerate(domain.axes):
        diff = np.roll(values, -1, axis=a) - values
        t = w_full[..., None] * diff / axis.spacing**2
        grad += np.roll(t, 1, axis=a) - t
    return grad * (p * en._cell_volume(domain))


def _reference_penalty_gradient(values, vols, penalty):
    if penalty is None:
        return np.zeros_like(values)
    norms = np.linalg.norm(values, axis=-1)
    dist = np.abs(norms - 1.0)
    q = penalty.power
    mag = q * np.where(dist > 0.0, dist, 1.0) ** (q - 1.0)
    mag = np.where(dist > 0.0, mag, 0.0) / penalty.eps**q
    safe = np.where(norms > 0.0, norms, 1.0)
    direction = values * (np.sign(norms - 1.0) / safe)[..., None]
    direction[norms == 0.0] = 0.0
    return (vols * mag)[..., None] * direction


def _kernel_domains():
    return {
        "cylinder": dom.cylinder(12, 7),
        "torus_collar": dom.torus_collar(6, 5, 4),
        "box": dom.box(5, 6, 4),
    }


def _kernel_values(rng, domain, nu):
    vals = rng.normal(size=domain.shape + (nu,))
    # a constant block: cells with zero gradient (the p < 2 subgradient
    # branch), plus one value on the unit sphere and one at the origin
    vals[(slice(1, 4),) * domain.ndim] = vals[(1,) * domain.ndim]
    vals[0, 0] = 0.0
    vals[-1, -1] = np.eye(nu)[0]
    return vals


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("kind", ["cylinder", "torus_collar", "box"])
@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("penalized", [False, True])
def test_objective_and_gradient_match_the_roll_and_reduce_reference(kind, nu, p, penalized):
    domain = _kernel_domains()[kind]
    vals = _kernel_values(np.random.default_rng(nu + int(10 * p)), domain, nu)
    vols = en.node_volumes(domain)
    reference = tg.circle() if nu == 2 else tg.sphere(nu)
    penalty = en.distance_penalty(0.3, p, reference) if penalized else None

    diffs = list(en._forward_differences(vals, domain))
    s = en._grad_sq(diffs, domain)
    assert p >= 2.0 or np.any(s == 0.0)
    assert _same_bits(s, _reference_grad_sq(vals, domain))
    assert _same_bits(en._streamed_grad_sq(vals, domain), _reference_grad_sq(vals, domain))
    objective = en._dirichlet_sum(s, domain, p) + en._penalty_sum(vals, vols, penalty)
    assert _same_bits(objective, _reference_objective(vals, domain, p, vols, penalty))
    gradient = mi._dirichlet_gradient(diffs, s, domain, p)
    want = _reference_dirichlet_gradient(vals, domain, p)
    if penalized:
        gradient = gradient + penalty.gradient(vals, vols)
        want = want + _reference_penalty_gradient(vals, vols, penalty)
        assert _same_bits(
            penalty.gradient(vals, vols),
            _reference_penalty_gradient(vals, vols, penalty),
        )
    assert _same_bits(gradient, want)

    m = gm.GridMap(domain=domain, target=tg.euclidean(nu), values=vals)
    assert _same_bits(mi.dirichlet_gradient(m, p), _reference_dirichlet_gradient(vals, domain, p))
    assert _same_bits(
        en.dirichlet_p_energy(m, p).value,
        np.sum(_reference_grad_sq(vals, domain) ** (p / 2.0)) * en._cell_volume(domain),
    )


@pytest.mark.parametrize("nu", [2, 3])
def test_projection_and_distance_match_the_norm_reference(nu):
    vals = np.random.default_rng(nu).normal(size=(9, 8, nu))
    vals[2, 3] = np.eye(nu)[1]
    target = tg.circle() if nu == 2 else tg.sphere(nu)
    norms = np.linalg.norm(vals, axis=-1)
    assert _same_bits(tg.project_to_target(target, vals), vals / norms[..., None])
    assert _same_bits(tg.distance_to_target(target, vals), np.abs(norms - 1.0))
    assert _same_bits(tg.sum_of_squares(vals), np.sum(vals**2, axis=-1))
    one = vals[0, 0]
    assert _same_bits(tg.project_to_target(target, one), one / np.linalg.norm(one))


def _dense_stiffness(domain, shift):
    """K + shift V on the free rows, dense, with the flat indices of those rows.

    K is assembled column by column: the p = 2 Dirichlet gradient of a
    unit vector is one column of the Hessian.
    """
    free = np.flatnonzero(np.indices(domain.shape)[-1].reshape(-1) >= 1)
    stiffness = np.empty((free.size, free.size))
    for col, node in enumerate(free):
        unit = np.zeros(domain.shape + (1,))
        unit.reshape(-1)[node] = 1.0
        diffs = list(en._forward_differences(unit, domain))
        grad = en._dirichlet_gradient(diffs, en._grad_sq(diffs, domain), domain, 2.0)
        stiffness[:, col] = grad.reshape(-1)[free]
    return free, stiffness + np.diag(shift * en.node_volumes(domain).reshape(-1)[free])


def _second_difference(n, h, periodic):
    # the cycle Laplacian on a periodic axis, the path Laplacian otherwise
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if periodic:
        lap[0, -1] = lap[-1, 0] = -1.0
    else:
        lap[0, 0] = lap[-1, -1] = 1.0
    return lap / h**2


def _separable_stiffness(domain, shift):
    """2 |cell| (L (x) M + I (x) D) + shift |cell| I (x) W on the free rows, by np.kron.

    L is the Kronecker sum of the base axes' second differences (path
    Laplacians on interval axes), M keeps the rows below the top (the
    top row has no base edges), D is the depth second difference with a
    pinned bottom and a free top, and W is 1 below the top and 1/2 on
    it.  Over a periodic base this is the cell sum's K + shift V.
    """
    base, depth = domain.axes[:-1], domain.axes[-1]
    rows = depth.count - 1
    eyes = [np.eye(axis.count) for axis in base]
    lap = 0.0
    for a, axis in enumerate(base):
        factors = eyes[:a] + [_second_difference(axis.count, axis.spacing, axis.periodic)]
        lap = lap + functools.reduce(np.kron, factors + eyes[a + 1:])
    below_top = np.diag(np.r_[np.ones(rows - 1), 0.0])
    # the path Laplacian with the pinned bottom row struck out
    in_depth = _second_difference(rows + 1, depth.spacing, False)[1:, 1:]
    weights = np.diag(np.r_[np.ones(rows - 1), 0.5])
    ident = np.eye(lap.shape[0])
    cell = en._cell_volume(domain)
    return (2.0 * cell * (np.kron(lap, below_top) + np.kron(ident, in_depth))
            + shift * cell * np.kron(ident, weights))


def _solved_direction(grad, operator, at=None):
    # P_T operator^-1 P_T grad on the free rows, P_T the tangent projection
    # at each node of ``at``, or the identity when ``at`` is None
    def tangent(x):
        return x if at is None else x - np.sum(x * at, axis=-1)[..., None] * at

    load = tangent(grad)[..., 1:, :]
    direction = np.zeros_like(grad)
    direction[..., 1:, :] = np.linalg.solve(
        operator, load.reshape(-1, load.shape[-1])
    ).reshape(load.shape)
    return tangent(direction)


@pytest.mark.parametrize(
    "domain",
    [
        dom.cylinder(12, 7),
        dom.collar_over(dom.from_kind("circle", (10,), (3.0,)), 6, 0.7),
        dom.torus_collar(6, 5, 4),
        dom.square(9, 6),
        dom.box(5, 6, 4),
    ],
    ids=["cylinder", "circumference_3", "torus_collar", "square", "box"],
)
@pytest.mark.parametrize("shift", [0.0, 1.5])
def test_stiffness_solve_matches_the_dense_assembled_operator(domain, shift):
    # over a periodic base the separable operator is the cell sum's own;
    # over an interval base the solve is its mirrored cosine transform
    rhs = np.random.default_rng(domain.ndim).normal(size=domain.shape + (3,))
    x = mi._collar_stiffness_solve(domain, shift, rhs)
    operator = _separable_stiffness(domain, shift)
    if all(axis.periodic for axis in domain.axes[:-1]):
        _, assembled = _dense_stiffness(domain, shift)
        np.testing.assert_allclose(operator, assembled, rtol=0.0, atol=1e-12 * np.max(operator))
    want = _solved_direction(rhs, operator)
    assert np.all(x[..., 0, :] == 0.0)  # the pinned row
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_h1_descent(u, domain, cfg, penalty):
    # the descent on a dense solve: every direction is P_T (K + sigma V)^-1
    # P_T g with the separable operator and numpy.linalg.solve, sigma =
    # 2/eps^2 for a penalized descent and 0 otherwise, and P_T the tangent
    # projection of a circle or sphere target
    p = cfg.p
    operator = _separable_stiffness(domain, 0.0 if penalty is None else 2.0 / penalty.eps**2)
    project = penalty is None and u.target.constrained
    vols = en.node_volumes(domain)
    bottom = np.array(u.values)
    values = np.repeat(bottom[..., None, :], domain.shape[-1], axis=-2)
    energy = _reference_objective(values, domain, p, vols, penalty)
    converged, grad_sup, iterations = False, np.inf, 0
    for it in range(cfg.max_iterations):
        grad = _reference_dirichlet_gradient(values, domain, p)
        grad = grad + _reference_penalty_gradient(values, vols, penalty)
        grad[..., 0, :] = 0.0
        grad_sup = float(np.max(np.abs(grad)))
        if grad_sup == 0.0:
            converged = True
            break
        direction = _solved_direction(grad, operator, values if project else None)
        slope = float(np.sum(grad * direction))
        t = 1.0
        for _ in range(mi._MAX_HALVINGS):
            candidate = values - t * direction
            if project:
                candidate = candidate / np.linalg.norm(candidate, axis=-1)[..., None]
                candidate[..., 0, :] = bottom
            cand_energy = _reference_objective(candidate, domain, p, vols, penalty)
            if cand_energy <= energy - mi._ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            converged = True
            break
        drop = energy - cand_energy
        assert drop >= 0.0  # accepted steps never increase the energy
        values, energy = candidate, cand_energy
        iterations = it + 1
        if drop <= cfg.tol * max(1.0, abs(energy)):
            converged = True
            break
    return values, energy, iterations, converged, grad_sup


def _torus_sphere_trace(n, constant_block=False, frequency=1):
    base = dom.torus(n, n)
    x, y = np.meshgrid(*(frequency * ax.coordinates() for ax in base.axes), indexing="ij")
    v = np.stack([np.cos(x) + 0.3 * np.sin(y), np.sin(x) * np.cos(y), 0.5 + np.sin(y)], -1)
    v /= np.linalg.norm(v, axis=-1)[..., None]
    if constant_block:
        v[1:4, 1:4] = v[1, 1]
    return gm.TraceMap(base=base, target=tg.sphere(3), values=v, constraint_tol=1e-12)


@pytest.mark.parametrize(
    "case",
    [
        "circle_p1.5",
        "torus_s2",
        "torus_s2_p1.5",
        "box_p3",
        "penalized_p2",
        "penalized_p3",
        "penalized_p2_square",
    ],
)
def test_descent_keeps_every_iterate_of_the_reference_descent(case):
    rng = np.random.default_rng(4)
    penalty = None
    cap = 40
    if case == "torus_s2":
        # a smoother trace converges in fewer than ten solved steps
        u = _torus_sphere_trace(8, frequency=3)
        domain, p = dom.torus_collar(8, 8, 8), 2.0
    elif case == "torus_s2_p1.5":
        # a constant block of the trace starts with cells of zero gradient,
        # where the p < 2 descent takes the zero subgradient
        u = _torus_sphere_trace(6, constant_block=True)
        domain, p = dom.torus_collar(6, 6, 5), 1.5
        start = np.repeat(u.values[..., None, :], 5, axis=-2)
        assert np.any(en._grad_sq(list(en._forward_differences(start, domain)), domain) == 0.0)
        # the solves' rounding differences grow about 1.2x per iteration in
        # those nearly flat cells: 1.5e-14 after 25 iterations, 1.2e-13
        # after 40
        cap = 25
    elif case == "box_p3":
        u = gm.TraceMap(base=dom.square(6, 5), target=tg.euclidean(3),
                        values=rng.normal(size=(6, 5, 3)))
        domain, p = dom.box(6, 5, 4), 3.0
    elif case == "penalized_p2_square":
        # an interval base steps along the mirrored solve
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(6, 5))
        u = gm.TraceMap(base=dom.square(6, 5), target=tg.circle(),
                        values=np.stack([np.cos(angle), np.sin(angle)], axis=-1))
        domain, p = dom.box(6, 5, 4), 2.0
        penalty = en.distance_penalty(0.3, p, tg.circle())
    else:
        u = _wobbled_trace(20)
        domain, p = dom.cylinder(20, 6), 1.5
        if case.startswith("penalized"):
            p = float(case[-1])
            penalty = en.distance_penalty(0.3, p, tg.circle())
    cfg = mi.MinimizeConfig(p=p, max_iterations=cap)
    if penalty is None:
        res = mi.minimize_extension_detailed(u, domain, u.target, cfg)
    else:
        res = mi.minimize_penalized_detailed(u, penalty, domain, cfg)
    assert res.iterations >= 10
    # the FFT solve and the dense solve round differently, so the descent
    # matches its reference to rounding only
    values, energy, iterations, converged, grad_sup = _reference_h1_descent(
        u, domain, cfg, penalty
    )
    np.testing.assert_allclose(res.map.values, values, rtol=0.0, atol=1e-13)
    assert res.energy == pytest.approx(energy, rel=1e-13, abs=0.0)
    assert res.gradient_sup == pytest.approx(grad_sup, rel=1e-9, abs=0.0)
    assert (res.iterations, res.converged) == (iterations, converged)


# --------------------------------------------------------------- backtracks

def _wobbled_trace(n):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    wobble = t + 0.3 * np.sin(2.0 * t)
    vals = np.stack([np.cos(wobble), np.sin(wobble)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)


def test_backtracks_count_the_rejected_trial_steps(monkeypatch):
    # a projected descent projects every trial once: the rejected ones
    # are the projections that did not become iterations
    calls = []

    def counting(target, values):
        calls.append(1)
        return tg.project_to_target(target, values)

    monkeypatch.setattr(mi, "project_to_target", counting)
    # an S^2-valued torus descent whose solved step is halved now and then
    u = _torus_sphere_trace(8, frequency=3)
    res = mi.minimize_extension_detailed(
        u, dom.torus_collar(8, 8, 8), u.target, mi.MinimizeConfig()
    )
    assert res.converged and res.backtracks > 0
    assert res.backtracks == len(calls) - res.iterations

    constant = gm.TraceMap(
        base=dom.circle(24), target=tg.circle(), values=np.tile([0.6, 0.8], (24, 1)),
        constraint_tol=1e-12,
    )
    flat = mi.minimize_extension_detailed(
        constant, dom.cylinder(24, 8), tg.circle(), mi.MinimizeConfig()
    )
    assert (flat.backtracks, flat.iterations, flat.converged) == (0, 0, True)


def test_a_trial_whose_projection_is_singular_is_halved_and_counted(monkeypatch):
    # the first trial's projection raises as if a value sat at the origin:
    # the descent halves t to 1/2 and counts the failed trial as rejected
    u = _wobbled_trace(24)
    collar = dom.cylinder(24, 8)
    start = np.repeat(u.values[:, None, :], 8, axis=1)
    grad = mi.dirichlet_gradient(gm.GridMap(domain=collar, target=tg.circle(), values=start), 2.0)
    grad[:, 0, :] = 0.0
    direction = _solved_direction(grad, _separable_stiffness(collar, 0.0), start)
    trials = []

    def singular_once(target, values):
        trials.append(np.array(values))
        if len(trials) == 1:
            raise SingularityError("cannot project the zero vector onto the unit sphere")
        return tg.project_to_target(target, values)

    monkeypatch.setattr(mi, "project_to_target", singular_once)
    cfg = mi.MinimizeConfig(max_iterations=1)
    res = mi.minimize_extension_detailed(u, collar, tg.circle(), cfg)
    # the FFT solve matches the dense one to rounding
    np.testing.assert_allclose(trials[0], start - direction, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(trials[1], start - direction * 0.5, rtol=0.0, atol=1e-13)
    assert np.max(np.abs(direction)) > 1e-3
    # one iteration: every trial but the accepted last one is a backtrack
    assert res.iterations == 1
    assert res.backtracks == len(trials) - 1
    assert np.isfinite(res.energy)
    assert _same_bits(res.map.values[:, 0, :], u.values)
