"""Energy quadratures against independent oracles.

The fractional seminorm is cross-checked three ways: against a direct
dense double loop coded here from scratch, against the row-blocked pair
sum the library used before its offset form (kept here as a reference
for larger grids), and against values exact by construction (an affine
map on the interval, where kernel and weights collapse to the square of
the total node weight).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import gridmap as gm
from sobolev_glue import minimize as mi
from sobolev_glue import target as tg
from sobolev_glue.errors import ParameterError


def _interval_trace(n, fn, nu=1):
    base = dom.interval(n)
    x = base.axes[0].coordinates()
    vals = np.asarray(fn(x))
    if vals.ndim == 1:
        vals = vals[:, None]
    return gm.TraceMap(base=base, target=tg.euclidean(nu), values=vals)


def _circle_trace(n, fn, target=None, tol=-1.0):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.asarray(fn(t))
    return gm.TraceMap(
        base=base,
        target=target if target is not None else tg.euclidean(vals.shape[-1]),
        values=vals,
        constraint_tol=tol,
    )


def _dense_gagliardo(u, s, p):
    """Brute force pair sum, including the same-node completion cells.

    Written independently of the library internals: an explicit per-node
    loop with trapezoid weights and min-image distances, plus the
    documented same-node rule (one-sided difference quotient
    |du|^p / h^(sp+d) averaged over axes, reversed at interval ends,
    weighted by the squared node weight).
    """
    base = u.domain
    pts = gm.node_mesh(base)
    n = pts.shape[0]
    vals = u.values.reshape(n, -1)
    w = np.ones(n)
    for a, axis in enumerate(base.axes):
        wa = np.full(axis.count, axis.spacing)
        if not axis.periodic:
            wa[0] *= 0.5
            wa[-1] *= 0.5
        reps_before = int(np.prod([ax.count for ax in base.axes[:a]]) or 1)
        reps_after = int(np.prod([ax.count for ax in base.axes[a + 1 :]]) or 1)
        w *= np.tile(np.repeat(wa, reps_after), reps_before)
    d = pts.shape[1]
    expo = s * p + d
    total = 0.0
    for i in range(n):
        diff = pts - pts[i]
        for a, axis in enumerate(base.axes):
            if axis.periodic:
                diff[:, a] = (
                    np.mod(diff[:, a] + axis.length / 2.0, axis.length)
                    - axis.length / 2.0
                )
        dist = np.linalg.norm(diff, axis=1)
        dv = np.linalg.norm(vals - vals[i], axis=1)
        mask = dist > 0.0
        total += w[i] * np.sum(w[mask] * dv[mask] ** p / dist[mask] ** expo)
    shape = base.shape
    for flat in range(n):
        multi = np.unravel_index(flat, shape)
        quotients = []
        for a, axis in enumerate(base.axes):
            j = list(multi)
            if axis.periodic:
                j[a] = (multi[a] + 1) % axis.count
            elif multi[a] == axis.count - 1:
                j[a] = multi[a] - 1
            else:
                j[a] = multi[a] + 1
            jump = np.linalg.norm(u.values[tuple(j)] - u.values[multi])
            quotients.append(jump**p / axis.spacing**expo)
        total += w[flat] ** 2 * float(np.mean(quotients))
    return total


def _blocked_gagliardo(u, s, p, block=256):
    """Row-blocked pair sum: ``block`` rows against all nodes at a time.

    Coordinates come from the node mesh, distances from coordinate
    differences (minimum image on periodic axes), and every block holds
    block x N x nu temporaries.  The same-node cells use the library's
    ``_diagonal_completion``, which the offset form leaves unchanged.
    """
    base = u.base
    pts = gm.node_mesh(base)
    n = pts.shape[0]
    vals = u.values.reshape(n, u.nu)
    w = en.node_volumes(base).reshape(-1)
    expo = s * p + base.ndim
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = np.linalg.norm(vals[start:stop, None, :] - vals[None, :, :], axis=-1)
        dist = np.zeros((stop - start, n))
        for a, axis in enumerate(base.axes):
            delta = np.abs(pts[start:stop, None, a] - pts[None, :, a])
            if axis.periodic:
                delta = np.minimum(delta, axis.length - delta)
            dist += delta**2
        dist = np.sqrt(dist)
        rows = np.arange(start, stop)
        dist[rows - start, rows] = 1.0
        kern = diff**p / dist**expo
        kern[rows - start, rows] = 0.0
        total += float(np.sum(w[start:stop, None] * w[None, :] * kern))
    return total + float(np.sum(w**2 * en._diagonal_completion(u, s, p)))


def _smooth_values(base, nu):
    pts = gm.node_mesh(base)
    freq = 2.0 * np.pi / np.asarray(base.lengths)
    arg = pts @ (freq * np.arange(1, base.ndim + 1))
    vals = np.stack([np.sin(arg + 0.7 * c) for c in range(nu)], axis=-1)
    return vals.reshape(base.shape + (nu,))


@pytest.mark.parametrize(
    "base",
    [
        dom.interval(13), dom.interval(14), dom.circle(11), dom.circle(12),
        dom.square(7, 9), dom.square(8, 6), dom.torus(7, 9), dom.torus(8, 6),
    ],
    ids=lambda b: f"{b.kind}-{'x'.join(map(str, b.shape))}",
)
def test_offset_sum_matches_the_dense_loop(base):
    # Even counts put a periodic offset at n/2, its own opposite, which
    # the offset form must count once; odd counts have no such offset.
    rng = np.random.default_rng(sum(base.shape))
    vals = rng.normal(size=base.shape + (2,))
    u = gm.TraceMap(base=base, target=tg.euclidean(2), values=vals)
    for p in (1.0, 1.5, 2.0, 3.0):
        for s in (0.3, 0.5, 0.8):
            got = en.gagliardo_energy(u, s, p).value
            assert got == pytest.approx(_dense_gagliardo(u, s, p), rel=1e-10), (p, s)


def test_offset_sum_matches_the_blocked_sum_on_large_grids():
    rng = np.random.default_rng(11)
    torus = dom.torus(64, 64)
    square = dom.square(48, 40)
    interval = dom.interval(512)
    circle = dom.circle(2048)
    cases = (
        (gm.TraceMap(base=torus, target=tg.euclidean(3),
                     values=rng.normal(size=(64, 64, 3))), 0.5),
        (gm.TraceMap(base=square, target=tg.euclidean(2),
                     values=_smooth_values(square, 2) + 0.1 * rng.normal(size=(48, 40, 2))), 0.8),
        (gm.TraceMap(base=interval, target=tg.euclidean(2),
                     values=_smooth_values(interval, 2)), 0.3),
        (gm.TraceMap(base=circle, target=tg.euclidean(2),
                     values=_smooth_values(circle, 2)), 0.8),
    )
    for u, s in cases:
        for p in (2.0, 1.5):
            got = en.gagliardo_energy(u, s, p).value
            assert got == pytest.approx(_blocked_gagliardo(u, s, p), rel=1e-12), (u.base.kind, p)
            assert en.gagliardo_energy(u, s, p).value == got  # same bits on a rerun


@pytest.mark.parametrize("n, p, limit_mb", [(128, 2.0, 16.0), (64, 1.5, 16.0)])
def test_pair_sum_memory_stays_linear_in_the_node_count(n, p, limit_mb):
    # A 256-row block against a 128^2 torus with nu = 3 alone needs
    # 256 * 16384 * 3 doubles, about 100 MB; the offset form needs O(N).
    vals = np.random.default_rng(n).normal(size=(n, n, 3))
    u = gm.TraceMap(base=dom.torus(n, n), target=tg.euclidean(3), values=vals)
    tracemalloc.start()
    try:
        value = en.gagliardo_energy(u, 0.5, p).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value > 0.0
    assert peak < limit_mb * 2**20, f"traced peak {peak / 2**20:.1f} MB"


_PENALIZED_P2 = en.distance_penalty(0.25, 2.0, tg.sphere(3))


@pytest.mark.parametrize(
    "counts, energy",
    [
        ((64, 64, 16), lambda m: en.dirichlet_p_energy(m, 1.5)),
        ((64, 64, 16), lambda m: en.dirichlet_p_energy(m, 2.0)),
        ((64, 64, 16), lambda m: en.dirichlet_p_energy(m, 3.0)),
        ((64, 64, 16), lambda m: en.penalized_energy(m, 2.0, _PENALIZED_P2)),
        ((48, 48, 12), lambda m: en.dirichlet_p_energy(m, 2.0)),
        ((48, 48, 12), lambda m: en.dirichlet_p_energy(m, 1.5)),
    ],
    ids=["dirichlet-p1.5", "dirichlet-p2", "dirichlet-p3", "penalized-p2",
         "dirichlet-p2-48x48x12", "dirichlet-p1.5-48x48x12"],
)
def test_dirichlet_and_penalty_hold_three_cell_arrays(counts, energy):
    # three cell-shaped arrays are about the size of the nu = 3 values;
    # full-size forward differences and their scaled copies peak near 2.9x
    domain = dom.torus_collar(*counts)
    vals = np.random.default_rng(11).normal(size=domain.shape + (3,))
    m = gm.GridMap(domain=domain, target=tg.euclidean(3), values=vals)
    tracemalloc.start()
    try:
        value = energy(m).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value > 0.0
    assert peak < 1.5 * vals.nbytes, f"traced peak {peak / vals.nbytes:.2f}x the values"


def test_collar_stiffness_solve_holds_about_three_copies_of_its_load():
    # the forward and inverse FFTs each hold their input and output, and
    # the solution is written into a fresh array: a traced peak of 3.18x
    # the load on a 64^2 x 16 torus collar with three components
    domain = dom.torus_collar(64, 64, 16)
    rhs = np.random.default_rng(5).normal(size=domain.shape + (3,))
    tracemalloc.start()
    try:
        x = mi._collar_stiffness_solve(domain, 1.5, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(x))
    assert peak < 3.5 * rhs.nbytes, f"traced peak {peak / rhs.nbytes:.2f}x the load"


def test_affine_interval_map_is_exact():
    # u(x) = x with s = 1/2, p = 2 in one dimension: every pair kernel is
    # exactly one, so the energy is the squared total weight, which the
    # diagonal completion must reproduce without a hole at x = y.
    for n in (16, 64, 256):
        u = _interval_trace(n, lambda x: x)
        got = en.gagliardo_energy(u, 0.5, 2.0).value
        assert got == pytest.approx(1.0, abs=1e-12)


def test_dense_loop_oracle_agrees_with_offset_sum():
    rng = np.random.default_rng(7)
    u1 = _interval_trace(13, lambda x: np.sin(2.0 * x) + 0.3 * x)
    u2 = _circle_trace(
        12, lambda t: np.stack([np.cos(t), np.sin(t)], -1), tg.circle(), 1e-9
    )
    vals = rng.normal(size=(9, 8, 2))
    u3 = gm.TraceMap(base=dom.torus(9, 8), target=tg.euclidean(2), values=vals)
    for u, s, p in ((u1, 0.5, 2.0), (u1, 0.3, 1.5), (u2, 0.5, 2.0), (u3, 0.4, 2.5)):
        got = en.gagliardo_energy(u, s, p).value
        want = _dense_gagliardo(u, s, p)
        assert got == pytest.approx(want, rel=1e-10)


def test_value_scaling_is_exactly_power_p():
    u = _interval_trace(24, lambda x: np.sin(3.0 * x))
    lam = 1.75
    v = gm.TraceMap(base=u.base, target=u.target, values=lam * u.values)
    for p in (1.0, 1.5, 2.0, 3.0):
        a = en.gagliardo_energy(u, 0.5, p).value
        b = en.gagliardo_energy(v, 0.5, p).value
        assert b == pytest.approx(lam**p * a, rel=1e-12)


def test_circle_symmetries_of_the_pair_sum():
    # Rotating or reflecting circle data permutes the node pairs and the
    # one-sided jumps, so both leave the quadrature value unchanged.
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(30, 2))
    u = gm.TraceMap(base=dom.circle(30), target=tg.euclidean(2), values=vals)
    a = en.gagliardo_energy(u, 0.4, 2.0).value
    rot = gm.TraceMap(base=u.base, target=u.target, values=np.roll(vals, 7, axis=0))
    refl = gm.TraceMap(base=u.base, target=u.target, values=vals[::-1])
    assert en.gagliardo_energy(rot, 0.4, 2.0).value == pytest.approx(a, rel=1e-12)
    assert en.gagliardo_energy(refl, 0.4, 2.0).value == pytest.approx(a, rel=1e-12)


def test_refinement_converges_on_smooth_circle_data():
    def fn(t):
        return np.stack([np.cos(t), np.sin(t)], -1)

    es = [
        en.gagliardo_energy(_circle_trace(n, fn, tg.circle(), 1e-9), 0.5, 2.0).value
        for n in (32, 64, 128)
    ]
    d1 = abs(es[1] - es[0])
    d2 = abs(es[2] - es[1])
    assert d2 < d1  # successive refinements move the value less
    assert d2 < 0.05 * es[2]


def test_gagliardo_parameter_validation():
    u = _interval_trace(8, lambda x: x)
    en.gagliardo_energy(u, 0.5, 1.0)  # p = 1 is allowed
    for s in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ParameterError):
            en.gagliardo_energy(u, s, 2.0)
    with pytest.raises(ParameterError):
        en.gagliardo_energy(u, 0.5, 0.8)


def test_dirichlet_identity_map_on_square():
    d = dom.square(33, 33)
    mesh = gm.node_mesh(d).reshape(33, 33, 2)
    m = gm.GridMap(domain=d, target=tg.euclidean(2), values=mesh)
    # gradient is the identity matrix on every cell, |D|^2 = 2
    assert en.dirichlet_p_energy(m, 2.0).value == pytest.approx(2.0, rel=1e-12)
    assert en.dirichlet_p_energy(m, 3.0).value == pytest.approx(
        2.0**1.5, rel=1e-12
    )


def test_dirichlet_rejects_p_not_above_one():
    d = dom.square(5, 5)
    m = gm.GridMap(domain=d, target=tg.euclidean(1), values=np.zeros((5, 5, 1)))
    with pytest.raises(ParameterError):
        en.dirichlet_p_energy(m, 1.0)


def test_node_weights_sum_to_the_volume():
    for d in (dom.square(9, 5), dom.cylinder(8, 5, depth=0.5), dom.torus(6, 7)):
        vols = en.node_volumes(d)
        assert vols.shape == d.shape
        assert float(np.sum(vols)) == pytest.approx(np.prod(d.lengths), rel=1e-12)


def test_penalty_vanishes_on_target_and_scales_with_eps():
    d = dom.cylinder(16, 5)
    t = d.axes[0].coordinates()
    on = np.stack([np.cos(t), np.sin(t)], -1)[:, None, :] * np.ones((1, 5, 1))
    m_on = gm.GridMap(domain=d, target=tg.euclidean(2), values=on)
    pen1 = en.distance_penalty(0.5, 2.0, tg.circle())
    assert en.penalty_total(m_on, pen1) == pytest.approx(0.0, abs=1e-26)
    off = on * 1.3
    m_off = gm.GridMap(domain=d, target=tg.euclidean(2), values=off)
    pen2 = en.distance_penalty(0.25, 2.0, tg.circle())
    a = en.penalty_total(m_off, pen1)
    b = en.penalty_total(m_off, pen2)
    assert a > 0.0
    assert b == pytest.approx(4.0 * a, rel=1e-12)  # (eps1/eps2)^power


def test_penalty_reference_must_be_a_circle_or_sphere():
    # the descent's penalty gradient is that of the distance to the unit sphere
    with pytest.raises(ParameterError):
        en.distance_penalty(0.3, 2.0, tg.euclidean(2))


@pytest.mark.parametrize("power", [np.inf, np.nan, 0.0, -1.0])
def test_penalty_power_must_be_positive_and_finite(power):
    # an infinite power would make every penalty value inf / inf = nan
    with pytest.raises(ParameterError):
        en.distance_penalty(0.5, power, tg.circle())


def test_penalized_energy_requires_unconstrained_values():
    d = dom.cylinder(12, 4)
    t = d.axes[0].coordinates()
    circ = np.stack([np.cos(t), np.sin(t)], -1)[:, None, :] * np.ones((1, 4, 1))
    pen = en.distance_penalty(0.5, 2.0, tg.circle())
    constrained = gm.GridMap(domain=d, target=tg.circle(), values=circ, constraint_tol=1e-9)
    with pytest.raises(ParameterError):
        en.penalized_energy(constrained, 2.0, pen)
    free = gm.GridMap(domain=d, target=tg.euclidean(2), values=circ)
    rep = en.penalized_energy(free, 2.0, pen)
    assert rep.value == pytest.approx(en.dirichlet_p_energy(free, 2.0).value, rel=1e-12)


#: sha256 of the ``float.hex`` pair sums, one per line, of the cases in
#: ``_pinned_pair_sums``: the offset form and its kernel must keep every bit
PAIR_SUM_BITS = "b1ffd5838141b600b9b0a1a34f052a93256a97576f26e973ae48b3c8323c3374"


def _pinned_pair_sums():
    """64 pair sums over every base kind, then criterion 01's u(x) = x."""
    bases = (
        dom.interval(13), dom.interval(14), dom.circle(11), dom.circle(12),
        dom.square(8, 6), dom.torus(7, 9), dom.torus(8, 6), dom.cylinder(8, 5),
    )
    for base in bases:
        rng = np.random.default_rng(sum(base.shape))
        for nu, p in ((1, 2.0), (2, 1.5), (2, 3.0), (3, 2.0)):
            u = gm.TraceMap(
                base=base, target=tg.euclidean(nu), values=rng.normal(size=base.shape + (nu,))
            )
            for s in (0.3, 0.8):
                yield en.gagliardo_energy(u, s, p).value
    yield en.gagliardo_energy(_interval_trace(512, lambda x: x), 0.5, 2.0).value


def test_pair_sum_keeps_its_bits():
    text = "\n".join(value.hex() for value in _pinned_pair_sums())
    assert hashlib.sha256(text.encode()).hexdigest() == PAIR_SUM_BITS
