"""Cone capture certificates on sampled sets.

Worked instances exercise both ends of the contract: captures that must
succeed (full ball, axis segment, small ball swallowed by the radius
ball) and captures that must fail loudly (rim outside the ambient set,
a notch blocking every useful ray).
"""

import collections
import hashlib

import numpy as np
import pytest

from sobolev_glue import acceptance, cone
from sobolev_glue.errors import ParameterError, PreconditionError, ResolutionError

TOP = 63.0 / 64.0


def _sample(dimension, resolution, predicate, closed):
    """Sample a predicate, vectorised over (N, dimension) points, at the grid nodes."""
    axes = np.meshgrid(*[np.linspace(-1.0, 1.0, resolution)] * dimension, indexing="ij")
    pts = np.stack([a.reshape(-1) for a in axes], axis=-1)
    return cone.SampledSet(dimension, resolution, closed, predicate(pts).reshape(axes[0].shape))


def _disk(radius, closed, res=129):
    return _sample(
        2, res, lambda p: np.linalg.norm(p, axis=-1) <= radius, closed
    )


def _segment_sets(res=129):
    def f_pred(p):
        return (np.abs(p[:, 1]) <= 0.02) & (p[:, 0] >= 0.5) & (p[:, 0] <= 1.0)

    def g_pred(p):
        return (p[:, 0] > 0.45) & (np.abs(p[:, 1]) < 0.3)

    f = _sample(2, res, f_pred, closed=True)
    g = _sample(2, res, g_pred, closed=False)
    return f, g


def test_small_ball_is_swallowed_by_the_radius_ball():
    # capture of a ball of radius 1/4 inside a punctured half ball needs
    # no cone at all; the certificate may come back with empty directions
    f = _disk(0.25, closed=True)
    g = _sample(
        2,
        129,
        lambda p: (np.linalg.norm(p, axis=-1) < 0.5)
        & (np.linalg.norm(p, axis=-1) > 0.0),
        closed=False,
    )
    cert = cone.find_cone(f, g)
    assert cert.verified
    assert cert.radius >= 0.3
    assert not np.any(cert.directions)
    assert cone.verify_cone(f, g, cert)


def test_axis_segment_is_captured_by_a_narrow_cone():
    f, g = _segment_sets()
    cert = cone.find_cone(f, g)
    assert cert.verified
    assert cert.radius >= 0.6
    assert np.any(cert.directions)
    # accepted directions hug the positive x axis
    angles = 2.0 * np.pi * np.arange(cert.directions.size) / cert.directions.size
    hugged = np.minimum(angles, 2.0 * np.pi - angles) < 0.35
    assert np.all(hugged[cert.directions])
    assert cone.verify_cone(f, g, cert)


def test_full_ball_in_full_ambient_takes_the_top_radius():
    f = _disk(1.0, closed=True, res=65)
    g = _sample(2, 65, lambda p: np.ones(len(p), dtype=bool), closed=False)
    cert = cone.find_cone(f, g)
    assert cert.radius == pytest.approx(TOP)
    assert np.all(cert.directions)
    assert cert.verified
    # a 2-D set is scanned along 4 x resolution directions
    assert cert.directions.shape == (4 * 65,)


def test_one_dimensional_interval_and_half_line():
    f = _sample(1, 129, lambda p: np.abs(p[:, 0]) <= 1.0, closed=True)
    g = _sample(1, 129, lambda p: np.ones(len(p), dtype=bool), closed=False)
    cert = cone.find_cone(f, g)
    assert cert.radius == pytest.approx(TOP)
    # a 1-D set is scanned along its 2 directions, whatever the resolution
    assert cert.directions.shape == (2,)
    assert np.array_equal(cert.directions, [True, True])

    f2 = _sample(1, 129, lambda p: p[:, 0] >= 0.5, closed=True)
    g2 = _sample(1, 129, lambda p: p[:, 0] > 0.25, closed=False)
    cert2 = cone.find_cone(f2, g2)
    assert cert2.verified
    # only the positive direction survives the clearance scan
    assert np.array_equal(cert2.directions, [False, True])
    assert cone.verify_cone(f2, g2, cert2)


def test_rim_outside_ambient_interior_is_a_precondition_error():
    f = _disk(1.0, closed=True, res=65)
    g = _sample(2, 65, lambda p: p[:, 0] > 0.0, closed=False)
    with pytest.raises(PreconditionError):
        cone.find_cone(f, g)


def test_blocked_ray_to_an_outer_node_is_a_resolution_error():
    # One F node at exactly the certified radius 63/64 (outside the open
    # ball, too far from the rim for the boundary rule to apply at this
    # resolution) whose ray never meets G: nothing covers it, so the
    # search must report a resolution failure that names the radius.
    res = 257  # grid cell 1/128, rim band ~0.011, 1 - r = 1/64
    f = _sample(
        2, res, lambda p: np.linalg.norm(p - np.array([63.0 / 64.0, 0.0]), axis=-1) <= 0.004,
        closed=True,
    )
    g = _sample(2, res, lambda p: p[:, 1] > 0.2, closed=False)
    assert np.count_nonzero(f.indicator) == 1
    with pytest.raises(ResolutionError, match="radius 0.984375 does not certify"):
        cone.find_cone(f, g)


def test_flag_and_stray_validation():
    f_open = _sample(2, 33, lambda p: np.linalg.norm(p, axis=-1) <= 0.5, closed=False)
    g_open = _sample(2, 33, lambda p: np.ones(len(p), dtype=bool), closed=False)
    g_closed = _sample(2, 33, lambda p: np.ones(len(p), dtype=bool), closed=True)
    f_good = _sample(2, 33, lambda p: np.linalg.norm(p, axis=-1) <= 0.5, closed=True)
    with pytest.raises(ParameterError):
        cone.find_cone(f_open, g_open)
    with pytest.raises(ParameterError):
        cone.find_cone(f_good, g_closed)
    f_stray = _sample(2, 33, lambda p: np.ones(len(p), dtype=bool), closed=True)
    with pytest.raises(ParameterError):
        cone.find_cone(f_stray, g_open)  # corners stick out of the unit ball
    g_small = _sample(2, 65, lambda p: np.ones(len(p), dtype=bool), closed=False)
    with pytest.raises(ParameterError):
        cone.find_cone(f_good, g_small)  # resolution mismatch


def test_f_may_poke_one_cell_past_the_unit_sphere_and_no_farther():
    # 33^2 grid, h = 1/16: the node (1, 1/4) at radius 1.031 lies within
    # one cell of the sphere and is judged by the cone; the node (1, 1/2)
    # at radius 1.118 does not, and find_cone's stray check refuses it
    g = _sample(2, 33, lambda p: np.ones(len(p), dtype=bool), closed=False)
    near = np.zeros((33, 33), dtype=bool)
    near[32, 20] = True
    cert = cone.find_cone(cone.SampledSet(2, 33, True, near), g)
    assert cert.verified and cert.radius == TOP
    far = near.copy()
    far[32, 24] = True
    with pytest.raises(ParameterError, match="outside the closed unit ball"):
        cone.find_cone(cone.SampledSet(2, 33, True, far), g)


def test_direction_sets_grow_with_the_radius():
    _, g = _segment_sets()
    clearance = _reference_ray_clearance(g)
    for r_small, r_big in ((0.3, 0.6), (0.6, TOP)):
        small = clearance < r_small
        big = clearance < r_big
        assert np.all(big[small])  # membership at r implies membership at s >= r


def test_accepted_directions_keep_a_margin():
    f, g = _segment_sets()
    cert = cone.find_cone(f, g)
    pre_margin = cone.ray_clearance(g)  # the un-eroded set
    idx = np.flatnonzero(cert.directions)
    n = cert.directions.size
    for j in idx:
        assert pre_margin[(j - 1) % n]
        assert pre_margin[(j + 1) % n]


def test_certificate_survives_grid_refinement():
    # same analytic sets sampled twice as finely still satisfy the
    # certificate found on the coarse grid
    f129, g129 = _segment_sets(res=129)
    cert = cone.find_cone(f129, g129)
    f257, g257 = _segment_sets(res=257)
    assert cone.verify_cone(f257, g257, cert)


def test_shrunk_radius_fails_on_a_constructed_counterexample():
    # plant an off-axis blob below the certified radius: the original
    # certificate covers it with the ball, a shrunken one cannot
    def f_pred(p):
        seg = (np.abs(p[:, 1]) <= 0.02) & (p[:, 0] >= 0.5) & (p[:, 0] <= 1.0)
        blob = np.linalg.norm(p - np.array([0.0, 0.45]), axis=-1) <= 0.03
        return seg | blob

    f = _sample(2, 129, f_pred, closed=True)
    _, g = _segment_sets(res=129)
    cert = cone.find_cone(f, g)
    assert cert.verified
    assert cert.radius > 0.5
    shrunk = cone.ConeCertificate(directions=cert.directions, radius=0.3, verified=False)
    assert not cone.verify_cone(f, g, shrunk)


def test_accepts_is_conservative_and_rejects_the_origin():
    f = _disk(1.0, closed=True, res=65)
    g = _sample(2, 65, lambda p: np.ones(len(p), dtype=bool), closed=False)
    cert = cone.find_cone(f, g)
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.7], [1.0, 1.0]])
    got = cone.accepts(cert, pts)
    assert not got[0]  # the origin has no direction
    assert got[1] and got[2] and got[3]

    f2, g2 = _segment_sets()
    cert2 = cone.find_cone(f2, g2)
    got2 = cone.accepts(cert2, np.array([[0.7, 0.0], [0.0, 0.7], [-0.7, 0.0]]))
    assert got2[0]
    assert not got2[1] and not got2[2]

    # 1-D: the side of x, down to the smallest float (x * x would underflow)
    pts = np.array([[1e-300], [5e-324], [0.0], [-0.0], [-1e-300], [0.3], [-0.3]])
    right = cone.ConeCertificate(directions=np.array([False, True]), radius=0.5, verified=False)
    assert cone.accepts(right, pts).tolist() == [True, True, False, False, False, True, False]
    both = cone.ConeCertificate(directions=np.array([True, True]), radius=0.5, verified=False)
    assert cone.accepts(both, pts).tolist() == [True, True, False, False, True, True, True]

    # 2-D: the origin is the point whose coordinates are all zero, however
    # small the other points are (their norm would underflow)
    every = cone.ConeCertificate(directions=np.ones(8, dtype=bool), radius=0.5, verified=False)
    tiny = np.array([[1e-200, 0.0], [0.0, -1e-300], [5e-324, 5e-324], [0.0, 0.0], [-0.0, 0.0]])
    assert cone.accepts(every, tiny).tolist() == [True, True, True, False, False]


def test_verifier_needs_both_bracketing_directions():
    # one F node off every ray, outside the ball: it is captured only when
    # both directions around its angle are accepted
    res = 33
    node = np.array([0.5, 0.75])
    f = _sample(
        2, res, lambda p: np.linalg.norm(p - node, axis=-1) < 1e-9, closed=True
    )
    g = _sample(2, res, lambda p: np.ones(len(p), dtype=bool), closed=False)
    assert np.count_nonzero(f.indicator) == 1
    nd = 4 * res
    j0 = int(np.arctan2(node[1], node[0]) // (2.0 * np.pi / nd))
    for keep in ([j0, j0 + 1], [j0], [j0 + 1]):
        directions = np.zeros(nd, dtype=bool)
        directions[keep] = True
        cert = cone.ConeCertificate(directions=directions, radius=0.5, verified=False)
        assert cone.verify_cone(f, g, cert) == (len(keep) == 2)
        assert cone.accepts(cert, node[None, :])[0] == (len(keep) == 2)


def test_empty_capture_set_is_vacuously_captured():
    f = _sample(2, 65, lambda p: np.zeros(len(p), dtype=bool), closed=True)
    g = _sample(2, 65, lambda p: np.ones(len(p), dtype=bool), closed=False)
    cert = cone.find_cone(f, g)
    assert cert.verified
    assert cone.verify_cone(f, g, cert)


def test_sampled_set_shape_validation():
    with pytest.raises(ParameterError):
        cone.SampledSet(dimension=2, resolution=9, closed=True, indicator=np.ones((9, 8), dtype=bool))
    with pytest.raises(ParameterError):
        cone.SampledSet(dimension=3, resolution=9, closed=True, indicator=np.ones((9, 9, 9), dtype=bool))
    with pytest.raises(ParameterError):
        cone.ConeCertificate(directions=np.ones(8, dtype=bool), radius=1.0, verified=False)


def _node_points(s):
    """Grid nodes over [-1, 1]^dimension as (N, dimension) rows, C order."""
    axis = np.linspace(-1.0, 1.0, s.resolution)
    mesh = np.meshgrid(*[axis] * s.dimension, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=-1)


def _reference_ray_clearance(g, radius=TOP):
    """Point-by-point clearance scan of the full ray lattice from 1 - radius.

    Entry j is the largest sample t whose cell test fails along direction
    j, or -inf when the whole ray is clear: every ray sample locates its
    cell and reads that cell's corners from the radially extended
    indicator.  Direction j belongs to the cone of any radius s >= 1 - radius
    exactly when the entry is < s.
    """
    h = g.spacing
    res = g.resolution
    ext = g.indicator
    if g.dimension == 2:
        pts = _node_points(g)
        radii = np.linalg.norm(pts, axis=-1)
        outside = radii > 1.0
        pulled = pts[outside] * ((1.0 - h) / radii[outside])[:, None]
        idx = np.clip(np.rint((pulled + 1.0) / h).astype(np.int64), 0, res - 1)
        flat = np.array(g.indicator).reshape(-1)
        flat[np.flatnonzero(outside)] = flat[idx[:, 0] * res + idx[:, 1]]
        ext = flat.reshape(res, res)
        angles = 2.0 * np.pi * np.arange(4 * res) / (4 * res)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        dirs = np.array([[-1.0], [1.0]])
    t_lo = 1.0 - radius
    count = int(np.ceil((1.0 - t_lo) / (h / 2.0))) + 1
    ts = np.linspace(t_lo, 1.0, count)
    pts = (ts[None, :, None] * dirs[:, None, :]).reshape(-1, g.dimension)
    cell = np.clip(np.floor((pts + 1.0) / h).astype(np.int64), 0, res - 2)
    if g.dimension == 1:
        ok = ext[cell[:, 0]] & ext[cell[:, 0] + 1]
    else:
        i, j = cell[:, 0], cell[:, 1]
        ok = ext[i, j] & ext[i + 1, j] & ext[i, j + 1] & ext[i + 1, j + 1]
    blocked = np.where(ok.reshape(len(dirs), count), -np.inf, ts[None, :])
    return np.max(blocked, axis=1)


def _ladder_oracle(f, g, steps):
    """Top-down scan of every radius k/K, first success wins; None if none does.

    Reference for the single check in ``find_cone`` at r = (K - 1)/K:
    clearance and membership tests are written out here rather than taken
    from the cone module.
    """
    clearance = _reference_ray_clearance(g, (steps - 1) / steps)
    pts = _node_points(f)
    radii = np.linalg.norm(pts, axis=-1)
    f_flat = f.indicator.reshape(-1)
    for k in range(1, steps):
        radius = (steps - k) / steps
        pre = clearance < radius
        if f.dimension == 1:
            accepted = pre
            in_cone = accepted[(pts[:, 0] > 0.0).astype(int)] & (pts[:, 0] != 0.0)
        else:
            accepted = pre & np.roll(pre, 1) & np.roll(pre, -1)
            nd = accepted.size
            angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
            j0 = np.floor(angles / (2.0 * np.pi / nd)).astype(int) % nd
            in_cone = accepted[j0] & accepted[(j0 + 1) % nd] & (radii > 0.0)
        covered = (radii < radius) | ((radii <= 1.0 + f.spacing) & in_cone)
        if np.all(covered[f_flat]):
            return radius, accepted
    return None


def _failing_instances():
    res = 257
    f = _sample(
        2, res, lambda p: np.linalg.norm(p - np.array([63.0 / 64.0, 0.0]), axis=-1) <= 0.004,
        closed=True,
    )
    g = _sample(2, res, lambda p: p[:, 1] > 0.2, closed=False)
    yield f, g, 64
    yield f, g, 8
    # a ring of F outside radius 3/4 that no ray reaches through G
    ring = _sample(
        2, 129, lambda p: np.abs(np.linalg.norm(p, axis=-1) - 0.8) <= 0.01, closed=True
    )
    g_disk = _sample(
        2, 129, lambda p: np.linalg.norm(p, axis=-1) < 0.5, closed=False
    )
    yield ring, g_disk, 4


def test_single_radius_check_matches_the_ladder_scan(monkeypatch):
    # K = 64 is the library's radius; the other K patch CERTIFIED_RADIUS
    # to (K - 1)/K, which also moves the ray lattice to start near 1/K
    rng = np.random.default_rng(11)
    cases = []
    for k in range(12):
        f, g = acceptance._random_cone_instance(rng, *acceptance._polar_grid(96 + 32 * (k % 2)))
        cases.extend((f, g, steps) for steps in (64, 16, 5))
    cases.extend(_failing_instances())
    f1, g1 = (
        _sample(1, 129, lambda p: p[:, 0] >= 0.5, closed=True),
        _sample(1, 129, lambda p: p[:, 0] > 0.25, closed=False),
    )
    cases.append((f1, g1, 64))
    failures = 0
    for f, g, steps in cases:
        monkeypatch.setattr(cone, "CERTIFIED_RADIUS", (steps - 1) / steps)
        expected = _ladder_oracle(f, g, steps)
        if expected is None:
            failures += 1
            with pytest.raises(ResolutionError):
                cone.find_cone(f, g)
            continue
        cert = cone.find_cone(f, g)
        radius, accepted = expected
        assert cert.radius == radius
        assert np.array_equal(cert.directions, accepted)
    assert failures >= 3


# ------------------------------------------------ per-grid geometry tables

_TABLES = (cone._ray_cells, cone._node_tables, cone._node_brackets)


def _table_cases():
    rng = np.random.default_rng(3)
    for res in (256, 257, 33, 34, 9, 8):
        grid = acceptance._polar_grid(res)
        for _ in range(2):
            yield acceptance._random_cone_instance(rng, *grid)
    yield (
        _sample(1, 65, lambda p: p[:, 0] >= 0.5, closed=True),
        _sample(1, 65, lambda p: p[:, 0] > 0.25, closed=False),
    )


def _certificate_or_error(f, g):
    try:
        cert = cone.find_cone(f, g)
    except (PreconditionError, ResolutionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return cert.directions.tobytes(), cert.radius, cert.verified


def test_tabulated_ray_clearance_matches_the_point_by_point_scan(monkeypatch):
    for radius in (TOP, 0.8, 0.5):
        monkeypatch.setattr(cone, "CERTIFIED_RADIUS", radius)
        for _, g in _table_cases():
            expected = _reference_ray_clearance(g, radius) < radius
            assert cone.ray_clearance(g).tobytes() == expected.tobytes()


def test_certificates_do_not_depend_on_table_warmth():
    cases = list(_table_cases())
    for table in _TABLES:
        table.cache_clear()
    cold = [_certificate_or_error(f, g) for f, g in cases]
    assert any(isinstance(c, tuple) and c[2] for c in cold)
    # warm, in reverse order: entries get evicted and rebuilt along the way
    warm = [_certificate_or_error(f, g) for f, g in reversed(cases)]
    assert warm[::-1] == cold
    for table in _TABLES:
        assert table.cache_info().maxsize <= 4


def test_cached_tables_are_read_only_int32():
    # only the samples in [r, 1] are tabulated: 5 of a ray's 253 at 257²
    assert cone._ray_cells(2, 257, TOP).shape == (4 * 257, 5)
    arrays = [
        cone._ray_cells(2, 33, TOP),
        cone._ray_cells(1, 33, TOP),
        *cone._node_tables(2, 33),
        *cone._node_brackets(2, 33, 132),
        *cone._node_brackets(1, 33, 2),
    ]
    for a in arrays:
        if a.dtype.kind == "i":
            assert a.dtype == np.int32
        with pytest.raises(ValueError):
            a.reshape(-1)[0] = 0


def test_bracket_table_matches_a_cross_product_oracle():
    # node p lies in the closed sector from ray j0 up to (not onto) ray j1:
    # d_j0 x p >= 0 > d_j1 x p, with slack for nodes on a ray
    for res, nd in ((256, 1024), (257, 1028), (257, 516), (33, 132), (9, 4), (8, 5)):
        j0, j1 = (j.astype(np.int64) for j in cone._node_brackets(2, res, nd))
        assert np.array_equal(j1, (j0 + 1) % nd)
        axis = np.linspace(-1.0, 1.0, res)
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        px, py = xs.reshape(-1), ys.reshape(-1)
        nonzero = (px != 0.0) | (py != 0.0)
        assert np.all((j0 >= 0) & (j0 < nd))

        def cross(j):
            angle = 2.0 * np.pi * j / nd
            return np.cos(angle) * py - np.sin(angle) * px

        assert np.all(cross(j0)[nonzero] >= -1e-12)
        assert np.all(cross((j0 + 1) % nd)[nonzero] < 1e-12)
        radii = cone._node_tables(2, res)[0]
        assert np.allclose(radii, np.hypot(px, py), rtol=4e-16, atol=0.0)
    # both brackets of a 1-D node are its side: 0 for x <= 0 (the origin
    # included), 1 for x > 0
    for res in (2, 3, 8, 9, 129, 256):
        j0, j1 = cone._node_brackets(1, res, 2)
        side = (np.linspace(-1.0, 1.0, res) > 0.0).astype(np.int32)
        assert np.array_equal(j0, side) and np.array_equal(j1, side)


# ------------------------------------------------------ certificate bits


def _criterion_04_instances():
    """Criterion 04's 100 random instances and its segment instance."""
    rng = np.random.default_rng(0)
    grid_radii, grid_angles = acceptance._polar_grid(256)
    for _ in range(100):
        yield acceptance._random_cone_instance(rng, grid_radii, grid_angles)
    axis = np.linspace(-1.0, 1.0, 256)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    seg = (np.abs(ys) <= 1.0 / 255.0 + 1e-9) & (xs >= 0.0) & (grid_radii <= 1.0)
    yield cone.SampledSet(2, 256, True, seg), cone.SampledSet(2, 256, False, xs > 0.5)


def _one_dimensional_instances():
    cases = (
        (lambda x: x >= 0.5, lambda x: x > 0.25),
        (lambda x: x <= -0.5, lambda x: x < -0.25),
        (lambda x: np.abs(x) >= 0.3, lambda x: np.abs(x) > 0.1),
        # one node between the radius and the rim band whose ray leaves G
        (lambda x: np.abs(x - 0.986) <= 0.002, lambda x: x < 0.5),
        (lambda x: np.abs(x) <= 1.0, lambda x: x > -2.0),
    )
    for res in (2, 3, 64, 129, 200, 513):
        x = np.linspace(-1.0, 1.0, res)
        for f_of, g_of in cases:
            yield cone.SampledSet(1, res, True, f_of(x)), cone.SampledSet(1, res, False, g_of(x))


def _two_dimensional_refusals():
    # one F node at the radius whose ray never meets G, then a rim outside G
    for res in (257, 513):
        yield (
            _sample(2, res, lambda p: np.linalg.norm(p - np.array([TOP, 0.0]), axis=-1) <= 0.002,
                    closed=True),
            _sample(2, res, lambda p: p[:, 1] > 0.2, closed=False),
        )
    yield _disk(1.0, closed=True, res=65), _sample(2, 65, lambda p: p[:, 0] > 0.0, closed=False)


#: sha256 over every pinned instance's certificate (direction count and
#: bytes, radius bytes, verified flag) or refusal type, and the outcome
#: tally, both taken before the search dropped its radius ladder
CERTIFICATE_PINS = {
    "criterion_04": (
        "ec9dbe2492b6c626b6596a04f551a3346597dbc5da19a9006c6471fdb56a5f2b",
        {"verified=True": 101},
    ),
    "one_dimensional": (
        "50d7dd4bb4ec9561e35e94ce721c255e0cf20b9eaf26cb542961d1cff89b360d",
        {"PreconditionError": 6, "verified=True": 23, "ResolutionError": 1},
    ),
    "table_cases": (
        "4c889dedd0a516261a25c77b4321af6b363a5933688228dea5b6ff776af23544",
        {"verified=True": 5, "PreconditionError": 8},
    ),
    "two_dimensional_refusals": (
        "c1c4562513093ebb046f5ac26510a49ec4d4267b71cd1c2ff313250b67e8c1fb",
        {"ResolutionError": 2, "PreconditionError": 1},
    ),
}


def _pinned_instances(name):
    if name == "criterion_04":
        return _criterion_04_instances()
    if name == "table_cases":
        return _table_cases()
    if name == "two_dimensional_refusals":
        return _two_dimensional_refusals()
    return _one_dimensional_instances()


@pytest.mark.parametrize("name", sorted(CERTIFICATE_PINS))
def test_certificates_keep_their_bits(name):
    digest = hashlib.sha256()
    tally = collections.Counter()
    for f, g in _pinned_instances(name):
        try:
            cert = cone.find_cone(f, g)
        except (PreconditionError, ResolutionError) as exc:
            outcome = type(exc).__name__
            digest.update(outcome.encode())
        else:
            outcome = f"verified={cert.verified}"
            digest.update(f"{cert.directions.size}:".encode())
            digest.update(cert.directions.tobytes())
            digest.update(np.float64(cert.radius).tobytes())
            digest.update(bytes([cert.verified]))
        tally[outcome] += 1
    assert (digest.hexdigest(), dict(tally)) == CERTIFICATE_PINS[name]
