"""Chart coverings and the inductive gluing pass.

The replicated degree-one circle trace gives a sharp analytic check: the
glued collar energy is the circle energy 2 pi (times the discrete chord
factor) while the patch total is K times the arc energy, so the ratio
must land on 2 pi / (K * arc length) for any chart count.
"""

import hashlib
import itertools

import numpy as np
import pytest

from sobolev_glue import cli, cone, fileio
from sobolev_glue import covering as cov
from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import gridmap as gm
from sobolev_glue import target as tg
from sobolev_glue.errors import GlueError, ParameterError, PreconditionError


#: ``sobolev-glue glue`` stdout, line by line, for replicated patches of
#: ``_torus_x_trace(48)`` (K=4, 10 depth nodes), ``_degree_one_trace(128)``
#: (K=3, 16 depth nodes) and ``_sphere_trace(48)`` (K=9, 10 depth nodes,
#: the benchmark's glue shape).  A change that moves a glue number has to
#: change this pin.
GLUE_CLI_LINES = {
    "torus": [
        "base=torus",
        "k=4",
        "p=2",
        "r_1=1",
        "accepted_fraction_1=0",
        "trace_sup_error_1=1.0235750533041806e-15",
        "r_2=0.984375",
        "accepted_fraction_2=0.48832684824902722",
        "trace_sup_error_2=1.3780300886286245e-15",
        "r_3=0.984375",
        "accepted_fraction_3=0.77626459143968873",
        "trace_sup_error_3=1.7342238036525468e-15",
        "r_4=0.984375",
        "accepted_fraction_4=1",
        "trace_sup_error_4=1.7342238036525468e-15",
        "trace_sup_error=1.7342238036525468e-15",
        "patch_energy_total=88.699677276333659",
        "glued_energy=39.422078789481624",
        # 4/9: the K=4 annulus holds only core-boundary nodes, which keep their values
        "ratio=0.44444444444444442",
        "degenerate=false",
    ],
    "circle": [
        "base=circle",
        "k=3",
        "p=2",
        "r_1=1",
        "accepted_fraction_1=0",
        "trace_sup_error_1=1.1957467920563633e-15",
        "r_2=0.984375",
        "accepted_fraction_2=0.5",
        "trace_sup_error_2=1.1957467920563633e-15",
        "r_3=0.984375",
        "accepted_fraction_3=1",
        "trace_sup_error_3=1.1957467920563633e-15",
        "trace_sup_error=1.1957467920563633e-15",
        "patch_energy_total=9.4228856398225496",
        "glued_energy=6.2823794321910063",
        "ratio=0.66671502470970401",
        "degenerate=false",
    ],
    "torus_k9": [
        "base=torus",
        "k=9",
        "p=2",
        "r_1=1",
        "accepted_fraction_1=0",
        "trace_sup_error_1=6.2372898663299401e-16",
        "r_2=0.984375",
        "accepted_fraction_2=0.31809338521400776",
        "trace_sup_error_2=7.4763160587938327e-16",
        "r_3=0.984375",
        "accepted_fraction_3=0.55933852140077822",
        "trace_sup_error_3=9.3982957005224942e-16",
        "r_4=0.984375",
        "accepted_fraction_4=0.38813229571984437",
        "trace_sup_error_4=9.3982957005224942e-16",
        "r_5=0.984375",
        "accepted_fraction_5=0.56517509727626458",
        "trace_sup_error_5=9.0960403699013819e-16",
        "r_6=0.984375",
        "accepted_fraction_6=0.74221789883268485",
        "trace_sup_error_6=8.4873196443249142e-16",
        "r_7=0.984375",
        "accepted_fraction_7=0.77626459143968873",
        "trace_sup_error_7=8.9127846215183253e-16",
        "r_8=0.984375",
        "accepted_fraction_8=0.88813229571984431",
        "trace_sup_error_8=7.7925972016093287e-16",
        "r_9=0.984375",
        "accepted_fraction_9=1",
        "trace_sup_error_9=1.2034730850450337e-15",
        "trace_sup_error=1.2034730850450337e-15",
        "patch_energy_total=31.403791723336987",
        "glued_energy=13.949279415796148",
        "ratio=0.44419092887532019",
        "degenerate=false",
    ],
}


def _degree_one_trace(n):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)


def _torus_x_trace(n):
    base = dom.torus(n, n)
    x = gm.node_mesh(base)[:, 0]
    vals = np.stack([np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)], axis=-1)
    return gm.TraceMap(
        base=base, target=tg.circle(), values=vals.reshape(n, n, 2), constraint_tol=1e-12
    )


def _sphere_trace(n):
    # S^2-valued, tilted away from the north pole by two periodic fields
    base = dom.torus(n, n)
    x, y = gm.node_mesh(base).T
    w = np.stack(
        [
            0.6 * np.cos(2.0 * np.pi * x) + 0.3 * np.sin(2.0 * np.pi * y),
            0.5 * np.sin(2.0 * np.pi * (x + y)),
            np.ones_like(x),
        ],
        axis=-1,
    )
    vals = (w / np.linalg.norm(w, axis=-1, keepdims=True)).reshape(n, n, 3)
    return gm.TraceMap(base=base, target=tg.sphere(3), values=vals, constraint_tol=1e-12)


def _circle_setup(k, n, n_depth=16):
    trace = _degree_one_trace(n)
    covering = cov.build_covering(dom.circle(n), k)
    patches = [
        cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts
    ]
    return covering, patches, trace


def test_core_masks_match_the_pointwise_core_tests():
    # the last entry is the most nodes one chart has on its core boundary,
    # where the open and closed tests part; None: not pinned
    cases = [
        (dom.circle(64), 2, 2),
        (dom.circle(64), 3, None),
        (dom.circle(2048), 5, None),
        (dom.torus(16, 16), 4, 48),
        (dom.torus(16, 16), 9, None),
        (dom.torus(16, 16), 10, None),
        (dom.torus(48, 48), 6, None),
        (dom.torus(48, 48), 36, None),
        # the glue's check grid under the 3 x 3 torus covering
        (dom.torus(384, 384), 9, 768),
    ]
    for base, k, boundary_nodes in cases:
        covering = cov.build_covering(base, k)
        pts = gm.node_mesh(base)
        most = 0
        for chart in covering.charts:
            open_core, closed_core = chart.core_masks(base)
            a = np.abs(chart.affine(pts))
            assert np.array_equal(open_core, chart.in_core(pts))
            assert np.array_equal(open_core, np.all(a < 1.0, axis=-1))
            assert np.array_equal(closed_core, np.all(a <= 1.0 + 1e-12, axis=-1))
            most = max(most, int(np.sum(closed_core & ~open_core)))
        if boundary_nodes is not None:
            assert most == boundary_nodes


@pytest.mark.parametrize("m", [1, 2])
def test_square_to_disk_is_one_radial_bi_lipschitz_map(m):
    rng = np.random.default_rng(0)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=(400, m)), corners, np.zeros((1, m))])
    z = cov.square_to_disk(x)
    assert np.max(np.linalg.norm(z, axis=-1)) <= 1.0 + 1e-15
    assert np.max(np.abs(cov.disk_to_square(z) - x)) <= 1e-15
    if m == 1:
        # the circle's chart map is the affine one, bit for bit
        assert z.tobytes() == x.tobytes()
        assert cov.disk_to_square(x).tobytes() == x.tobytes()
    # the square's boundary lands on the unit sphere
    probe = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 21), repeat=m)))
    edge = probe[np.max(np.abs(probe), axis=-1) == 1.0]
    assert np.max(np.abs(np.linalg.norm(cov.square_to_disk(edge), axis=-1) - 1.0)) <= 1e-15
    # pairs 1e-6 apart within 1e-3 of a corner, where the elliptical map's
    # inverse stretched distances by up to ~1,460; the radial map's bounds
    # are 2/sqrt(3) forward and sqrt(2)(1 + sqrt(5))/2 backward
    a = corners[rng.integers(0, len(corners), 20000)]
    a = a * (1.0 - rng.uniform(2e-6, 1e-3, size=a.shape))
    step = rng.normal(size=a.shape)
    b = a + 1e-6 * step / np.linalg.norm(step, axis=-1, keepdims=True)
    apart = np.linalg.norm(a - b, axis=-1)
    images_apart = np.linalg.norm(cov.square_to_disk(a) - cov.square_to_disk(b), axis=-1)
    assert np.max(images_apart / apart) <= 1.16
    assert np.max(apart / images_apart) <= 2.29


def test_covering_construction_validates_inputs():
    with pytest.raises(ParameterError):
        cov.build_covering(dom.interval(16), 2)
    with pytest.raises(ParameterError):
        cov.build_covering(dom.circle(16), 0)
    with pytest.raises(ParameterError):
        cov.build_covering(dom.circle(16), 1)  # a covering has at least 2 charts
    with pytest.raises(ParameterError):
        cov.build_covering(dom.torus(16, 16), 1)
    with pytest.raises(ParameterError):
        cov.build_covering(dom.torus(16, 16), 2)  # torus needs at least 4
    with pytest.raises(ParameterError):
        cov.build_covering(dom.torus(16, 16), 5)  # no 2x2-or-larger factorization
    stretched = dom.DomainSpec((dom.Axis(length=4.0, count=16, periodic=True),))
    with pytest.raises(ParameterError):
        cov.build_covering(stretched, 2)  # only canonical bases are coverable


def test_circle_chart_cores_cover_the_base():
    for k in (2, 3, 5):
        covering = cov.build_covering(dom.circle(96), k)
        assert len(covering.charts) == k
        thetas = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)[:, None]
        hit = np.zeros(512, dtype=bool)
        for chart in covering.charts:
            hit |= chart.in_core(thetas)
        assert np.all(hit)


@pytest.mark.parametrize(
    "kind, k",
    [("circle", k) for k in (2, 3, 5, 64, 1000)]
    + [("torus", k) for k in (4, 6, 9, 10, 36, 400, 1000)],
)
def test_chart_cores_cover_the_base_and_map_onto_the_unit_ball(kind, k):
    # build_covering samples nothing, so its construction is checked here:
    # the open cores cover a 1024-node circle or a 128 x 128 torus, and on
    # the boundary nodes of a 33-node probe of [-1, 1]^m every chart map
    # lands on the unit sphere and inverts
    m = 1 if kind == "circle" else 2
    grid = dom.from_kind(kind, (1024,) if m == 1 else (128, 128))
    covering = cov.build_covering(grid, k)
    assert len(covering.charts) == k
    covered = np.zeros(np.prod(grid.shape), dtype=bool)
    probe = cone._grid_points(m, 33)
    edges = probe[np.max(np.abs(probe), axis=-1) == 1.0]
    for chart in covering.charts:
        covered |= chart.core_masks(grid)[0]
        base_pts = chart.base_points((edges + 1.0) / 2.0 * np.array(chart.core_extent))
        z = chart.to_disk(base_pts)
        assert np.max(np.abs(np.linalg.norm(z, axis=-1) - 1.0)) <= 1e-9
        back, _ = chart.from_disk(z)
        gap = chart._wrapped_offsets(back) - chart._wrapped_offsets(base_pts)
        assert np.max(np.abs(gap)) <= 1e-12
    assert np.all(covered)


def test_chart_disk_coordinates_invert():
    covering = cov.build_covering(dom.torus(32, 32), 4)
    chart = covering.charts[0]
    rng = np.random.default_rng(1)
    z = rng.uniform(-0.7, 0.7, size=(200, 2))
    z = z[np.linalg.norm(z, axis=-1) <= 1.0]
    pts, offsets = chart.from_disk(z)
    again = chart.to_disk(pts)
    assert np.max(np.abs(again - z)) <= 1e-9


@pytest.mark.parametrize("base, k", [(dom.circle(256), 3), (dom.torus(64, 64), 4)])
def test_base_points_invert_patch_offsets_across_the_seam(base, k):
    # chart 0's core straddles the seam on every axis, so it holds points
    # near 0 and near the full length
    chart = cov.build_covering(base, k).charts[0]
    lengths = np.array(chart.base_lengths)
    _, closed_core = chart.core_masks(base)
    rng = np.random.default_rng(4)
    inner = chart.base_points(rng.uniform(0.0, 1.0, (300, base.ndim)) * chart.core_extent)
    pts = np.concatenate([gm.node_mesh(base)[closed_core], inner])
    low, high = np.min(pts, axis=0), np.max(pts, axis=0)
    assert np.all(low < 0.05 * lengths) and np.all(high > 0.95 * lengths)
    back = chart.base_points(chart.patch_offsets(pts))
    assert np.all((back >= 0.0) & (back < lengths))
    gap = np.mod(back - pts + lengths / 2.0, lengths) - lengths / 2.0
    assert np.max(np.abs(gap)) <= 1e-12


def _corner_loop_membership(indicator, axes, pts):
    """Every corner of each point's cell, one gather per corner (2^m of them)."""
    ok = np.ones(pts.shape[0], dtype=bool)
    idx = [gm._locate(axis, pts[:, a])[0] for a, axis in enumerate(axes)]
    for corner in range(1 << len(axes)):
        sel = [np.mod(idx[a] + ((corner >> a) & 1), axis.count) for a, axis in enumerate(axes)]
        ok &= indicator[tuple(sel)]
    return ok


@pytest.mark.parametrize(
    "grid", [dom.circle(2048), dom.circle(3), dom.torus(384, 384), dom.torus(4, 4)]
)
def test_conservative_membership_matches_the_corner_loop(grid):
    rng = np.random.default_rng(grid.axes[0].count)
    lengths = np.array([axis.length for axis in grid.axes])
    nodes = gm.node_mesh(grid)
    h = np.array([axis.spacing for axis in grid.axes])
    seam = np.array([0.0, lengths[0] - 1e-15])
    # on a node of axis 0 and anywhere in a cell along the other axes
    edges = nodes[rng.integers(0, len(nodes), 300)]
    edges[:, 1:] += rng.uniform(0.0, 1.0, (300, grid.ndim - 1)) * h[1:]
    pts = np.concatenate(
        [
            rng.uniform(0.0, 1.0, (4000, grid.ndim)) * lengths,
            nodes[rng.integers(0, len(nodes), 500)],
            edges,
            np.stack(np.meshgrid(*[seam] * grid.ndim, indexing="ij"), -1).reshape(-1, grid.ndim),
        ]
    )
    cells = tuple(gm._locate(axis, pts[:, a])[0] for a, axis in enumerate(grid.axes))
    for density in (0.5, 0.9, 1.0):
        mask = rng.uniform(size=grid.shape) < density
        got = cov._conservative_membership(mask, cells)
        assert got.tobytes() == _corner_loop_membership(mask, grid.axes, pts).tobytes()


def test_two_chart_circle_glue_hits_the_analytic_ratio():
    covering, patches, trace = _circle_setup(2, 128)
    glued, report = cov.glue(covering, patches, trace)
    # first step swallows its whole chart, second certifies just below 1
    assert [step.radius for step in report.steps] == [1.0, 63.0 / 64.0]
    assert report.trace_sup_error <= 1e-12
    assert not report.degenerate
    # arc 3 pi / 2 per chart: ratio = 2 pi / (2 * (3 pi / 2) ) = 2 / 3
    assert report.ratio == pytest.approx(2.0 / 3.0, abs=2e-3)
    two_pi = 2.0 * np.pi
    assert report.glued_energy == pytest.approx(two_pi, rel=0.01)


def test_three_chart_circle_glue_hits_the_analytic_ratio():
    covering, patches, trace = _circle_setup(3, 96)
    glued, report = cov.glue(covering, patches, trace)
    # arc pi per chart: ratio = 2 pi / (3 pi) = 2 / 3 again
    assert report.ratio == pytest.approx(2.0 / 3.0, abs=3e-3)
    assert report.steps[0].accepted_fraction == 0.0
    assert report.steps[-1].accepted_fraction == 1.0


def test_depth_constant_patches_glue_to_a_depth_constant_collar():
    covering, patches, trace = _circle_setup(2, 64, n_depth=10)
    glued, _ = cov.glue(covering, patches, trace)
    spread = np.max(np.abs(glued.values - glued.values[:, :1, :]))
    assert spread <= 1e-12


def test_glued_ratio_is_scale_invariant():
    # euclidean-valued copies of the same data scaled by 2: both energies
    # pick up 2^p, the ratio must not move
    n, n_depth = 64, 10
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.stack([np.cos(t), np.sin(t)], axis=-1)
    ratios = []
    for lam in (1.0, 2.0):
        trace = gm.TraceMap(base=base, target=tg.euclidean(2), values=lam * vals)
        covering = cov.build_covering(base, 2)
        patches = [
            cov.replicate_trace_patch(trace, chart, n_depth)
            for chart in covering.charts
        ]
        _, report = cov.glue(covering, patches, trace)
        ratios.append(report.ratio)
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)


def test_constant_trace_is_reported_degenerate():
    n, n_depth = 48, 8
    base = dom.circle(n)
    trace = gm.TraceMap(
        base=base,
        target=tg.circle(),
        values=np.tile(np.array([1.0, 0.0]), (n, 1)),
        constraint_tol=1e-12,
    )
    covering = cov.build_covering(base, 2)
    patches = [
        cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts
    ]
    glued, report = cov.glue(covering, patches, trace)
    assert report.degenerate
    assert np.isnan(report.ratio)
    assert report.patch_energy_total == 0.0


def test_torus_four_chart_glue():
    n_depth = 10
    trace = _torus_x_trace(48)
    covering = cov.build_covering(trace.base, 4)
    patches = [
        cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts
    ]
    glued, report = cov.glue(covering, patches, trace)
    assert report.trace_sup_error <= 1e-12
    assert not report.degenerate
    # the audit measures on the collar bottom, the report per chart grid;
    # both must sit at rounding level for node-aligned patches
    assert cov.verify_glue(glued, trace) <= 1e-12
    assert report.ratio == pytest.approx(0.4446, abs=2e-3)


def _depth_twisted(patches):
    # rotate the first two components of each replicated patch by
    # +-0.8 t / depth (sign by chart parity); the bottom row t = 0 keeps
    # the trace
    out = []
    for i, patch in enumerate(patches):
        depth_axis = patch.domain.axes[-1]
        angle = (0.8 if i % 2 == 0 else -0.8) * depth_axis.coordinates() / depth_axis.length
        c, s = np.cos(angle), np.sin(angle)
        x, y = patch.values[..., 0], patch.values[..., 1]
        vals = patch.values.copy()
        vals[..., 0], vals[..., 1] = c * x - s * y, s * x + c * y
        out.append(
            gm.GridMap(
                domain=patch.domain,
                target=patch.target,
                values=vals,
                constraint_tol=patch.constraint_tol,
            )
        )
    return out


@pytest.mark.parametrize(
    "case, pinned_ratio",
    [
        ("circle", 2.373523880645511),
        ("torus", 1.1254959854866158),
        ("torus49", 1.1179579218679372),
        ("sphere", 1.6174118456352014),
    ],
)
def test_depth_varying_patches_pin_the_glued_ratio(case, pinned_ratio):
    # depth-constant patches cannot tell which depth the fold reads; these
    # can (reading the reflected region at depth x2 moves the circle and
    # torus49 ratios to about 2.4626 and 1.1492).  A chart's annulus
    # r < |z| <= 1 is the frame r < |x|_inf <= 1 of its core square; on the
    # 48^2 torus it holds only core-boundary nodes, which the fold leaves
    # as they are, so only the 49^2 torus, whose core edges miss the grid,
    # folds interior nodes.  The sphere case glues nine S^2-valued charts,
    # so later steps fold into states earlier folds made
    trace_tol = 1e-12
    if case == "circle":
        trace = _degree_one_trace(128)
        k, n_depth = 3, 16
    elif case == "torus":
        trace = _torus_x_trace(48)
        k, n_depth = 4, 10
    elif case == "torus49":
        trace = _torus_x_trace(49)
        k, n_depth = 4, 10
        # the replicated patches interpolate the trace off the grid
        trace_tol = 1e-6
    else:
        trace = _sphere_trace(64)
        k, n_depth = 9, 10
        # chart corners at multiples of 1/6 miss the 64-node grid, so the
        # replicated patches interpolate the trace (error 1.97e-3)
        trace_tol = 2e-3
    covering = cov.build_covering(trace.base, k)
    patches = _depth_twisted(
        [cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts]
    )
    glued, report = cov.glue(covering, patches, trace)
    assert report.ratio == pytest.approx(pinned_ratio, rel=1e-12)
    assert report.trace_sup_error <= trace_tol
    assert cov.verify_glue(glued, trace) <= trace_tol


def test_glue_raises_when_a_step_leaves_the_base_uncovered(monkeypatch):
    covering, patches, trace = _circle_setup(2, 64, n_depth=8)
    # after step 2 nothing is trusted and no later core remains
    monkeypatch.setattr(
        cov, "_trusted_after", lambda trusted, inside, kept: np.zeros_like(trusted)
    )
    with pytest.raises(GlueError, match="covering invariant fails after step 2: 100.000%"):
        cov.glue(covering, patches, trace)


def _no_cone(*args):
    raise AssertionError("a glue step ran before the glue checked p")


def test_glue_validates_patch_lists(monkeypatch):
    covering, patches, trace = _circle_setup(2, 64, n_depth=8)
    monkeypatch.setattr(cone, "find_cone", _no_cone)
    for p in (0.5, float("nan")):
        with pytest.raises(ParameterError, match="exponent p"):
            cov.glue(covering, patches, trace, p=p)
    monkeypatch.undo()
    with pytest.raises(ParameterError):
        cov.glue(covering, patches[:1], trace)
    wrong_base = _degree_one_trace(48)
    with pytest.raises(ParameterError):
        cov.glue(covering, patches, gm.TraceMap(
            base=dom.torus(8, 8),
            target=tg.euclidean(2),
            values=np.zeros((8, 8, 2)),
        ))


def test_glue_rejects_patches_that_stray_from_the_trace():
    n, n_depth = 64, 8
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.stack([np.cos(t), np.sin(t)], axis=-1)
    trace = gm.TraceMap(base=base, target=tg.euclidean(2), values=vals)
    covering = cov.build_covering(base, 2)
    patches = [
        cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts
    ]
    bad = gm.GridMap(
        domain=patches[0].domain,
        target=patches[0].target,
        values=patches[0].values + 5.0,
    )
    with pytest.raises(PreconditionError):
        cov.glue(covering, [bad, patches[1]], trace)
    # a mild offset below the default tolerance of ten grid cells passes
    mild = gm.GridMap(
        domain=patches[0].domain,
        target=patches[0].target,
        values=patches[0].values + 0.05,
    )
    cov.glue(covering, [mild, patches[1]], trace)


def test_verify_glue_measures_a_moved_bottom_node():
    covering, patches, trace = _circle_setup(2, 128)
    glued, _ = cov.glue(covering, patches, trace)
    node = glued.values[37, 0]
    turned = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]) @ node
    # a 0.1 shift, and a 1 rad turn along the circle whose chord
    # 2 sin(1/2) ~ 0.96 exceeds the 10 h ~ 0.49 that criterion 05 allows
    assert 2.0 * np.sin(0.5) > 10.0 * trace.base.max_spacing
    for value, size in ((node + [0.1, 0.0], 0.1), (turned, 2.0 * np.sin(0.5))):
        values = glued.values.copy()
        values[37, 0] = value
        moved = gm.GridMap(domain=glued.domain, target=glued.target, values=values)
        assert cov.verify_glue(moved, trace) == pytest.approx(size, rel=1e-12)


def test_glue_refuses_a_certificate_that_fails_its_check(monkeypatch):
    covering, patches, trace = _circle_setup(2, 64, n_depth=8)
    monkeypatch.setattr(cone, "verify_cone", lambda f, g, certificate: False)
    with pytest.raises(GlueError, match=r"step 2 \(chart 1\)"):
        cov.glue(covering, patches, trace)


def test_replicate_trace_patch_layout():
    trace = _degree_one_trace(64)
    covering = cov.build_covering(dom.circle(64), 2)
    patch = cov.replicate_trace_patch(trace, covering.charts[0], 6, depth=0.5)
    assert patch.domain.kind == "square"
    assert patch.domain.axes[-1].length == 0.5
    assert patch.domain.axes[-1].count == 6
    # arc of 3 pi / 2 sampled at the trace spacing 2 pi / 64: 48 cells
    assert patch.domain.shape[0] == 49
    assert patch.domain.axes[0].length == pytest.approx(1.5 * np.pi)
    spread = np.max(np.abs(patch.values - patch.values[:, :1, :]))
    assert spread == 0.0
    # bottom row sits on trace nodes, first node at the chart's low end
    np.testing.assert_allclose(
        np.linalg.norm(patch.values[:, 0, :], axis=-1), 1.0, atol=1e-12
    )


@pytest.mark.parametrize("case", ["torus", "circle", "torus_k9"])
def test_glue_cli_prints_the_pinned_report(case, tmp_path, capsys):
    make, n, k, n_depth = {
        "torus": (_torus_x_trace, 48, 4, 10),
        "circle": (_degree_one_trace, 128, 3, 16),
        "torus_k9": (_sphere_trace, 48, 9, 10),
    }[case]
    trace = make(n)
    trace_path = str(tmp_path / "trace.sgf")
    fileio.write_grid_map(trace_path, trace)
    args = ["glue", "--base", trace.base.kind, "--k", str(k), "--trace", trace_path]
    for i, chart in enumerate(cov.build_covering(trace.base, k).charts):
        path = str(tmp_path / f"patch{i}.sgf")
        fileio.write_grid_map(path, cov.replicate_trace_patch(trace, chart, n_depth))
        args += ["--patch", path]
    out, report = str(tmp_path / "glued.sgf"), str(tmp_path / "glue.report")
    assert cli.main(args + ["--p", "2.0", "--out", out, "--report", report]) == 0
    assert capsys.readouterr().out.splitlines() == GLUE_CLI_LINES[case]
    with open(report) as fh:
        assert fh.read().splitlines() == GLUE_CLI_LINES[case]


def test_glue_cli_runs_a_ten_chart_torus(tmp_path, capsys):
    # a 2 x 5 chart grid, whose core-boundary round trips
    # test_chart_cores_cover_the_base_and_map_onto_the_unit_ball checks
    trace = _sphere_trace(16)
    trace_path = str(tmp_path / "trace.sgf")
    fileio.write_grid_map(trace_path, trace)
    args = ["glue", "--base", "torus", "--k", "10", "--trace", trace_path]
    for i, chart in enumerate(cov.build_covering(trace.base, 10).charts):
        path = str(tmp_path / f"patch{i}.sgf")
        fileio.write_grid_map(path, cov.replicate_trace_patch(trace, chart, 8))
        args += ["--patch", path]
    out, report = str(tmp_path / "glued.sgf"), str(tmp_path / "glue.report")
    assert cli.main(args + ["--out", out, "--report", report]) == 0
    lines = capsys.readouterr().out.splitlines()
    # every one of the ten steps is reported
    assert [line.partition("=")[0] for line in lines if line.startswith("r_")] == [
        f"r_{i}" for i in range(1, 11)
    ]


#: sha256 of the glued values' bytes followed by ``repr`` of the report,
#: per glue case of ``_glue_case``; the glue's tables and kernels must
#: keep every bit of both
GLUE_BIT_PINS = {
    "circle_deg1_k2": "64f7d03c7d1da1360f95a1eab3f5507768366c9cd3272a1d1e4bfcc8097c4ebd",
    "circle_deg0_k2": "7a67de8b7db8779a5b90e3fb9be4d28099b11072e11c0c8380f8239daf2fcce0",
    "circle_deg1_k3": "da92b3e77a2aae9a46aa14ab1ebf7f25d62c3f7efff8eb547a310b38c02bd77d",
    "circle_deg0_k3": "c0f7e351ceb39d0a0dfb83bcdcfdf84ad105050f04ec169cda98133e94205c73",
    "circle_deg1_k5": "3e0591899ef991d4f99de8c521646c0c301ee783002d9d0f0d565a92a5397ce0",
    "circle_deg0_k5": "e763e24a810d260b9286587e546df19fe3fb6fb51b26e1b1594c98bc96b4d6e0",
    "circle_penalized_k3": "16a04dc886161592859e2113fc01bc446d4388467b9ced491f10975784fb99bb",
    "torus48_k4": "af8c20a60b8fb99b8ddd281a14acba1bcb3b32b461144196f905e214ecbf4129",
    "torus48_k6": "3d2a91f9dd583f46d061b936cc15df44c1b73325ed21ab90861d5ab939ee248b",
    "torus48_k9": "0eaf36e80f9cc526cd92940ae370efbce26b5a49b3f04938b8532d45f3a1245a",
    "twisted_circle": "12bdc963243c2b6841cd157145e2a9fdded33328d910f2816243d497838f7548",
    "twisted_torus": "471936334924ba450bb6b77fe1c5d1b918f425c3cf4dd2a5df5176ec1d24eca9",
    "twisted_torus49": "5eaa3b2df0e059959ec31e10604820b05473e4b4c0067d1575d8496eac1d820a",
    "twisted_sphere": "d6da10f11cb9c7616e0dbb99bda722644077c53309f7c65cd3748e05c1bb7e35",
}


def _degree_zero_trace(n):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    psi = 0.7 * np.sin(t) + 0.3 * np.cos(2.0 * t)
    vals = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-12)


def _glue_case(case):
    """Covering, patches, trace and penalty of one pinned glue."""
    penalty, twist = None, case.startswith("twisted_")
    if case.startswith("circle_deg"):
        make = _degree_one_trace if case.startswith("circle_deg1") else _degree_zero_trace
        trace, k, n_depth = make(128), int(case.rpartition("_k")[2]), 16
    elif case == "circle_penalized_k3":
        d1 = _degree_one_trace(128)
        trace = gm.TraceMap(base=d1.base, target=tg.euclidean(2), values=d1.values)
        k, n_depth, penalty = 3, 16, en.distance_penalty(0.5, 2.0, tg.circle())
    elif case.startswith("torus48_k"):
        trace, k, n_depth = _sphere_trace(48), int(case.rpartition("_k")[2]), 10
    else:
        trace, k, n_depth = {
            "twisted_circle": (_degree_one_trace(128), 3, 16),
            "twisted_torus": (_torus_x_trace(48), 4, 10),
            "twisted_torus49": (_torus_x_trace(49), 4, 10),
            "twisted_sphere": (_sphere_trace(64), 9, 10),
        }[case]
    covering = cov.build_covering(trace.base, k)
    patches = [cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts]
    return covering, _depth_twisted(patches) if twist else patches, trace, penalty


@pytest.mark.parametrize("case", sorted(GLUE_BIT_PINS))
def test_glue_keeps_every_bit(case):
    covering, patches, trace, penalty = _glue_case(case)
    glued, report = cov.glue(covering, patches, trace, penalty=penalty)
    digest = hashlib.sha256(glued.values.tobytes() + repr(report).encode()).hexdigest()
    assert digest == GLUE_BIT_PINS[case]


@pytest.mark.parametrize(
    "base, k", [(dom.circle(2048), 3), (dom.torus(64, 64), 9), (dom.torus(384, 384), 9)]
)
def test_core_disk_is_to_disk_of_the_closed_core(base, k):
    pts = gm.node_mesh(base)
    for chart in cov.build_covering(base, k).charts:
        _, closed_core = chart.core_masks(base)
        assert chart.core_disk(base).tobytes() == chart.to_disk(pts[closed_core]).tobytes()


@pytest.mark.parametrize(
    "base, k", [(dom.circle(128), 5), (dom.torus(48, 48), 9), (dom.torus(48, 48), 6)]
)
def test_ball_tables_match_the_pointwise_pull_back(base, k):
    # the per-glue columns give every step the bits that pulling the
    # chart ball back through from_disk and testing each point gives
    covering = cov.build_covering(base, k)
    m = covering.dimension
    check_grid = dom.from_kind(base.kind, (cov._CHECK_RESOLUTION[m],) * m)
    ball = cov._BallTables(covering, check_grid)
    z = cone._grid_points(m, ball.resolution)[ball.in_ball]
    for step, chart in enumerate(covering.charts[1:], start=1):
        pts, _ = chart.from_disk(z)
        later = np.zeros(pts.shape[0], dtype=bool)
        for other in covering.charts[step + 1 :]:
            later |= other.in_core(pts)
        assert np.array_equal(ball.in_later_cores(covering, step), later)
        for got, axis, a in zip(ball.cells(chart), check_grid.axes, range(m)):
            assert np.array_equal(got, gm._locate(axis, pts[:, a])[0])


def test_sum_of_squares_and_norm_ratio_keep_the_reduction_bits():
    rng = np.random.default_rng(9)
    for m in (1, 2):
        x = np.concatenate([
            rng.normal(size=(5000, m)) * 10.0 ** rng.integers(-150, 150, (5000, 1)),
            np.zeros((1, m)),
        ])
        # the root of the row sum of squares is the covering's row norm
        assert np.sqrt(tg.sum_of_squares(x)).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
        peak = np.max(np.abs(x), axis=-1, keepdims=True)
        unit = x / np.where(peak > 0.0, peak, 1.0)
        want = np.where(peak > 0.0, np.linalg.norm(unit, axis=-1, keepdims=True), 1.0)
        assert cov._norm_ratio(x).tobytes() == want.tobytes()
