"""Chart coverings and the inductive gluing pass.

The replicated degree-one circle trace gives a sharp analytic check: the
glued collar energy is the circle energy 2 pi (times the discrete chord
factor) while the patch total is K times the arc energy, so the ratio
must land on 2 pi / (K * arc length) for any chart count.
"""

import numpy as np
import pytest

from sobolev_glue import cli, cone, fileio
from sobolev_glue import covering as cov
from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import gridmap as gm
from sobolev_glue import target as tg
from sobolev_glue.errors import DomainError, GlueError, ParameterError, PreconditionError


#: ``sobolev-glue glue`` stdout, line by line, for replicated patches of
#: ``_torus_x_trace(48)`` (K=4, 10 depth nodes) and ``_degree_one_trace(128)``
#: (K=3, 16 depth nodes).  A change that moves a glue number has to change
#: this pin.
GLUE_CLI_LINES = {
    "torus": [
        "base=torus",
        "k=4",
        "p=2",
        "r_1=1",
        "accepted_fraction_1=0",
        "trace_sup_error_1=1.0235750533041806e-15",
        "gap_fraction_1=0",
        "r_2=0.984375",
        "accepted_fraction_2=0.54280155642023342",
        "trace_sup_error_2=2.7755575615628914e-15",
        "gap_fraction_2=0",
        "r_3=0.984375",
        "accepted_fraction_3=0.8268482490272373",
        "trace_sup_error_3=3.7975470271705162e-15",
        "gap_fraction_3=0",
        "r_4=0.984375",
        "accepted_fraction_4=1",
        "trace_sup_error_4=3.2425355437371536e-15",
        "gap_fraction_4=0",
        "trace_sup_error=3.7975470271705162e-15",
        "patch_energy_total=88.699677276333659",
        "glued_energy=39.437626657512716",
        "ratio=0.44461973108029829",
        "degenerate=false",
    ],
    "circle": [
        "base=circle",
        "k=3",
        "p=2",
        "r_1=1",
        "accepted_fraction_1=0",
        "trace_sup_error_1=1.1957467920563633e-15",
        "gap_fraction_1=0",
        "r_2=0.984375",
        "accepted_fraction_2=0.5",
        "trace_sup_error_2=1.1957467920563633e-15",
        "gap_fraction_2=0",
        "r_3=0.984375",
        "accepted_fraction_3=1",
        "trace_sup_error_3=1.1957467920563633e-15",
        "gap_fraction_3=0",
        "trace_sup_error=1.1957467920563633e-15",
        "patch_energy_total=9.4228856398225496",
        "glued_energy=6.2823794321910063",
        "ratio=0.66671502470970401",
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
        (dom.torus(48, 48), 6, None),
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


def test_square_disk_round_trip():
    rng = np.random.default_rng(0)
    xy = rng.uniform(-1.0, 1.0, size=(400, 2))
    z = cov.square_to_disk(xy)
    assert np.max(np.linalg.norm(z, axis=-1)) <= 1.0 + 1e-12
    back = cov.disk_to_square(z)
    assert np.max(np.abs(back - xy)) <= 1e-12
    # square boundary lands on the unit circle
    edge = np.stack([np.ones(21), np.linspace(-1.0, 1.0, 21)], axis=-1)
    assert np.linalg.norm(cov.square_to_disk(edge), axis=-1) == pytest.approx(1.0, abs=1e-12)


def test_radial_fold_map_pinned_values():
    e1 = np.array([[1.0, 0.0]])
    np.testing.assert_allclose(cov.radial_fold_map(e1, 0.0, 0.5), e1, atol=1e-15)
    np.testing.assert_allclose(cov.radial_fold_map(e1, 1.0, 0.5), 0.5 * e1, atol=1e-15)
    np.testing.assert_allclose(
        cov.radial_fold_map(np.array([[-1.0, 0.0]]), 0.5, 0.5),
        np.array([[-0.75, 0.0]]),
        atol=1e-15,
    )
    with pytest.raises(DomainError):
        cov.radial_fold_map(np.array([[0.5, 0.0]]), 0.5, 0.5)  # not a unit direction


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
    stretched = dom.DomainSpec(
        kind="circle",
        axes=(dom.Axis(length=4.0, count=16, periodic=True),),
    )
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


def test_chart_disk_coordinates_invert():
    covering = cov.build_covering(dom.torus(32, 32), 4)
    chart = covering.charts[0]
    rng = np.random.default_rng(1)
    z = rng.uniform(-0.7, 0.7, size=(200, 2))
    z = z[np.linalg.norm(z, axis=-1) <= 1.0]
    pts, offsets = chart.from_disk(z)
    again = chart.to_disk(pts)
    assert np.max(np.abs(again - z)) <= 1e-9


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
    assert all(step.gap_fraction == 0.0 for step in report.steps)


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
    assert all(step.gap_fraction == 0.0 for step in report.steps)
    assert not report.degenerate
    # the audit measures on the collar bottom, the report per chart grid;
    # both must sit at rounding level for node-aligned patches
    assert cov.verify_glue(glued, trace) <= 1e-12
    assert report.ratio == pytest.approx(0.4446, abs=2e-3)


def _depth_twisted(patches):
    # rotate each replicated patch by +-0.8 t / depth (sign by chart
    # parity); the bottom row t = 0 keeps the trace
    out = []
    for i, patch in enumerate(patches):
        depth_axis = patch.domain.axes[-1]
        angle = (0.8 if i % 2 == 0 else -0.8) * depth_axis.coordinates() / depth_axis.length
        c, s = np.cos(angle), np.sin(angle)
        x, y = patch.values[..., 0], patch.values[..., 1]
        vals = np.stack([c * x - s * y, s * x + c * y], axis=-1)
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
    [("circle", 2.373523880645511), ("torus", 1.1224122656185567)],
)
def test_depth_varying_patches_pin_the_glued_ratio(case, pinned_ratio):
    # depth-constant patches cannot tell which depth the fold reads; these
    # can (reading the reflected region at depth x2 moves the ratios to
    # about 2.4626 and 1.1293)
    if case == "circle":
        trace = _degree_one_trace(128)
        k, n_depth = 3, 16
    else:
        trace = _torus_x_trace(48)
        k, n_depth = 4, 10
    covering = cov.build_covering(trace.base, k)
    patches = _depth_twisted(
        [cov.replicate_trace_patch(trace, chart, n_depth) for chart in covering.charts]
    )
    glued, report = cov.glue(covering, patches, trace)
    assert report.ratio == pytest.approx(pinned_ratio, rel=1e-12)
    assert report.trace_sup_error <= 1e-12
    assert cov.verify_glue(glued, trace) <= 1e-12


def test_glue_validates_patch_lists():
    covering, patches, trace = _circle_setup(2, 64, n_depth=8)
    with pytest.raises(ParameterError):
        cov.glue(covering, patches[:1], trace)
    with pytest.raises(ParameterError):
        cov.glue(covering, patches, trace, gap_policy="ignore")
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


@pytest.mark.parametrize("case", ["torus", "circle"])
def test_glue_cli_prints_the_pinned_report(case, tmp_path, capsys):
    if case == "torus":
        trace, k, n_depth = _torus_x_trace(48), 4, 10
    else:
        trace, k, n_depth = _degree_one_trace(128), 3, 16
    trace_path = str(tmp_path / "trace.sgf")
    fileio.write_grid_map(trace_path, trace)
    args = ["glue", "--base", case, "--k", str(k), "--trace", trace_path]
    for i, chart in enumerate(cov.build_covering(trace.base, k).charts):
        path = str(tmp_path / f"patch{i}.sgf")
        fileio.write_grid_map(path, cov.replicate_trace_patch(trace, chart, n_depth))
        args += ["--patch", path]
    out, report = str(tmp_path / "glued.sgf"), str(tmp_path / "glue.report")
    assert cli.main(args + ["--p", "2.0", "--out", out, "--report", report]) == 0
    assert capsys.readouterr().out.splitlines() == GLUE_CLI_LINES[case]
    with open(report) as fh:
        assert fh.read().splitlines() == GLUE_CLI_LINES[case]
