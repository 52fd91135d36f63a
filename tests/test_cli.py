"""Command line surface: exit codes, printed values, manifests,
and byte-for-byte determinism of repeated runs.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from sobolev_glue import cli, fileio
from sobolev_glue import covering as cov
from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import folding as fo
from sobolev_glue import gridmap as gm
from sobolev_glue import target as tg


def run_cli(args, capsys):
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse-level rejections
        code = int(exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _value_of(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no {key}= line in output: {stdout!r}")


def _read_run_record(path):
    entries = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            entries[key.strip()] = value.strip()
    return entries


def _write_degree_one_trace(path, n=48):
    base = dom.circle(n)
    t = base.axes[0].coordinates()
    vals = np.stack([np.cos(t), np.sin(t)], axis=-1)
    tr = gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-9)
    fileio.write_grid_map(path, tr)
    return tr


def _write_identity_square(path, n=17):
    d = dom.square(n, n)
    mesh = gm.node_mesh(d).reshape(n, n, 2)
    m = gm.GridMap(domain=d, target=tg.euclidean(2), values=mesh)
    fileio.write_grid_map(path, m)
    return m


def test_energy_dirichlet_matches_library(tmp_path, capsys):
    path = str(tmp_path / "m.sgf")
    m = _write_identity_square(path)
    code, out, _ = run_cli(["energy", "--kind", "dirichlet", "--p", "2.0", "--in", path], capsys)
    assert code == 0
    printed = float(_value_of(out, "value"))
    assert printed == en.dirichlet_p_energy(m, 2.0).value  # 17 digits round-trip


def test_energy_gagliardo_matches_library(tmp_path, capsys):
    path = str(tmp_path / "t.sgf")
    tr = _write_degree_one_trace(path)
    code, out, _ = run_cli(
        ["energy", "--kind", "gagliardo", "--p", "2.0", "--s", "0.5", "--in", path],
        capsys,
    )
    assert code == 0
    assert float(_value_of(out, "value")) == en.gagliardo_energy(tr, 0.5, 2.0).value


def test_energy_gagliardo_without_s_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(path)
    code, _, err = run_cli(["energy", "--kind", "gagliardo", "--p", "2.0", "--in", path], capsys)
    assert code == 2
    assert "error" in err.lower()


def test_energy_penalized_needs_eps(tmp_path, capsys):
    path = str(tmp_path / "m.sgf")
    d = dom.cylinder(16, 5)
    t = d.axes[0].coordinates()
    vals = 1.2 * np.stack([np.cos(t), np.sin(t)], -1)[:, None, :] * np.ones((1, 5, 1))
    fileio.write_grid_map(path, gm.GridMap(domain=d, target=tg.euclidean(2), values=vals))
    code, _, _ = run_cli(["energy", "--kind", "penalized", "--p", "2.0", "--in", path], capsys)
    assert code == 2
    code, out, _ = run_cli(
        ["energy", "--kind", "penalized", "--p", "2.0", "--eps", "0.5", "--in", path],
        capsys,
    )
    assert code == 0
    assert float(_value_of(out, "value")) > 0.0


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = run_cli(["transmogrify"], capsys)
    assert code == 2


def test_missing_input_file_exits_five(tmp_path, capsys):
    code, _, err = run_cli(
        ["energy", "--kind", "dirichlet", "--p", "2.0", "--in", str(tmp_path / "no.sgf")],
        capsys,
    )
    assert code == 5
    assert "error" in err


def test_malformed_input_exits_five(tmp_path, capsys):
    path = str(tmp_path / "junk.sgf")
    with open(path, "w") as fh:
        fh.write("not a header\n1 2 3\n")
    code, _, _ = run_cli(["energy", "--kind", "dirichlet", "--p", "2.0", "--in", path], capsys)
    assert code == 5


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_values_exit_five(tmp_path, capsys, bad):
    path = str(tmp_path / "m.sgf")
    _write_identity_square(path, n=5)
    with open(path) as fh:
        lines = fh.readlines()
    lines[7] = f"{bad} 0.5\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    code, _, err = run_cli(["energy", "--kind", "dirichlet", "--p", "2.0", "--in", path], capsys)
    assert code == 5
    assert "non-finite" in err


def _matched_fold_pair(tmp_path, n=33):
    d = dom.square(n, n)
    mesh = gm.node_mesh(d).reshape(n, n, 2)
    x2 = mesh[..., 1:2]
    u0 = gm.GridMap(domain=d, target=tg.euclidean(2), values=x2 * np.array([1.0, 0.0]))
    u1 = gm.GridMap(domain=d, target=tg.euclidean(2), values=x2 * np.array([0.0, 1.0]))
    p0, p1 = str(tmp_path / "u0.sgf"), str(tmp_path / "u1.sgf")
    fileio.write_grid_map(p0, u0)
    fileio.write_grid_map(p1, u1)
    return p0, p1


def test_fold_writes_output_and_manifest(tmp_path, capsys):
    p0, p1 = _matched_fold_pair(tmp_path)
    out = str(tmp_path / "folded.sgf")
    code, stdout, _ = run_cli(["fold", "--u0", p0, "--u1", p1, "--out", out], capsys)
    assert code == 0
    folded = fileio.read_grid_map(out)
    assert folded.domain.kind == "square"
    assert float(_value_of(stdout, "ratio")) <= 5.28
    run_record = _read_run_record(out + ".run")
    assert run_record["subcommand"] == "fold"
    assert any(key.startswith("input_") for key in run_record)
    assert any(key.startswith("output_") for key in run_record)


@pytest.mark.parametrize("p_args, p", [([], 2.0), (["--p", "3"], 3.0)])
def test_fold_prints_the_report_of_the_written_map(tmp_path, capsys, p_args, p):
    p0, p1 = _matched_fold_pair(tmp_path)
    out = str(tmp_path / "folded.sgf")
    code, stdout, _ = run_cli(
        ["fold", "--u0", p0, "--u1", p1, "--out", out] + p_args, capsys
    )
    assert code == 0
    report = fo.verify_fold_traces(
        fileio.read_grid_map(out), fileio.read_grid_map(p0), fileio.read_grid_map(p1), p
    )
    expected = [
        "%s=%.17g" % (field.name, getattr(report, field.name))
        for field in dataclasses.fields(report)
    ]
    assert stdout.splitlines() == expected
    assert report.energy_out > 0.0


def test_fold_with_mismatched_traces_exits_three(tmp_path, capsys):
    p0, p1 = _matched_fold_pair(tmp_path)
    bumped = fileio.read_grid_map(p1)
    vals = np.array(bumped.values)
    vals[:, 0, :] += 7.0
    fileio.write_grid_map(p1, gm.GridMap(domain=bumped.domain, target=bumped.target, values=vals))
    code, _, err = run_cli(
        ["fold", "--u0", p0, "--u1", p1, "--out", str(tmp_path / "f.sgf")], capsys
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_fold_with_a_nan_or_negative_trace_tol_exits_two(tmp_path, capsys, tol):
    p0, p1 = _matched_fold_pair(tmp_path)
    out = str(tmp_path / "f.sgf")
    code, _, err = run_cli(
        ["fold", "--u0", p0, "--u1", p1, "--out", out, "--trace-tol", tol], capsys
    )
    assert code == 2
    assert "trace tolerance" in err
    assert not os.path.exists(out)


def test_fold_is_deterministic(tmp_path, capsys):
    p0, p1 = _matched_fold_pair(tmp_path)
    out1, out2 = str(tmp_path / "a.sgf"), str(tmp_path / "b.sgf")
    assert run_cli(["fold", "--u0", p0, "--u1", p1, "--out", out1], capsys)[0] == 0
    assert run_cli(["fold", "--u0", p0, "--u1", p1, "--out", out2], capsys)[0] == 0
    assert fileio.sha256_of(out1) == fileio.sha256_of(out2)


def _write_cone_instance(tmp_path, blocked=False):
    res = 257 if blocked else 129
    axisv = np.linspace(-1.0, 1.0, res)
    xs, ys = np.meshgrid(axisv, axisv, indexing="ij")
    if blocked:
        f = np.hypot(xs - 63.0 / 64.0, ys) <= 0.004
        g = ys > 0.2
    else:
        f = (np.abs(ys) <= 0.02) & (xs >= 0.5) & (xs <= 1.0)
        g = (xs > 0.45) & (np.abs(ys) < 0.3)
    fp, gp = str(tmp_path / "f.set"), str(tmp_path / "g.set")
    fileio.write_sampled_set(fp, 2, res, True, f)
    fileio.write_sampled_set(gp, 2, res, False, g)
    return fp, gp


def test_cone_certifies_the_segment_instance(tmp_path, capsys):
    fp, gp = _write_cone_instance(tmp_path)
    out = str(tmp_path / "cert.cone")
    code, stdout, _ = run_cli(["cone", "--f", fp, "--g", gp, "--out", out], capsys)
    assert code == 0
    radius, dirs = fileio.read_cone_certificate(out)
    assert radius >= 0.6
    assert np.any(dirs)
    assert float(_value_of(stdout, "radius")) == radius


def test_cone_resolution_failure_exits_four(tmp_path, capsys):
    fp, gp = _write_cone_instance(tmp_path, blocked=True)
    code, _, err = run_cli(
        ["cone", "--f", fp, "--g", gp, "--out", str(tmp_path / "c.cone")], capsys
    )
    assert code == 4
    assert "error" in err


def test_cone_hypothesis_failure_exits_three(tmp_path, capsys):
    res = 65
    axisv = np.linspace(-1.0, 1.0, res)
    xs, ys = np.meshgrid(axisv, axisv, indexing="ij")
    fp, gp = str(tmp_path / "f.set"), str(tmp_path / "g.set")
    fileio.write_sampled_set(fp, 2, res, True, np.hypot(xs, ys) <= 1.0)
    fileio.write_sampled_set(gp, 2, res, False, xs > 0.0)
    code, _, _ = run_cli(["cone", "--f", fp, "--g", gp, "--out", str(tmp_path / "c")], capsys)
    assert code == 3


def _write_glue_inputs(tmp_path, n=64, n_depth=10):
    trace_path = str(tmp_path / "trace.sgf")
    tr = _write_degree_one_trace(trace_path, n)
    covering = cov.build_covering(dom.circle(n), 2)
    patch_paths = []
    for i, chart in enumerate(covering.charts):
        patch = cov.replicate_trace_patch(tr, chart, n_depth)
        path = str(tmp_path / f"patch{i}.sgf")
        fileio.write_grid_map(path, patch)
        patch_paths.append(path)
    return trace_path, patch_paths


def test_glue_end_to_end_on_the_circle(tmp_path, capsys):
    trace_path, patch_paths = _write_glue_inputs(tmp_path)
    out = str(tmp_path / "glued.sgf")
    report_path = str(tmp_path / "glue.report")
    code, stdout, _ = run_cli(
        [
            "glue", "--base", "circle", "--k", "2",
            "--trace", trace_path,
            "--patch", patch_paths[0], "--patch", patch_paths[1],
            "--p", "2.0", "--out", out, "--report", report_path,
        ],
        capsys,
    )
    assert code == 0
    glued = fileio.read_grid_map(out)
    assert glued.domain.kind == "cylinder"
    assert float(_value_of(stdout, "ratio")) == pytest.approx(2.0 / 3.0, abs=5e-3)
    with open(report_path) as fh:
        report_text = fh.read()
    assert "r_1=1" in report_text
    assert "r_2=0.984375" in report_text
    assert "ratio=" in report_text
    assert "trace_sup_error" in report_text
    assert report_text.splitlines() == stdout.splitlines()


def test_glue_is_deterministic(tmp_path, capsys):
    trace_path, patch_paths = _write_glue_inputs(tmp_path, n=48, n_depth=8)
    outs = []
    for tag in ("x", "y"):
        out = str(tmp_path / f"{tag}.sgf")
        code, _, _ = run_cli(
            [
                "glue", "--base", "circle", "--k", "2",
                "--trace", trace_path,
                "--patch", patch_paths[0], "--patch", patch_paths[1],
                "--p", "2.0", "--out", out, "--report", str(tmp_path / f"{tag}.rep"),
            ],
            capsys,
        )
        assert code == 0
        outs.append(fileio.sha256_of(out))
    assert outs[0] == outs[1]


def test_glue_patch_count_mismatch_exits_two(tmp_path, capsys):
    trace_path, patch_paths = _write_glue_inputs(tmp_path, n=48, n_depth=8)
    code, _, _ = run_cli(
        [
            "glue", "--base", "circle", "--k", "2",
            "--trace", trace_path, "--patch", patch_paths[0],
            "--p", "2.0", "--out", str(tmp_path / "g.sgf"),
            "--report", str(tmp_path / "g.rep"),
        ],
        capsys,
    )
    assert code == 2


def test_glue_with_one_chart_exits_two(tmp_path, capsys):
    n, n_depth = 48, 8
    trace_path = str(tmp_path / "trace.sgf")
    tr = _write_degree_one_trace(trace_path, n)
    patch_path = str(tmp_path / "patch.sgf")
    vals = np.repeat(tr.values[:, None, :], n_depth, axis=1)
    fileio.write_grid_map(
        patch_path,
        gm.GridMap(domain=dom.cylinder(n, n_depth), target=tg.circle(), values=vals),
    )
    out = tmp_path / "g.sgf"
    code, stdout, _ = run_cli(
        [
            "glue", "--base", "circle", "--k", "1",
            "--trace", trace_path, "--patch", patch_path,
            "--p", "2.0", "--out", str(out), "--report", str(tmp_path / "g.rep"),
        ],
        capsys,
    )
    assert code == 2  # a covering needs at least 2 charts
    assert stdout == ""
    assert not out.exists()


def _write_cfg(tmp_path, **overrides):
    path = str(tmp_path / "opt.cfg")
    entries = {"max_iterations": 200, "step": 1.0, "tol": 1e-8}
    entries.update(overrides)
    with open(path, "w") as fh:
        fh.write("# optimizer configuration\n")
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")
    return path


def test_estimate_prints_energy_and_writes_manifest(tmp_path, capsys):
    trace_path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(trace_path, 48)
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "ext.sgf")
    code, stdout, _ = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", cfg, "--out", out],
        capsys,
    )
    assert code == 0
    energy = float(_value_of(stdout, "energy"))
    assert 0.9 * 2.0 * np.pi <= energy <= 1.1 * 2.0 * np.pi
    assert int(_value_of(stdout, "iterations")) >= 1
    ext = fileio.read_grid_map(out)
    assert ext.domain.kind == "cylinder"
    assert os.path.exists(out + ".run")
    # repeated run prints the identical value
    code2, stdout2, _ = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", cfg, "--out", out],
        capsys,
    )
    assert code2 == 0
    assert _value_of(stdout2, "energy") == _value_of(stdout, "energy")


def test_estimate_reports_convergence_and_the_gradient_sup(tmp_path, capsys):
    # A degree-zero bump needs many descent steps, so one step stops at
    # the cap; a constant trace extends to a constant with zero gradient.
    base = dom.circle(32)
    t = base.axes[0].coordinates()
    angle = 0.8 * np.sin(t)
    bump = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    constant = np.tile([1.0, 0.0], (32, 1))
    seen = {}
    for name, vals in (("bump", bump), ("constant", constant)):
        trace_path = str(tmp_path / f"{name}.sgf")
        fileio.write_grid_map(
            trace_path,
            gm.TraceMap(base=base, target=tg.circle(), values=vals, constraint_tol=1e-9),
        )
        code, stdout, _ = run_cli(
            ["estimate", "--trace", trace_path, "--p", "2.0",
             "--cfg", _write_cfg(tmp_path, max_iterations=1),
             "--out", str(tmp_path / f"{name}_ext.sgf")],
            capsys,
        )
        assert code == 0
        keys = [line.partition("=")[0] for line in stdout.splitlines()]
        assert keys == ["energy", "iterations", "converged", "gradient_sup", "backtracks"]
        seen[name] = (
            _value_of(stdout, "converged"),
            int(_value_of(stdout, "iterations")),
            float(_value_of(stdout, "gradient_sup")),
            int(_value_of(stdout, "backtracks")),
        )
    assert seen["bump"][:2] == ("false", 1)
    assert seen["bump"][2] > 0.0
    assert seen["constant"] == ("true", 0, 0.0, 0)


def test_estimate_penalized_needs_eps_and_constrained_trace(tmp_path, capsys):
    trace_path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(trace_path, 32)
    cfg = _write_cfg(tmp_path, max_iterations=100)
    out = str(tmp_path / "ext.sgf")
    base_args = ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", cfg, "--out", out]
    code, _, _ = run_cli(base_args + ["--penalized"], capsys)
    assert code == 2  # eps missing
    code, stdout, _ = run_cli(base_args + ["--penalized", "--eps", "0.5"], capsys)
    assert code == 0
    assert float(_value_of(stdout, "energy")) > 0.0
    free_path = str(tmp_path / "free.sgf")
    base = dom.circle(32)
    fileio.write_grid_map(
        free_path,
        gm.TraceMap(base=base, target=tg.euclidean(2), values=np.ones((32, 2))),
    )
    code, _, _ = run_cli(
        ["estimate", "--trace", free_path, "--p", "2.0", "--cfg", cfg, "--out", out,
         "--penalized", "--eps", "0.5"],
        capsys,
    )
    assert code == 2  # no constrained reference to penalize against


def test_estimate_on_an_interval_trace_is_a_usage_error(tmp_path, capsys):
    trace_path = str(tmp_path / "t.sgf")
    fileio.write_grid_map(
        trace_path,
        gm.TraceMap(base=dom.interval(9), target=tg.circle(), values=np.tile([1.0, 0.0], (9, 1))),
    )
    code, out, _ = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", _write_cfg(tmp_path),
         "--out", str(tmp_path / "e.sgf")],
        capsys,
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("entry", [{"momentum": 0.9}, {"seed": 0}], ids=["momentum", "seed"])
def test_estimate_rejects_unknown_cfg_keys(tmp_path, capsys, entry):
    trace_path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(trace_path, 32)
    cfg = _write_cfg(tmp_path, **entry)
    code, _, err = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", cfg,
         "--out", str(tmp_path / "e.sgf")],
        capsys,
    )
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_penalty_width_must_be_finite_and_positive(tmp_path, capsys, eps):
    trace_path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(trace_path, 16)
    map_path = str(tmp_path / "m.sgf")
    d = dom.cylinder(16, 5)
    t = d.axes[0].coordinates()
    vals = 1.2 * np.stack([np.cos(t), np.sin(t)], -1)[:, None, :] * np.ones((1, 5, 1))
    fileio.write_grid_map(map_path, gm.GridMap(domain=d, target=tg.euclidean(2), values=vals))
    code, out, _ = run_cli(
        ["energy", "--kind", "penalized", "--p", "2.0", f"--eps={eps}", "--in", map_path],
        capsys,
    )
    assert (code, out) == (2, "")
    code, out, _ = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", _write_cfg(tmp_path),
         "--out", str(tmp_path / "e.sgf"), "--penalized", f"--eps={eps}"],
        capsys,
    )
    assert (code, out) == (2, "")


def test_accept_rejects_unknown_suite(tmp_path, capsys):
    code, _, _ = run_cli(
        ["accept", "--suite", "secondary", "--out", str(tmp_path / "r.txt")], capsys
    )
    assert code == 2


def test_thread_cap_environment_variable():
    env = dict(os.environ, SOBOLEV_GLUE_THREADS="notanumber")
    proc = subprocess.run(
        [sys.executable, "-m", "sobolev_glue.cli", "accept", "--suite", "secondary",
         "--out", "/dev/null"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 2
    assert b"SOBOLEV_GLUE_THREADS" in proc.stderr

    env["SOBOLEV_GLUE_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "sobolev_glue.cli", "accept", "--suite", "secondary",
         "--out", "/dev/null"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 2  # suite still unknown, but the cap parsed
    assert b"SOBOLEV_GLUE_THREADS" not in proc.stderr


def test_importing_the_cli_leaves_numpy_unloaded():
    # the thread cap must be set before the numeric stack loads
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sobolev_glue.cli; print('numpy' in sys.modules)"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"
