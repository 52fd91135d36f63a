"""Command line surface: exit codes, printed values, manifests,
and byte-for-byte determinism of repeated runs.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import sobolev_glue
from sobolev_glue import cli, cone, fileio
from sobolev_glue import covering as cov
from sobolev_glue import domain as dom
from sobolev_glue import energy as en
from sobolev_glue import folding as fo
from sobolev_glue import gridmap as gm
from sobolev_glue import errors
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
    with open(path, encoding="utf-8") as fh:
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


def _rational_circle_points(n):
    """Degree-zero loop of rational points of the circle, the same bits on every platform."""
    x = np.arange(n) / n
    s = 0.8 * x * (1.0 - x)
    return np.stack([(1.0 - s * s) / (1.0 + s * s), 2.0 * s / (1.0 + s * s)], axis=-1)


def _write_rational_trace(path, n):
    tr = gm.TraceMap(
        base=dom.circle(n), target=tg.circle(), values=_rational_circle_points(n),
        constraint_tol=1e-9,
    )
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


def test_energy_penalized_on_one_component_is_a_usage_error(tmp_path, capsys):
    # the penalty's reference is the circle or a sphere, which need nu >= 2
    path = str(tmp_path / "m.sgf")
    d = dom.cylinder(16, 5)
    m = gm.GridMap(domain=d, target=tg.euclidean(1), values=np.ones(d.shape + (1,)))
    fileio.write_grid_map(path, m)
    code, out, err = run_cli(
        ["energy", "--kind", "penalized", "--p", "2.0", "--eps", "0.5", "--in", path], capsys
    )
    assert (code, out) == (2, "")
    assert "a penalized energy needs nu >= 2, got nu=1" in err


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = run_cli(["transmogrify"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "family, code",
    [
        (errors.ParameterError, 2),
        (errors.DomainError, 2),
        (errors.SingularityError, 2),
        (errors.PreconditionError, 3),
        (errors.LiftingError, 3),
        (errors.ResolutionError, 4),
        (errors.OptimizationError, 4),
        (errors.GlueError, 4),
        (errors.FormatError, 5),
        (OSError, 5),
        (MemoryError, 4),
    ],
)
def test_each_error_family_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, family, code):
    def failing(*args):
        raise family("planted failure")

    monkeypatch.setattr(cli, "_cmd_accept", failing)
    out = tmp_path / "r.txt"
    got, stdout, err = run_cli(["accept", "--suite", "primary", "--out", str(out)], capsys)
    assert (got, stdout) == (code, "")
    assert err == "error: planted failure\n"
    assert not os.path.exists(str(out) + ".run")


def test_an_allocation_failure_without_a_message_exits_four(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_accept", failing)
    got, stdout, err = run_cli(
        ["accept", "--suite", "primary", "--out", str(tmp_path / "r.txt")], capsys
    )
    assert (got, stdout, err) == (4, "", "error: MemoryError\n")


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
    # node 6 of a 5 x 5 identity map, in a hand-written SGF1 text file and
    # patched into the raw body of a written SGF2 file
    binary = tmp_path / "m.sgf"
    rows = _write_identity_square(str(binary), n=5).values.reshape(-1, 2).tolist()
    rows[6] = [float(bad), 0.5]
    text = tmp_path / "text.sgf"
    text.write_text(
        "SGF1 square 2 5 5 euclidean\n" + "".join(f"{a!r} {b!r}\n" for a, b in rows)
    )
    content = bytearray(binary.read_bytes())
    at = content.index(b"\n") + 1 + 6 * 2 * 8
    content[at : at + 8] = np.array([float(bad)], dtype="<f8").tobytes()
    binary.write_bytes(bytes(content))
    for path in (text, binary):
        code, _, err = run_cli(
            ["energy", "--kind", "dirichlet", "--p", "2.0", "--in", str(path)], capsys
        )
        assert code == 5
        assert "non-finite" in err


@pytest.mark.parametrize("magic, body", [("SGF1", b"0 0 0 0\n"), ("SGF2", bytes(8))])
def test_an_oversized_header_over_a_small_body_exits_five(tmp_path, capsys, magic, body):
    # 10^15 nodes: the body is measured before anything of that size is allocated,
    # so this is a format error (5), not a failed allocation (4)
    path = tmp_path / "huge.sgf"
    path.write_bytes(f"{magic} box 1 100000 100000 100000 euclidean\n".encode("ascii") + body)
    code, stdout, err = run_cli(
        ["energy", "--kind", "dirichlet", "--p", "2.0", "--in", str(path)], capsys
    )
    assert (code, stdout) == (5, "")
    assert "huge.sgf" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-3", "tight"])
def test_a_bad_constraint_tol_in_the_manifest_exits_five(tmp_path, capsys, bad):
    # a node far off the circle: a NaN tolerance would wave it through,
    # and -3 once read as "use the default"
    path = str(tmp_path / "t.sgf")
    tr = _write_degree_one_trace(path, n=64)
    values = tr.values.copy()
    values[5] = [5.0, 5.0]
    fileio.write_grid_map(
        path, gm.TraceMap(base=tr.base, target=tr.target, values=values, constraint_tol=10.0)
    )
    with open(fileio.manifest_path(path)) as fh:
        lines = [
            f"constraint_tol: {bad}\n" if line.startswith("constraint_tol:") else line
            for line in fh
        ]
    with open(fileio.manifest_path(path), "w") as fh:
        fh.writelines(lines)
    code, stdout, err = run_cli(
        ["energy", "--kind", "gagliardo", "--p", "2", "--s", "0.5", "--in", path], capsys
    )
    assert code == 5
    assert stdout == ""
    assert repr(bad) in err


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


def test_the_run_record_digests_every_sidecar(tmp_path, capsys):
    # the axis_lengths in a trace's sidecar change what estimate computes,
    # so two runs that differ only there must differ in their run records
    trace_path, out = str(tmp_path / "t.sgf"), str(tmp_path / "ext.sgf")
    cfg = _write_cfg(tmp_path, max_iterations=5)
    _write_degree_one_trace(trace_path)
    argv = ["estimate", "--trace", trace_path, "--p", "2", "--cfg", cfg, "--out", out]
    records, energies = [], []
    for lengths in (None, "3"):
        if lengths is not None:
            with open(fileio.manifest_path(trace_path), "a") as fh:
                fh.write(f"axis_lengths: {lengths}\n")
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        energies.append(_value_of(stdout, "energy"))
        records.append(_read_run_record(out + ".run"))
    assert energies[0] != energies[1]
    sidecar_in, sidecar_out = fileio.manifest_path(trace_path), fileio.manifest_path(out)
    record = records[1]
    assert record[f"input_{sidecar_in}"] == fileio.sha256_of(sidecar_in)
    assert record[f"output_{sidecar_out}"] == fileio.sha256_of(sidecar_out)
    assert records[0][f"input_{sidecar_in}"] != record[f"input_{sidecar_in}"]
    assert records[0][f"input_{trace_path}"] == record[f"input_{trace_path}"]
    assert record[f"input_{cfg}"] == fileio.sha256_of(cfg)
    assert f"input_{fileio.manifest_path(cfg)}" not in record  # no sidecar, no line


def test_the_run_record_keeps_one_entry_per_path(tmp_path, capsys):
    trace_path, patch_paths = _write_glue_inputs(tmp_path, n=48, n_depth=8)
    # two patches with one basename, in two directories, one of them
    # with a non-ASCII name
    same_name = []
    for directory, path in zip(("a", "\u00e4"), patch_paths):
        (tmp_path / directory).mkdir()
        same_name.append(str(tmp_path / directory / "patch.sgf"))
        os.replace(path, same_name[-1])
        os.replace(fileio.manifest_path(path), fileio.manifest_path(same_name[-1]))
    out, report = str(tmp_path / "g.sgf"), str(tmp_path / "g.rep")
    argv = ["glue", "--base", "circle", "--k", "2", "--trace", trace_path,
            "--patch", same_name[0], "--patch", same_name[1], "--out", out, "--report", report]
    assert run_cli(argv, capsys)[0] == 0
    record = _read_run_record(out + ".run")
    files = [trace_path] + same_name
    expected = {f"input_{path}" for path in files}
    expected |= {f"input_{fileio.manifest_path(path)}" for path in files}
    expected |= {f"output_{out}", f"output_{fileio.manifest_path(out)}", f"output_{report}"}
    assert {key for key in record if key.startswith(("input_", "output_"))} == expected
    for key in expected:
        assert record[key] == fileio.sha256_of(key.partition("_")[2])
    assert record["subcommand"] == "glue"
    assert record["arguments"] == " ".join(argv)


def test_a_missing_input_exits_five_before_any_usage_check(tmp_path, capsys):
    # every input is digested before the handler runs, so a missing patch
    # is reported even when --base disagrees with the trace
    trace_path, patch_paths = _write_glue_inputs(tmp_path, n=48, n_depth=8)
    out = tmp_path / "g.sgf"
    code, stdout, err = run_cli(
        ["glue", "--base", "torus", "--k", "2", "--trace", trace_path,
         "--patch", patch_paths[0], "--patch", str(tmp_path / "missing.sgf"),
         "--out", str(out), "--report", str(tmp_path / "g.rep")],
        capsys,
    )
    assert (code, stdout) == (5, "")
    assert "missing.sgf" in err
    assert not out.exists()


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
    radius = float(_value_of(stdout, "radius"))
    count = int(_value_of(stdout, "direction_count"))
    assert radius >= 0.6
    assert int(_value_of(stdout, "accepted_directions")) > 0
    with open(out, encoding="ascii") as fh:
        header, bits = fh.read().splitlines()
    assert header.split() == ["CONE1", _value_of(stdout, "radius"), str(count)]
    assert len(bits) == count
    assert bits.count("1") == int(_value_of(stdout, "accepted_directions"))


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


def test_cone_on_a_one_node_set_exits_five(tmp_path, capsys):
    fp, gp = str(tmp_path / "f.set"), str(tmp_path / "g.set")
    for path in (fp, gp):
        with open(path, "w") as fh:
            fh.write("SET1 1 1 closed\n1\n")
    code, _, err = run_cli(["cone", "--f", fp, "--g", gp, "--out", str(tmp_path / "c")], capsys)
    assert code == 5
    assert "resolution must be at least 2" in err


@pytest.mark.parametrize(
    "res, f_of, g_of, bits",
    [
        (129, lambda x: x >= 0.5, lambda x: x > 0.25, "01"),
        (129, lambda x: x <= -0.5, lambda x: x < -0.25, "10"),
        (200, lambda x: np.abs(x) >= 0.3, lambda x: np.abs(x) > 0.1, "11"),
    ],
)
def test_cone_on_one_dimensional_sets_prints_and_writes_the_pinned_certificate(
    tmp_path, capsys, res, f_of, g_of, bits
):
    x = np.linspace(-1.0, 1.0, res)
    fp, gp, out = str(tmp_path / "f.set"), str(tmp_path / "g.set"), str(tmp_path / "c.cert")
    fileio.write_sampled_set(fp, 1, res, True, f_of(x))
    fileio.write_sampled_set(gp, 1, res, False, g_of(x))
    code, stdout, _ = run_cli(["cone", "--f", fp, "--g", gp, "--out", out], capsys)
    assert code == 0
    assert stdout.splitlines() == [
        "radius=0.984375",
        f"accepted_directions={bits.count('1')}",
        "direction_count=2",
        "verified=true",
    ]
    with open(out, "rb") as fh:
        assert fh.read() == f"CONE1 0.984375 2\n{bits}\n".encode("ascii")


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


def test_glue_refuses_a_patch_count_before_building_the_covering(tmp_path, capsys, monkeypatch):
    # building a 200,000-chart covering took 24 s and ~1 GB before the count
    # was checked
    trace_path, patch_paths = _write_glue_inputs(tmp_path, n=48, n_depth=8)

    def build_covering(*args):
        raise AssertionError("the covering was built before the patch count was checked")

    monkeypatch.setattr(cli, "build_covering", build_covering)
    code, stdout, err = run_cli(
        [
            "glue", "--base", "circle", "--k", "200000",
            "--trace", trace_path,
            "--patch", patch_paths[0], "--patch", patch_paths[1],
            "--out", str(tmp_path / "g.sgf"), "--report", str(tmp_path / "g.rep"),
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "--k 200000" in err and "got 2" in err


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


def test_glue_with_a_failed_cone_certificate_exits_four(tmp_path, capsys, monkeypatch):
    trace_path, patch_paths = _write_glue_inputs(tmp_path, n=48, n_depth=8)
    monkeypatch.setattr(cone, "verify_cone", lambda f, g, certificate: False)
    out = tmp_path / "g.sgf"
    code, stdout, err = run_cli(
        [
            "glue", "--base", "circle", "--k", "2",
            "--trace", trace_path,
            "--patch", patch_paths[0], "--patch", patch_paths[1],
            "--p", "2.0", "--out", str(out), "--report", str(tmp_path / "g.rep"),
        ],
        capsys,
    )
    assert code == 4
    assert stdout == ""
    assert "step 2 (chart 1)" in err
    assert not out.exists()


def _write_cfg(tmp_path, **overrides):
    path = str(tmp_path / "opt.cfg")
    entries = {"max_iterations": 200, "tol": 1e-8}
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


def test_estimate_output_is_pinned_on_a_degree_zero_trace(tmp_path, capsys):
    code, stdout, _ = run_cli(_pinned_run_argv(tmp_path, "estimate"), capsys)
    assert code == 0
    assert stdout == (
        "energy=0.082845734791933467\niterations=407\nconverged=true\n"
        "gradient_sup=0.00302661162453068\nbacktracks=408\n"
    )
    assert fileio.sha256_of(str(tmp_path / "out.sgf")) == (
        "5016bdb46fd856aa5c74745a71a045b40382534159807a5578653b07126c46fc"
    )


def _pinned_run_argv(tmp_path, name):
    """Arguments of one stdout pin, with its inputs written to ``tmp_path``.

    Every input is built from dyadic grid coordinates or rational points
    of the circle, so it has the same bits on every platform.
    """
    if name == "estimate":
        # an empty config keeps every optimizer default
        trace_path, cfg = str(tmp_path / "t.sgf"), str(tmp_path / "d.cfg")
        _write_rational_trace(trace_path, 64)
        with open(cfg, "w") as fh:
            fh.write("# defaults\n")
        return ["estimate", "--trace", trace_path, "--p", "2", "--cfg", cfg,
                "--out", str(tmp_path / "out.sgf")]
    if name == "energy_dirichlet":
        path = str(tmp_path / "m.sgf")
        d = dom.square(9, 9)
        x, y = gm.node_mesh(d).reshape(9, 9, 2).transpose(2, 0, 1)
        values = np.stack([x * y, x - y * y], axis=-1)
        fileio.write_grid_map(path, gm.GridMap(domain=d, target=tg.euclidean(2), values=values))
        return ["energy", "--kind", "dirichlet", "--p", "3", "--in", path]
    if name == "energy_gagliardo":
        path = str(tmp_path / "t.sgf")
        _write_rational_trace(path, 64)
        return ["energy", "--kind", "gagliardo", "--p", "2", "--s", "0.5", "--in", path]
    if name == "energy_penalized":
        path = str(tmp_path / "m.sgf")
        d = dom.cylinder(16, 5)
        scale = 1.0 + np.arange(5) / 4.0
        values = _rational_circle_points(16)[:, None, :] * scale[None, :, None]
        fileio.write_grid_map(path, gm.GridMap(domain=d, target=tg.euclidean(2), values=values))
        return ["energy", "--kind", "penalized", "--p", "2", "--eps", "0.5", "--in", path]
    if name == "fold":
        d = dom.square(17, 17)
        x, y = gm.node_mesh(d).reshape(17, 17, 2).transpose(2, 0, 1)
        # both maps vanish on the bottom row y = 0, so their traces agree
        paths = [str(tmp_path / "u0.sgf"), str(tmp_path / "u1.sgf")]
        for path, values in zip(paths, ([x * y, y * y], [y, x * y * y])):
            fileio.write_grid_map(
                path, gm.GridMap(domain=d, target=tg.euclidean(2), values=np.stack(values, -1))
            )
        return ["fold", "--u0", paths[0], "--u1", paths[1], "--out", str(tmp_path / "out.sgf")]
    if name == "cone":
        # the segment instance on a 129² grid; the CONE1 certificate goes
        # to the same --out path as every other pinned output
        fp, gp = _write_cone_instance(tmp_path)
        return ["cone", "--f", fp, "--g", gp, "--out", str(tmp_path / "out.sgf")]
    if name == "glue":
        trace_path = str(tmp_path / "t.sgf")
        tr = _write_rational_trace(trace_path, 48)
        argv = ["glue", "--base", "circle", "--k", "2", "--trace", trace_path]
        for i, chart in enumerate(cov.build_covering(tr.base, 2).charts):
            path = str(tmp_path / f"patch{i}.sgf")
            fileio.write_grid_map(path, cov.replicate_trace_patch(tr, chart, 8))
            argv += ["--patch", path]
        return argv + ["--out", str(tmp_path / "out.sgf"), "--report", str(tmp_path / "g.rep")]
    raise KeyError(name)


#: stdout bytes and sha256 of the ``--out`` file (None: no such file) of
#: each pinned run, captured before the handlers left their bookkeeping
#: to ``cli.main``
PINNED_RUNS = {
    # pinned before the cone search dropped its radius ladder
    "cone": (
        "radius=0.984375\naccepted_directions=47\ndirection_count=516\nverified=true\n",
        "0067273a698089d83ba854add1edd18339ffae7a30b79033b7ff60a88b39c9cb",
    ),
    "energy_dirichlet": ("value=5.3391176276428052\n", None),
    "energy_gagliardo": ("value=0.48680703886341897\n", None),
    "energy_penalized": ("value=15.184019362067524\n", None),
    "fold": (
        "trace_bottom_error=0\ntrace_left_error=0\ntrace_right_error=0\n"
        "energy_in_0=1.9375\nenergy_in_1=1.57330322265625\nenergy_out=3.1863083839416504\n"
        "ratio=0.90757247896420434\np=2\n",
        "533de24089a578a32050533565ef3fdd66d95f7fb11e01ce49e7deb26dbe0033",
    ),
    "glue": (
        "base=circle\nk=2\np=2\n"
        "r_1=1\naccepted_fraction_1=0\ntrace_sup_error_1=2.6184557666721351e-16\n"
        "r_2=0.984375\naccepted_fraction_2=1\ntrace_sup_error_2=2.3263411494723067e-16\n"
        "trace_sup_error=2.6184557666721351e-16\npatch_energy_total=0.18657980474049712\n"
        "glued_energy=0.13333237883992949\nratio=0.71461313310609176\ndegenerate=false\n",
        "2baff211d3dda2c514653d0307f804d3b53b4cab6510502e218de19f0978abf2",
    ),
}


#: the options of the pinned runs that name an input file
_INPUT_FLAGS = ("--u0", "--u1", "--f", "--g", "--trace", "--patch", "--cfg")


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_stdout_and_output_bytes_are_pinned(tmp_path, capsys, name):
    stdout_pin, out_pin = PINNED_RUNS[name]
    argv = _pinned_run_argv(tmp_path, name)
    code, stdout, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert stdout == stdout_pin
    out = tmp_path / "out.sgf"
    assert out.exists() == (out_pin is not None)
    if out_pin is not None:
        assert fileio.sha256_of(str(out)) == out_pin
        # the run record digests the pinned output and names each input once
        record = _read_run_record(str(out) + ".run")
        assert record[f"output_{out}"] == out_pin
        inputs = [value for flag, value in zip(argv, argv[1:]) if flag in _INPUT_FLAGS]
        assert sorted(
            key for key in record if key.startswith("input_") and not key.endswith(".manifest")
        ) == sorted(f"input_{path}" for path in inputs)


#: sha256 of each pinned ``--out`` file as the SGF1 text writer wrote it:
#: header, then one line of ``%.17g`` values per node
SGF1_OUTPUT_PINS = {
    "estimate": "55e6a53efa8c728f855cd77612c118291c356778a88f1c6d5d555e368cb83c3a",
    "fold": "89bdeb291ab29cded71913406ac7882251ff3d54d45d2b0f2741a43746c498c2",
    "glue": "da865bf0c48dc07643e00489b4334b619c20f2b03e98e87b8959315d2b680cf5",
}


@pytest.mark.parametrize("name", sorted(SGF1_OUTPUT_PINS))
def test_each_pinned_output_holds_the_doubles_of_its_sgf1_pin(tmp_path, capsys, name):
    code, _, _ = run_cli(_pinned_run_argv(tmp_path, name), capsys)
    assert code == 0
    binary = tmp_path / "out.sgf"
    written = fileio.read_grid_map(str(binary))
    d = written.domain
    header = " ".join(["SGF1", d.kind, str(written.nu)] + [str(n) for n in d.shape]
                      + [written.target.kind])
    text = tmp_path / "out_text.sgf"
    text.write_text(header + "\n" + "".join(
        " ".join("%.17g" % v for v in row) + "\n" for row in written.values.reshape(-1, written.nu)
    ))
    assert fileio.sha256_of(str(text)) == SGF1_OUTPUT_PINS[name]
    (tmp_path / "out_text.sgf.manifest").write_bytes((tmp_path / "out.sgf.manifest").read_bytes())
    assert fileio.read_grid_map(str(text)).values.tobytes() == written.values.tobytes()


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


def test_estimate_penalized_runs_on_a_sphere_valued_torus_trace(tmp_path, capsys):
    # a penalized p = 2 descent over a torus takes the collar stiffness
    # solve; within the 200-iteration cap it stops converged, and the
    # bottom face of the written map is the trace, bit for bit
    base = dom.torus(12, 12)
    x, y = np.meshgrid(*(2.0 * np.pi * ax.coordinates() for ax in base.axes), indexing="ij")
    field = np.stack([np.cos(x) + 0.3 * np.sin(y), np.sin(x) * np.cos(y), 0.5 + np.sin(y)], -1)
    field /= np.sqrt(np.sum(field**2, axis=-1))[..., None]
    trace_path, out = str(tmp_path / "t.sgf"), str(tmp_path / "ext.sgf")
    trace = gm.TraceMap(base=base, target=tg.sphere(3), values=field, constraint_tol=1e-9)
    fileio.write_grid_map(trace_path, trace)
    code, stdout, _ = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2", "--cfg", _write_cfg(tmp_path),
         "--out", out, "--penalized", "--eps", "0.25"],
        capsys,
    )
    assert code == 0
    assert _value_of(stdout, "converged") == "true"
    ext = fileio.read_grid_map(out)
    assert ext.domain == dom.torus_collar(12, 12, 13)
    assert ext.values[..., 0, :].tobytes() == fileio.read_trace_map(trace_path).values.tobytes()


def test_estimate_on_an_interval_trace_is_a_usage_error(tmp_path, capsys):
    # an interval trace extends over its square collar; a box base has no
    # collar kind, so its trace is still a usage error
    runs = {}
    for name, base in (("interval", dom.interval(9)), ("box", dom.box(3, 3, 3))):
        trace_path, out = str(tmp_path / f"{name}.sgf"), str(tmp_path / f"{name}_ext.sgf")
        values = np.tile([1.0, 0.0], base.shape + (1,))
        fileio.write_grid_map(trace_path, gm.TraceMap(base=base, target=tg.circle(), values=values))
        code, stdout, err = run_cli(
            ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", _write_cfg(tmp_path),
             "--out", out],
            capsys,
        )
        runs[name] = (code, stdout, err, out)
    code, _, _, out = runs["interval"]
    assert code == 0
    ext = fileio.read_grid_map(out)
    assert ext.domain == dom.square(9, 9)
    code, stdout, err, out = runs["box"]
    assert (code, stdout) == (2, "")
    assert "periodicity pattern" in err
    assert not os.path.exists(out)


def test_estimate_keeps_the_lengths_of_a_non_canonical_circle(tmp_path, capsys):
    base = dom.from_kind("circle", (24,), (3.0,))
    t = base.axes[0].coordinates() * (2.0 * np.pi / 3.0)
    trace_path, out = str(tmp_path / "t.sgf"), str(tmp_path / "ext.sgf")
    fileio.write_grid_map(
        trace_path,
        gm.TraceMap(base=base, target=tg.circle(), values=np.stack([np.cos(t), np.sin(t)], -1)),
    )
    code, stdout, _ = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0",
         "--cfg", _write_cfg(tmp_path, max_iterations=20), "--out", out],
        capsys,
    )
    assert code == 0
    assert float(_value_of(stdout, "energy")) > 0.0
    assert fileio.read_manifest(out)["axis_lengths"] == "3,1"
    assert fileio.read_grid_map(out).domain.lengths == (3.0, 1.0)


@pytest.mark.parametrize("depth", ["nan", "inf", "0"])
def test_collar_depth_must_be_finite_and_positive(tmp_path, capsys, depth):
    trace_path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(trace_path, 16)
    out = str(tmp_path / "e.sgf")
    code, stdout, err = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", _write_cfg(tmp_path),
         "--out", out, f"--depth={depth}"],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert "depth" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "entry", [{"momentum": 0.9}, {"seed": 0}, {"step": 1.0}], ids=["momentum", "seed", "step"]
)
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


def test_estimate_rejects_a_repeated_cfg_key(tmp_path, capsys):
    trace_path, cfg, out = (str(tmp_path / name) for name in ("t.sgf", "twice.cfg", "e.sgf"))
    _write_degree_one_trace(trace_path, 16)
    with open(cfg, "w") as fh:
        fh.write("tol = 1e-3\n# the last value must not silently win\ntol = 1e-12\n")
    code, stdout, err = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", cfg, "--out", out], capsys
    )
    assert (code, stdout) == (2, "")
    assert f"{cfg}:3:" in err and "'tol'" in err and "line 1" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "--p", "2", "--eps", "0.5"], "--eps"),
        (["energy", "--kind", "dirichlet", "--p", "2", "--s", "0.5"], "--s"),
        (["energy", "--kind", "penalized", "--p", "2", "--eps", "0.5", "--s", "0.5"], "--s"),
        (["energy", "--kind", "dirichlet", "--p", "2", "--eps", "0.5"], "--eps"),
        (["energy", "--kind", "gagliardo", "--p", "2", "--s", "0.5", "--eps", "0.5"], "--eps"),
    ],
    ids=["estimate_eps_unpenalized", "dirichlet_s", "penalized_s", "dirichlet_eps",
         "gagliardo_eps"],
)
def test_an_option_the_run_would_ignore_is_a_usage_error(tmp_path, capsys, argv, flag):
    trace_path, out = str(tmp_path / "t.sgf"), str(tmp_path / "e.sgf")
    _write_degree_one_trace(trace_path, 16)
    if argv[0] == "estimate":
        argv = argv + ["--trace", trace_path, "--cfg", _write_cfg(tmp_path), "--out", out]
    else:
        argv = argv + ["--in", trace_path]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert flag in err
    assert not os.path.exists(out)


def test_estimate_with_a_non_utf8_cfg_is_a_usage_error(tmp_path, capsys):
    trace_path, cfg, out = (str(tmp_path / name) for name in ("t.sgf", "bad.cfg", "e.sgf"))
    _write_degree_one_trace(trace_path, 16)
    with open(cfg, "wb") as fh:
        fh.write(b"tol = 1e-8\n\xff\xfe\n")
    code, stdout, err = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", cfg, "--out", out], capsys
    )
    assert (code, stdout) == (2, "")
    assert cfg in err and "UTF-8" in err
    assert not os.path.exists(out)


def test_estimate_with_an_infinite_tol_is_a_usage_error(tmp_path, capsys):
    trace_path = str(tmp_path / "t.sgf")
    _write_degree_one_trace(trace_path, 16)
    out = str(tmp_path / "e.sgf")
    code, stdout, err = run_cli(
        ["estimate", "--trace", trace_path, "--p", "2.0", "--cfg", _write_cfg(tmp_path, tol="inf"),
         "--out", out],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert "tolerance" in err
    assert not os.path.exists(out)


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


def _run_python(*args):
    """A fresh interpreter that imports this checkout's package, as ``PYTHONPATH=src`` does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def test_python_dash_m_runs_the_cli_without_a_warning(tmp_path):
    run = _run_python(
        "-m", "sobolev_glue", "accept", "--suite", "nope", "--out", str(tmp_path / "accept.txt")
    )
    assert run.returncode == 2
    assert "invalid choice: 'nope'" in run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_the_runtime_package_imports_no_scipy():
    # in a fresh interpreter: other tests load scipy into this one
    run = _run_python("-c", (
        "import sys, importlib\n"
        "import sobolev_glue\n"
        "for name in sobolev_glue._SUBMODULES:\n"
        "    importlib.import_module('sobolev_glue.' + name)\n"
        "print(len(sobolev_glue._SUBMODULES))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    ))
    assert run.returncode == 0, run.stderr
    count, loaded = run.stdout.splitlines()
    assert int(count) == len(sobolev_glue._SUBMODULES)
    assert loaded == "[]"


def test_only_a_run_record_digests_the_inputs(tmp_path, capsys, monkeypatch):
    # energy writes no record, so it hashes nothing; fold still digests
    # both inputs, their sidecars and its outputs
    hashed = []

    def counting(path):
        hashed.append(path)
        return fileio.sha256_of(path)

    monkeypatch.setattr(cli, "sha256_of", counting)
    p0, p1 = _matched_fold_pair(tmp_path)
    assert run_cli(["energy", "--kind", "dirichlet", "--p", "2", "--in", p0], capsys)[0] == 0
    assert hashed == []
    out = str(tmp_path / "folded.sgf")
    assert run_cli(["fold", "--u0", p0, "--u1", p1, "--out", out], capsys)[0] == 0
    record = _read_run_record(out + ".run")
    files = [p0, p1]
    expected = {f"input_{path}" for path in files}
    expected |= {f"input_{fileio.manifest_path(path)}" for path in files}
    expected |= {f"output_{out}", f"output_{fileio.manifest_path(out)}"}
    assert {key for key in record if key.startswith(("input_", "output_"))} == expected
    assert sorted(hashed) == sorted(key.partition("_")[2] for key in expected)
