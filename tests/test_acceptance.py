"""Primary acceptance criteria, one test per criterion.

Each test runs its criterion, prints the standard one-line verdict and
enforces the runtime budget alongside the pass flag.  The suite test
drives the same suite through the command line entry point and pins
every verdict line.
"""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from sobolev_glue import acceptance as acc
from sobolev_glue import cli
from sobolev_glue import gridmap as gm
from sobolev_glue.errors import ResolutionError

#: ``accept --suite primary`` verdicts without their durations.  A change
#: that moves an acceptance number has to change this pin.
PRIMARY_VERDICTS = [
    "PASS 01_pair_sum_exactness: value=0.99999999999999944 err=5.55e-16 tol=1e-3",
    "PASS 02_fold_trace_contract: worst_trace_error=0 tol=0.0781",
    "PASS 03_fold_energy_constant: p=1.5:0.978<=3.5 p=2.0:1.26<=5.27 p=3.0:2.31<=13.5",
    "PASS 04_cone_capture: 100 instances certified, min_r=0.9844, segment r=0.9844>=0.6",
    "PASS 05_circle_covering_glue: K=2:ratio=0.6667->0.6669 K=3:ratio=0.6667->0.667",
    "PASS 06_extension_closed_form: identity=6.28192~2pi oracle=6.28192 degree2=25.1126~8pi",
    "PASS 07_penalized_glue_constant: measured_C=0.6667->0.6669 drift=0.000376",
    "PASS 08_isobe_boundedness: max_energy=6.20235<= 6.9115 bounded_in_eps=true converged=6/6",
    "PASS 09_trace_inequality_echo: measured_C=5.774->5.908 drift=0.0231",
    "PASS 10_gradient_check: worst_rel_err=8.33e-08<=1e-5 over p in {1.5,2,3}",
]


def _check(criterion, budget_s):
    result = criterion()
    print(acc.format_line(result))
    assert result.duration <= budget_s, (
        f"{result.name} exceeded its {budget_s}s budget: {result.duration:.1f}s"
    )
    assert result.passed, result.details
    return result


def test_criterion_01_pair_sum_exactness():
    _check(acc.criterion_01_pair_sum_exactness, 10.0)


def test_criterion_02_fold_trace_contract():
    _check(acc.criterion_02_fold_trace_contract, 30.0)


def test_criterion_03_fold_energy_constant():
    _check(acc.criterion_03_fold_energy_constant, 60.0)


def test_criterion_04_cone_capture():
    _check(acc.criterion_04_cone_capture, 60.0)


def test_criterion_05_circle_covering_glue():
    _check(acc.criterion_05_circle_covering_glue, 120.0)


def _turn_one_bottom_node(glue):
    # turn one bottom node 1 rad along the circle: chord ~0.96 > 10 h
    def tampered(*args, **kwargs):
        glued, report = glue(*args, **kwargs)
        values = glued.values.copy()
        c, s = math.cos(1.0), math.sin(1.0)
        x, y = values[3, 0]
        values[3, 0] = [c * x - s * y, s * x + c * y]
        return gm.GridMap(domain=glued.domain, target=glued.target, values=values), report

    return tampered


def test_criterion_05_fails_on_a_moved_trace_or_a_failed_certificate(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(acc, "glue", _turn_one_bottom_node(acc.glue))
        result = acc.criterion_05_circle_covering_glue()
    assert not result.passed
    assert result.details.startswith("K=2 n=128: trace error 0.959")
    monkeypatch.setattr(acc.cone_mod, "verify_cone", lambda f, g, certificate: False)
    result = acc.criterion_05_circle_covering_glue()
    assert not result.passed
    assert result.details.startswith("GlueError: step 2 (chart 1)")


def _shift_one_bottom_node(glue):
    def tampered(*args, **kwargs):
        glued, report = glue(*args, **kwargs)
        values = glued.values.copy()
        values[3, 0] += [0.1, 0.0]
        return gm.GridMap(domain=glued.domain, target=glued.target, values=values), report

    return tampered


def _degenerate_report(glue):
    def tampered(*args, **kwargs):
        glued, report = glue(*args, **kwargs)
        return glued, dataclasses.replace(report, ratio=float("nan"), degenerate=True)

    return tampered


@pytest.mark.parametrize(
    "criterion",
    [acc.criterion_05_circle_covering_glue, acc.criterion_07_penalized_glue_constant],
)
def test_glue_criteria_fail_on_a_shifted_node_or_a_degenerate_report(criterion, monkeypatch):
    # a 0.1 shift is far below the old 10 h gate but far above the ~1e-15
    # that node-aligned patches glue to
    with monkeypatch.context() as patch:
        patch.setattr(acc, "glue", _shift_one_bottom_node(acc.glue))
        result = criterion()
    assert not result.passed
    assert result.details == "K=2 n=128: trace error 0.1 exceeds 1e-12"
    monkeypatch.setattr(acc, "glue", _degenerate_report(acc.glue))
    result = criterion()
    assert not result.passed
    assert result.details == "K=2 n=128: degenerate patch energies"


def test_criterion_06_extension_closed_form():
    _check(acc.criterion_06_extension_closed_form, 180.0)


def test_criterion_07_penalized_glue_constant():
    _check(acc.criterion_07_penalized_glue_constant, 120.0)


def test_criterion_08_isobe_boundedness():
    _check(acc.criterion_08_isobe_boundedness, 180.0)


def test_criterion_09_trace_inequality_echo():
    _check(acc.criterion_09_trace_inequality_echo, 180.0)


def test_criterion_10_gradient_check():
    _check(acc.criterion_10_gradient_check, 10.0)


def test_suite_registry_is_complete():
    names = [criterion.__name__ for criterion in acc.ALL_CRITERIA]
    assert len(names) == 10
    assert len(set(names)) == 10
    assert all(name.startswith("criterion_") for name in names)


def test_accept_cli_runs_the_primary_suite(tmp_path, capsys):
    out = str(tmp_path / "acceptance.txt")
    code = cli.main(["accept", "--suite", "primary", "--out", out])
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    with open(out) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    verdicts = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert [re.sub(r" \(\d+\.\ds\)$", "", line) for line in verdicts] == PRIMARY_VERDICTS
    assert lines[-1].startswith("SUMMARY passed=10/10")


def test_a_raising_criterion_prints_fail_and_the_rest_still_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        acc,
        "ALL_CRITERIA",
        (
            acc.criterion_01_pair_sum_exactness,
            acc.criterion_04_cone_capture,
            acc.criterion_10_gradient_check,
        ),
    )

    def no_cone(f, g):
        raise ResolutionError("grid too coarse to certify a cone")

    monkeypatch.setattr(acc.cone_mod, "find_cone", no_cone)
    code = cli.main(["accept", "--suite", "primary", "--out", str(tmp_path / "a.txt")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0] for line in lines[:3]] == [
        "PASS 01_pair_sum_exactness",
        "FAIL 04_cone_capture",
        "PASS 10_gradient_check",
    ]
    assert "ResolutionError: grid too coarse to certify a cone" in lines[1]
    assert lines[3] == "SUMMARY passed=2/3"


def test_any_exception_in_a_criterion_prints_fail_and_the_rest_still_run(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(
        acc,
        "ALL_CRITERIA",
        (acc.criterion_09_trace_inequality_echo, acc.criterion_10_gradient_check),
    )

    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(acc, "gagliardo_energy", broken)
    code = cli.main(["accept", "--suite", "primary", "--out", str(tmp_path / "a.txt")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith(
        "FAIL 09_trace_inequality_echo: ValueError: operands could not be broadcast together"
    )
    assert lines[1].startswith("PASS 10_gradient_check: ")
    assert lines[2] == "SUMMARY passed=1/2"


def test_criterion_09_fails_on_a_nan_energy_instead_of_dividing_by_zero(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(acc, "ALL_CRITERIA", (acc.criterion_09_trace_inequality_echo,))
    monkeypatch.setattr(acc, "gagliardo_energy", lambda *args: SimpleNamespace(value=math.nan))
    code = cli.main(["accept", "--suite", "primary", "--out", str(tmp_path / "a.txt")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("FAIL 09_trace_inequality_echo: n=64 trace 0: energy ratio nan ")
    assert lines[1] == "SUMMARY passed=0/1"


def _reference_smooth_field(rng, n):
    # the field as first written: all nine cosines on the whole grid
    xs = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    out = np.zeros((n, n, 2))
    for comp in range(2):
        field = np.zeros((n, n))
        for kx in range(3):
            for ky in range(3):
                amp = rng.normal() / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                field += amp * np.cos(2.0 * math.pi * (kx * gx + ky * gy) + phase)
        out[..., comp] = field
    return out


@pytest.mark.parametrize("n", [129, 64, 100])
def test_smooth_field_keeps_the_bits_of_the_full_grid_cosines(n):
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second field checks the draws stay in step
            got = acc._smooth_field(rng, n)
            assert got.tobytes() == _reference_smooth_field(ref_rng, n).tobytes()
