"""Gate panel: each acceptance gate must fail on data that breaks it.

Every case plants one defect in the library by monkeypatching, runs only
the criteria that should see it, and asserts that each of them FAILs.
A criterion that still passes with the defect in place checks nothing
about the code it names.
"""

import ast
import dataclasses
import sys

import numpy as np
import pytest

from sobolev_glue import acceptance as acc
from sobolev_glue import cone, covering, energy, folding, minimize


def _swapped_fold_sources(original):
    # the two source coordinates trade places
    def swapped(x1, x2):
        region, s1, s2 = original(x1, x2)
        return region, s2, s1

    return swapped


def _halved(original):
    def halved(*args, **kwargs):
        return 0.5 * original(*args, **kwargs)

    return halved


def _zeroed(original):
    def zeroed(*args, **kwargs):
        return 0.0 * original(*args, **kwargs)

    return zeroed


def _ten_percent_more(original):
    def more(*args, **kwargs):
        return 1.1 * original(*args, **kwargs)

    return more


def _oracle_energy_raised(original):
    # the lifting oracle returns its map and an energy 2% too high
    def raised(*args, **kwargs):
        lifted, value = original(*args, **kwargs)
        return lifted, 1.02 * value

    return raised


def _captures_nothing(original):
    def nothing(z, cert):
        return np.zeros(len(z), dtype=bool)

    return nothing


def _always_true(original):
    def always_true(*args, **kwargs):
        return True

    return always_true


def _second_map(original):
    def second(u0, u1):
        return u1

    return second


def _identity_projection(original):
    def identity(target, values):
        return values

    return identity


def _every_ray_clear(original):
    def clear(g):
        return np.ones(original(g).shape, dtype=bool)

    return clear


def _cores_with_a_gap(original):
    # each core shrinks to 0.99 of the chart spacing, so a 1% sliver
    # between neighbouring cores is left uncovered
    def gapped(base, count):
        covering = original(base, count)
        charts = tuple(
            dataclasses.replace(chart, core_extent=tuple(0.66 * e for e in chart.core_extent))
            for chart in covering.charts
        )
        return dataclasses.replace(covering, charts=charts)

    return gapped


def _one_iteration(original):
    # every descent stops after its first step; the config comes last
    def capped(*args):
        return original(*args[:-1], dataclasses.replace(args[-1], max_iterations=1))

    return capped


def _one_entry_changed(original):
    # the matrix with its top-left entry raised by 1/2
    changed = np.array(original)
    changed[0, 0] += 0.5
    return changed


def _zero_energy(original):
    # the descent returns its map with energy 0
    def zero(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), energy=0.0)

    return zero


def _nan_value(original):
    # the energy report carries a NaN value
    def nan(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), value=float("nan"))

    return nan


def _half_radius(original):
    # the search of a two-step ladder: r = 1/2, rays scanned from 1/2
    return 0.5


#: (module, name, defect, criteria): each row patches ``module.name``
#: with ``defect(original)`` and names the criteria that must FAIL.
PANEL = [
    (folding, "fold_sources", _swapped_fold_sources,
     (acc.criterion_02_fold_trace_contract, acc.criterion_03_fold_energy_constant)),
    (minimize, "_dirichlet_gradient", _halved,
     (acc.criterion_10_gradient_check,)),
    (cone, "CERTIFIED_RADIUS", _half_radius,
     (acc.criterion_04_cone_capture, acc.criterion_05_circle_covering_glue)),
    # criterion 01's p = 2 sum holds about 3% of its mass in the near
    # field, which the offset form sums, and 97% in the FFT far field
    (energy, "_offset_pair_sum", _halved,
     (acc.criterion_01_pair_sum_exactness,)),
    (energy, "_far_field_pair_sum", _halved,
     (acc.criterion_01_pair_sum_exactness,)),
    (energy, "_diagonal_completion", _zeroed,
     (acc.criterion_01_pair_sum_exactness,)),
    (cone, "verify_cone", _always_true,
     (acc.criterion_04_cone_capture,)),
    # criterion 06 calls the oracle through the name bound in acceptance
    (acc, "circle_lifting_oracle", _oracle_energy_raised,
     (acc.criterion_06_extension_closed_form,)),
    # criterion 09's oracle sums through energy, its descent through minimize
    (minimize, "_dirichlet_sum", _ten_percent_more,
     (acc.criterion_06_extension_closed_form, acc.criterion_09_trace_inequality_echo)),
    (covering, "_captured", _captures_nothing,
     (acc.criterion_05_circle_covering_glue, acc.criterion_07_penalized_glue_constant)),
    # criteria 02 and 03 fold through the name bound in acceptance; a
    # copy of u1 keeps 03's energy ratio under its bound
    (acc, "fold", _second_map,
     (acc.criterion_02_fold_trace_contract,)),
    # criterion 06's psi = 0 starts are its minimizers, so only 09 sees it
    (minimize, "project_to_target", _identity_projection,
     (acc.criterion_09_trace_inequality_echo,)),
    (cone, "ray_clearance", _every_ray_clear,
     (acc.criterion_04_cone_capture,)),
    # criteria 05 and 07 build their coverings through the name bound in
    # acceptance; glue's step-1 invariant is the one coverage check
    (acc, "build_covering", _cores_with_a_gap,
     (acc.criterion_05_circle_covering_glue, acc.criterion_07_penalized_glue_constant)),
    # the sweep calls the name bound in minimize; one step leaves
    # max_energy and the bounded-in-eps flag passing
    (minimize, "minimize_penalized_detailed", _one_iteration,
     (acc.criterion_08_isobe_boundedness,)),
    # criterion 03's eigenvalue oracle reads the matrices bound in acceptance
    (acc, "FIRST_WEDGE_MATRIX", _one_entry_changed,
     (acc.criterion_03_fold_energy_constant,)),
    (acc, "REFLECTED_WEDGE_MATRIX", _one_entry_changed,
     (acc.criterion_03_fold_energy_constant,)),
    # criterion 09 descends and sums pairs through the names bound in
    # acceptance
    (acc, "minimize_extension_detailed", _zero_energy,
     (acc.criterion_09_trace_inequality_echo,)),
    (acc, "gagliardo_energy", _nan_value,
     (acc.criterion_09_trace_inequality_echo,)),
    (acc, "minimize_extension_detailed", _one_iteration,
     (acc.criterion_09_trace_inequality_echo,)),
]
PANEL_IDS = [
    "fold_sources_swapped", "gradient_halved", "cone_ladder_two",
    "pair_sum_halved", "far_field_pair_sum_halved",
    "diagonal_completion_zeroed", "verify_cone_always_true",
    "oracle_energy_raised", "dirichlet_sum_enlarged", "captured_nothing",
    "fold_returns_second_map", "projection_is_identity", "every_ray_clear",
    "cores_leave_a_gap", "penalized_descent_one_iteration",
    "first_wedge_matrix_changed", "reflected_wedge_matrix_changed",
    "extension_energy_zero", "pair_sum_nan", "extension_descent_one_iteration",
]


@pytest.mark.parametrize("module, name, defect, criteria", PANEL, ids=PANEL_IDS)
def test_gate_fails_on_its_defect(monkeypatch, module, name, defect, criteria):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    for criterion in criteria:
        result = criterion()
        print(acc.format_line(result))
        assert not result.passed, f"{result.name} passed with {name} broken"
        # a mutant whose signature drifted fails by a TypeError, not the gate
        assert not result.details.startswith("TypeError:"), result.details


# ------------------------------------------------------ FAIL-return reach
#
# ``_criterion`` turns any exception into a FAIL, so a row can fail its
# criterion while the criterion's own comparisons never fire.  The probe
# below runs the panel and records which FAIL returns of acceptance.py
# (``return False, message``, or a comparison that came out false)
# return.

#: FAIL returns that no row of the panel reaches, keyed by criterion and
#: the message's source.  The list may only shrink: a row that reaches
#: one of these must delete it here.
UNREACHED = {
    ("04", "f'segment example: r={cert.radius} verified={cert.verified}'"),
    # 05's and 07's rows fail by a GlueError that ``_criterion`` catches
    ("05", "f'K={k}: ratio drift {drift:.3g} exceeds 20%'"),
    ("05", "failure"),
    ("06", "f'degree-2 energy {e_deg2:.6g} not within 5% of 8pi'"),
    ("07", "f'measured constant drift {drift:.3g} exceeds 20%'"),
    ("07", "failure"),
    ("08", "'bounded-in-eps flag is false'"),
    ("08", "f'energy {worst:.6g} exceeds the competitor bound {bound:.6g}'"),
    ("09", "f'measured constant drift {drift:.3g} exceeds 30%'"),
}


def _fail_returns():
    """Line range -> (criterion, message source) of every return that can FAIL."""
    with open(acc.__file__) as f:
        tree = ast.parse(f.read())
    found = {}
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("criterion_")):
            continue
        number = fn.name.split("_")[1]
        for node in ast.walk(fn):
            # ``return False, ...`` and ``return <comparison>, ...``; only
            # ``return True, ...`` cannot fail
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
                    and not (isinstance(node.value.elts[0], ast.Constant)
                             and node.value.elts[0].value is True)):
                lines = range(node.lineno, node.end_lineno + 1)
                found[lines] = (number, ast.unparse(node.value.elts[1]))
    return found


def _returned_lines(run):
    """Lines of acceptance.py at which ``run`` returned a (False, ...) tuple.

    A check body that raises returns None to the tracer, so a FAIL that
    ``_criterion`` made from an exception is not counted.
    """
    lines = set()

    def local(frame, event, arg):
        # a check body returns (flag, details); the flag may be a numpy bool
        if event == "return" and isinstance(arg, tuple) and len(arg) == 2:
            if isinstance(arg[0], (bool, np.bool_)) and not arg[0]:
                lines.add(frame.f_lineno)
        return local

    def scoped(frame, event, arg):
        code = frame.f_code
        if code.co_filename == acc.__file__ and code.co_name.startswith("criterion_"):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


def test_every_fail_return_is_reached_by_the_panel_or_listed(monkeypatch):
    returns = _fail_returns()
    assert len(returns) == len(set(returns.values())), "two FAIL returns share a key"

    def panel():
        for module, name, defect, criteria in PANEL:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, defect(getattr(module, name)))
                for criterion in criteria:
                    criterion()

    returned = _returned_lines(panel)
    reached = set()
    for line in returned:
        keys = [key for lines, key in returns.items() if line in lines]
        assert len(keys) == 1, f"acceptance.py:{line} returned False outside a FAIL return"
        reached.add(keys[0])
    assert not reached & UNREACHED, f"reached now, delete from UNREACHED: {reached & UNREACHED}"
    assert set(returns.values()) - reached == UNREACHED
