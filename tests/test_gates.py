"""Gate panel: each acceptance gate must fail on data that breaks it.

Every case plants one defect in the library by monkeypatching, runs only
the criteria that should see it, and asserts that each of them FAILs.
A criterion that still passes with the defect in place checks nothing
about the code it names.
"""

import dataclasses

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


def _half_radius(original):
    # the search of a two-step ladder: r = 1/2, rays scanned from 1/2
    return 0.5


@pytest.mark.parametrize(
    "module, name, defect, criteria",
    [
        (folding, "fold_sources", _swapped_fold_sources,
         (acc.criterion_02_fold_trace_contract, acc.criterion_03_fold_energy_constant)),
        (minimize, "_dirichlet_gradient", _halved,
         (acc.criterion_10_gradient_check,)),
        (cone, "CERTIFIED_RADIUS", _half_radius,
         (acc.criterion_04_cone_capture, acc.criterion_05_circle_covering_glue)),
        (energy, "_offset_pair_sum", _halved,
         (acc.criterion_01_pair_sum_exactness,)),
        (energy, "_diagonal_completion", _zeroed,
         (acc.criterion_01_pair_sum_exactness,)),
        (cone, "verify_cone", _always_true,
         (acc.criterion_04_cone_capture,)),
        # criterion 06 calls the oracle through the name bound in acceptance
        (acc, "circle_lifting_oracle", _oracle_energy_raised,
         (acc.criterion_06_extension_closed_form,)),
        (minimize, "_dirichlet_sum", _ten_percent_more,
         (acc.criterion_06_extension_closed_form,)),
        (covering, "_captured", _captures_nothing,
         (acc.criterion_05_circle_covering_glue, acc.criterion_07_penalized_glue_constant)),
        # criteria 02 and 03 fold through the name bound in acceptance; a
        # copy of u1 keeps 03's energy ratio under its bound
        (acc, "fold", _second_map,
         (acc.criterion_02_fold_trace_contract,)),
        (minimize, "project_to_target", _identity_projection,
         (acc.criterion_06_extension_closed_form,)),
        (cone, "ray_clearance", _every_ray_clear,
         (acc.criterion_04_cone_capture,)),
        # criteria 05 and 07 build their coverings through the name bound in
        # acceptance; glue's step-1 invariant is the one coverage check
        (acc, "build_covering", _cores_with_a_gap,
         (acc.criterion_05_circle_covering_glue, acc.criterion_07_penalized_glue_constant)),
    ],
    ids=["fold_sources_swapped", "gradient_halved", "cone_ladder_two",
         "pair_sum_halved", "diagonal_completion_zeroed", "verify_cone_always_true",
         "oracle_energy_raised", "dirichlet_sum_enlarged", "captured_nothing",
         "fold_returns_second_map", "projection_is_identity", "every_ray_clear",
         "cores_leave_a_gap"],
)
def test_gate_fails_on_its_defect(monkeypatch, module, name, defect, criteria):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    for criterion in criteria:
        result = criterion()
        print(acc.format_line(result))
        assert not result.passed, f"{result.name} passed with {name} broken"
        # a mutant whose signature drifted fails by a TypeError, not the gate
        assert not result.details.startswith("TypeError:"), result.details
