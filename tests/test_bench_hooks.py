"""The benchmark reaches the library by name; those names must resolve.

``bench/tracing.py`` wraps the functions listed in its ``WRAPPED`` table
by looking each one up as ``sobolev_glue.<module>.<function>``, and
replaces ``acceptance.ALL_CRITERIA``.  A renamed or deleted function
would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize(
    "module_name, function", [(module, function) for module, function, *_ in _wrapped()]
)
def test_every_traced_function_resolves(module_name, function):
    module = importlib.import_module(f"sobolev_glue.{module_name}")
    assert callable(getattr(module, function, None)), f"{module_name}.{function}"


def test_the_criteria_tuple_names_its_criteria_by_number():
    acceptance = importlib.import_module("sobolev_glue.acceptance")
    numbers = [c.__name__.split("_")[1] for c in acceptance.ALL_CRITERIA]
    assert numbers == [f"{k:02d}" for k in range(1, len(numbers) + 1)]
