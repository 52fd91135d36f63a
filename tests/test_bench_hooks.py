"""The benchmark reaches the library by name; those names must resolve.

``bench/tracing.py`` wraps the functions listed in its ``WRAPPED`` table
by looking each one up as ``sobolev_glue.<module>.<function>``, and
replaces ``acceptance.ALL_CRITERIA``; it and ``bench/run.py`` also read
fields of configs, results and reports.  A renamed or deleted name
would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


def test_the_attributes_the_benchmark_reads_exist(tmp_path):
    # the fields bench/ reads off configs, results and reports, on the
    # smallest inputs that produce each of them, and the calls it makes,
    # with positional arguments where bench/workloads.py passes them so
    import sobolev_glue
    from sobolev_glue import cone, covering, domain, energy, fileio, gridmap, minimize, target

    for name in sobolev_glue._SUBMODULES:
        importlib.import_module(f"sobolev_glue.{name}")
    cfg = minimize.MinimizeConfig()
    assert (cfg.p, cfg.projection) == (2.0, "auto")

    base = domain.circle(16)
    theta = base.axes[0].coordinates()
    trace = gridmap.TraceMap(
        base=base, target=target.circle(), values=np.stack([np.cos(theta), np.sin(theta)], -1)
    )
    collar = domain.cylinder(16, 8)
    one_step = minimize.MinimizeConfig(max_iterations=1)
    result = minimize.minimize_extension_detailed(trace, collar, trace.target, one_step)
    assert result.iterations == 1 and isinstance(result.converged, bool)
    assert result.map.domain == collar and result.energy > 0.0
    _, exact = minimize.circle_lifting_oracle(trace, collar)
    assert exact > 0.0

    built = (domain.torus(4, 4), domain.square(4, 4), domain.cylinder(4, 3, 1.0),
             domain.torus_collar(4, 4, 3, 1.0))
    assert [d.kind for d in built] == ["torus", "square", "cylinder", "torus_collar"]
    for d in built:
        assert d.axes[-1].coordinates().shape == (d.shape[-1],) and d.max_spacing > 0.0

    penalty = energy.distance_penalty(0.25, 2.0, target.circle())
    free = gridmap.GridMap(domain=collar, target=target.euclidean(2), values=result.map.values)
    for report in (
        energy.dirichlet_p_energy(result.map, 2.0),
        energy.penalized_energy(free, 2.0, penalty),
        energy.gagliardo_energy(trace, 0.5, 2.0),
    ):
        assert report.value > 0.0

    chart_cover = covering.build_covering(base, 2)
    patches = [covering.replicate_trace_patch(trace, c, 4) for c in chart_cover.charts]
    assert len(covering.glue(chart_cover, patches, trace)[1].steps) == 2

    axis = np.linspace(-1.0, 1.0, 33)
    radii = np.hypot(*np.meshgrid(axis, axis, indexing="ij"))
    f = cone.SampledSet(2, 33, True, radii <= 0.25)
    g = cone.SampledSet(2, 33, False, np.ones_like(f.indicator))
    assert cone.find_cone(f, g).verified
    fileio.write_sampled_set(str(tmp_path / "f.set"), 2, 33, True, f.indicator)
    assert fileio.read_sampled_set(str(tmp_path / "f.set"))[1] == 33
