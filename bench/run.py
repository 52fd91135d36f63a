"""Benchmark of sobolev-glue: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` there.  Workloads are described in ``bench/README.md`` and in
``BENCHMARK.json``.  One run measures one workload in this process:

* set-up (imports, input generation, input files) runs five times,
  four times in fresh child processes and once here, and ``setup_s`` is
  the median;
* then whole passes over the workload's operation list run until the
  next pass would end after ``--seconds`` (at least two passes);
* every operation's output is checked; the last stdout line is the
  JSON result, with the end-to-end metrics (``--trace 0``) or the
  per-layer metrics (``--trace 1``, where passes alternate untraced and
  traced so the tracing overhead is measured in the same run).

``--scale toy`` shrinks every workload for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
THREADS = "1"
SETUP_RUNS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120
WORKLOADS = ("accept_primary", "cli_files", "collar_estimate")

# the numeric libraries read these once, when they load
for _name in ("SOBOLEV_GLUE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = THREADS

# Per-layer metrics, in output order.  ``.s`` is inclusive busy time,
# ``.self_s`` time not covered by child spans, ``.calls`` call counts;
# all are per pass.  LAYER_COUNTS are computed from argument sizes, file
# sizes and descent results, not timed, so they repeat exactly.
LAYER_TIMES = (
    "minimize.minimize_extension_detailed", "minimize.minimize_penalized_detailed",
    "minimize.isobe_sweep", "minimize.circle_lifting_oracle", "minimize.dirichlet_gradient",
    "target.project_to_target",
    "energy.gagliardo_energy", "energy.dirichlet_p_energy", "energy.penalized_energy",
    "cone.find_cone", "cone.ray_clearance", "cone.verify_cone",
    "cone.check_boundary_containment",
    "folding.fold", "gridmap.evaluate_batch",
    "covering.glue", "covering.verify_glue", "covering.build_covering",
    "covering.replicate_trace_patch",
    "fileio.read_grid_map", "fileio.read_trace_map", "fileio.write_grid_map",
    "fileio.read_sampled_set", "fileio.sha256_of",
) + tuple(f"acceptance.criterion_{i:02d}" for i in range(1, 11)) + tuple(
    f"cli.{sub}" for sub in ("energy", "fold", "cone", "glue", "estimate", "accept")
)
LAYER_SELF = (
    "minimize.minimize_extension_detailed", "cone.find_cone", "folding.fold", "covering.glue",
)
LAYER_CALLS = (
    "minimize.minimize_extension_detailed", "minimize.minimize_penalized_detailed",
    "target.project_to_target", "energy.gagliardo_energy", "energy.dirichlet_p_energy",
    "cone.find_cone", "folding.fold", "gridmap.evaluate_batch", "covering.glue",
)
LAYER_COUNTS = (
    "minimize.iterations", "minimize.converged", "minimize.backtracks",
    "energy.gagliardo_energy.pairs", "gridmap.evaluate_batch.points",
    "covering.glue.steps", "fileio.bytes_read", "fileio.bytes_written",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ setup

def set_up(args, work_dir: str):
    """Import the package, build the workload's inputs; return it and the seconds taken."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (timed as part of set-up)
    import scipy.sparse.linalg  # noqa: F401
    import sobolev_glue
    for module in sobolev_glue._SUBMODULES:
        getattr(sobolev_glue, module)
    import workloads

    os.makedirs(work_dir)
    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, args.scale == "toy")
    return workload, time.perf_counter() - started


def child_setups(args, count: int) -> list[float]:
    """Set the workload up in ``count`` fresh interpreters; their set-up times."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--scale", args.scale, "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------- passes

def verdict(op, result, descents: list[dict]) -> tuple[bool, str]:
    """The operation's own check, then the descent checks; an unreadable output fails."""
    import workloads

    try:
        ok, detail = op.check(result)
        for entry in descents:
            good, why = workloads.check_descent(entry)
            if not good:
                ok, detail = False, f"descent: {why}"
    except Exception as exc:  # e.g. a key missing from the printed output
        return False, f"check raised {type(exc).__name__}: {exc}"
    return ok, detail


def run_pass(workload, traced: bool, tracer, log, failures: list) -> tuple[float, dict, list]:
    """One pass over the operation list; returns (seconds, op seconds, descents)."""
    import workloads

    op_seconds = {}
    descents = []
    for op in workload.operations:
        log.entries = []
        log.install(workloads.minimize)
        if traced:
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        op_seconds[op.name] = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        log.uninstall()
        ok, detail = (False, error) if error else verdict(op, result, log.entries)
        if not ok:
            failures.append(f"{op.name}: {detail}")
        descents.extend(log.entries)
    return sum(op_seconds.values()), op_seconds, descents


def measure(args, workload):
    """Run passes for ``--seconds``; traced runs alternate untraced and traced passes."""
    import tracing

    tracer, log = tracing.Tracer(), tracing.DescentLog()
    passes = []  # (traced, seconds, op seconds)
    layer_totals: dict[str, float] = {}
    failures: list[str] = []
    descents: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        seconds, op_seconds, pass_descents = run_pass(workload, traced, tracer, log, failures)
        passes.append((traced, seconds, op_seconds))
        descents = pass_descents  # every pass runs the same descents
        if traced:
            for key, value in tracer.totals().items():
                layer_totals[key] = layer_totals.get(key, 0.0) + value
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    attempted = len(passes) * len(workload.operations)
    return passes, layer_totals, descents, failures, attempted


# --------------------------------------------------------------- metrics

def descent_metrics(descents: list[dict]) -> tuple[float, float]:
    """Largest oracle gap and the share of descents that stopped unconverged.

    A run whose descents failed has failed checks; it reports the worst case, 1.
    """
    import workloads

    gaps = [g for g in (workloads.oracle_gap(e) for e in descents) if g is not None]
    unconverged = [not e["result"].converged for e in descents]
    return max(gaps, default=1.0), sum(unconverged) / len(unconverged) if descents else 1.0


def end_to_end(passes, setup_times, descents) -> dict:
    walls = [seconds for _, seconds, _ in passes]
    gap_max, unconverged_frac = descent_metrics(descents)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_gap_max": (gap_max, "ratio"),
        "unconverged_frac": (unconverged_frac, "ratio"),
    }


def per_layer(passes, totals, workload, failures, attempted) -> dict:
    traced = [seconds for was_traced, seconds, _ in passes if was_traced]
    plain = [p for p in passes if not p[0]]
    n = len(traced)

    def per_pass(key: str) -> float:
        return totals.get(key, 0.0) / n

    out = {}
    for name in LAYER_TIMES:
        out[f"{name}.s"] = (per_pass(f"{name}.s"), "s")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (per_pass(f"{name}.self_s"), "s")
    for module in ("acceptance", "cli"):
        out[f"{module}.self_s"] = (per_pass(f"{module}.self_s"), "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (per_pass(f"{name}.calls"), "count")
    backtracks = totals.get("_projections_in_descents", 0) - totals.get("_projected_iterations", 0)
    counts = dict(totals, **{"minimize.backtracks": backtracks})
    for name in LAYER_COUNTS:
        unit = "bytes" if name.startswith("fileio.bytes") else "count"
        out[name] = (counts.get(name, 0.0) / n, unit)
    descent_s = per_pass("minimize.minimize_extension_detailed.s") + per_pass(
        "minimize.minimize_penalized_detailed.s")
    iterations = per_pass("minimize.iterations")
    out["minimize.s_per_iteration"] = (descent_s / iterations if iterations else 0.0, "s")
    finds = per_pass("cone.find_cone.calls")
    out["cone.certified_frac"] = (per_pass("_certified") / finds if finds else 0.0, "ratio")
    # scaling exponents t ~ N^k from the untraced passes' per-operation times
    # 0 on workloads that run a single size
    out["minimize.scaling_exp"] = (0.0, "ratio")
    out["energy.gagliardo_energy.scaling_exp"] = (0.0, "ratio")
    for metric, small, large, ratio in workload.scaling:
        t_small = statistics.median(ops[small] for _, _, ops in plain)
        t_large = statistics.median(ops[large] for _, _, ops in plain)
        out[metric] = (math.log(t_large / t_small) / math.log(ratio), "ratio")
    wall_traced = statistics.median(traced)
    out["trace.wall_s"] = (wall_traced, "s")
    out["trace.overhead_s"] = (wall_traced - statistics.median(s for _, s, _ in plain), "s")
    out["trace.spans"] = (per_pass("trace.spans"), "count")
    out["run.fail_frac"] = (len(failures) / attempted, "ratio")
    return out


def environment(args, workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        sha = done.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_cap": int(THREADS),
        "git_sha": sha,
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "sizes": workload.sizes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sobolev_glue")):
        print(f"bench: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            _, seconds = set_up(args, work_dir)
            print(repr(seconds))
            return 0
        setup_times = child_setups(args, SETUP_RUNS - 1)
        workload, seconds = set_up(args, work_dir)
        setup_times.append(seconds)
        passes, totals, descents, failures, attempted = measure(args, workload)
        if args.trace:
            metrics = per_layer(passes, totals, workload, failures, attempted)
        else:
            metrics = end_to_end(passes, setup_times, descents)
        env = environment(args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK_ROOT)

    walls = [seconds for _, seconds, _ in passes]
    print(json.dumps({"environment": env}))
    print(json.dumps({"passes": len(passes), "traced_passes": sum(t for t, _, _ in passes),
                      "pass_s": walls, "setup_runs_s": setup_times}))
    for failure in failures:
        print(f"FAILED {failure}")
    op_names = [op.name for op in workload.operations]
    for name in op_names:
        times = [ops[name] for _, _, ops in passes]
        print(f"op {name} median_s={statistics.median(times):.6g} n={len(times)}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key}={value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
