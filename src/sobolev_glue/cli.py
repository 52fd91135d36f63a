"""Command-line entry point.

Subcommands: ``energy``, ``fold``, ``cone``, ``glue``, ``estimate`` and
``accept``.  Exit codes: 0 success, 2 parameter error, 3 precondition
error, 4 resolution or optimization error, 5 I/O or format error; the
``accept`` driver exits 1 when a criterion fails (that is a finding, not
an error).  Every subcommand that writes an output file also writes a
``<out>.run`` manifest with input/output digests, the argument list, the
tool version and the wall-clock duration, so identical runs are
diff-checkable.

``SOBOLEV_GLUE_THREADS`` caps BLAS/OpenMP parallelism; it must be applied
before the numeric stack loads, which is why all numeric imports in this
module live inside the handlers.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from .errors import (
    FormatError,
    GlueError,
    OptimizationError,
    ParameterError,
    PreconditionError,
    ResolutionError,
)

_THREAD_ENV_TARGETS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    raw = os.environ.get("SOBOLEV_GLUE_THREADS")
    if raw is None:
        return
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ParameterError(
            f"SOBOLEV_GLUE_THREADS must be an integer, got {raw!r}"
        ) from exc
    if threads < 0:
        raise ParameterError(
            f"SOBOLEV_GLUE_THREADS must be >= 0 (0 = auto), got {threads}"
        )
    if threads == 0:
        return
    for name in _THREAD_ENV_TARGETS:
        os.environ[name] = str(threads)


@dataclass
class RunManifest:
    subcommand: str
    arguments: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    version: str = ""
    duration_s: float = 0.0

    def write(self, path: str) -> None:
        entries = {
            "subcommand": self.subcommand,
            "arguments": " ".join(self.arguments),
            "version": self.version,
            "duration_s": f"{self.duration_s:.3f}",
        }
        for name, digest in sorted(self.inputs.items()):
            entries[f"input_{name}"] = digest
        for name, digest in sorted(self.outputs.items()):
            entries[f"output_{name}"] = digest
        # written at the given path itself, not as a sidecar of it
        with open(path, "w", encoding="ascii") as fh:
            for key, value in entries.items():
                fh.write(f"{key}: {value}\n")


def _digest(path: str) -> str:
    from .fileio import sha256_of

    return sha256_of(path)


def _kv_line(key: str, value) -> str:
    """``key=value``; floats print with 17 significant digits (round-trip)."""
    if isinstance(value, float):
        return f"{key}={value:.17g}"
    return f"{key}={value}"


# ---------------------------------------------------------------- handlers

def _cmd_energy(args: argparse.Namespace, manifest: RunManifest) -> int:
    from .energy import (
        dirichlet_p_energy,
        distance_penalty,
        gagliardo_energy,
        penalized_energy,
    )
    from .fileio import read_grid_map, read_trace_map
    from .target import circle as circle_target, sphere

    manifest.inputs[os.path.basename(args.infile)] = _digest(args.infile)
    if args.kind == "gagliardo":
        if args.s is None:
            raise ParameterError("gagliardo energy needs --s")
        u = read_trace_map(args.infile)
        report = gagliardo_energy(u, args.s, args.p)
    elif args.kind == "dirichlet":
        m = read_grid_map(args.infile)
        report = dirichlet_p_energy(m, args.p)
    else:
        if args.eps is None:
            raise ParameterError("penalized energy needs --eps")
        m = read_grid_map(args.infile)
        reference = circle_target() if m.nu == 2 else sphere(m.nu)
        report = penalized_energy(m, args.p, distance_penalty(args.eps, args.p, reference))
    print(_kv_line("value", report.value))
    return 0


def _cmd_fold(args: argparse.Namespace, manifest: RunManifest) -> int:
    from .fileio import read_grid_map, write_grid_map
    from .folding import fold, verify_fold_traces

    manifest.inputs[os.path.basename(args.u0)] = _digest(args.u0)
    manifest.inputs[os.path.basename(args.u1)] = _digest(args.u1)
    u0 = read_grid_map(args.u0)
    u1 = read_grid_map(args.u1)
    folded = fold(u0, u1, trace_tol=args.trace_tol)
    report = verify_fold_traces(folded, u0, u1, args.p)
    write_grid_map(args.out, folded)
    manifest.outputs[os.path.basename(args.out)] = _digest(args.out)
    for key, value in asdict(report).items():
        print(_kv_line(key, value))
    return 0


def _cmd_cone(args: argparse.Namespace, manifest: RunManifest) -> int:
    import numpy as np

    from .cone import SampledSet, find_cone
    from .fileio import read_sampled_set, write_cone_certificate

    manifest.inputs[os.path.basename(args.f)] = _digest(args.f)
    manifest.inputs[os.path.basename(args.g)] = _digest(args.g)
    dim_f, res_f, closed_f, bits_f = read_sampled_set(args.f)
    dim_g, res_g, closed_g, bits_g = read_sampled_set(args.g)
    f = SampledSet(dim_f, res_f, closed_f, bits_f)
    g = SampledSet(dim_g, res_g, closed_g, bits_g)
    cert = find_cone(f, g)
    write_cone_certificate(args.out, cert.radius, cert.directions)
    manifest.outputs[os.path.basename(args.out)] = _digest(args.out)
    print(_kv_line("radius", cert.radius))
    print(_kv_line("accepted_directions", int(np.sum(cert.directions))))
    print(_kv_line("direction_count", int(cert.directions.size)))
    print(_kv_line("verified", str(bool(cert.verified)).lower()))
    return 0


def _cmd_glue(args: argparse.Namespace, manifest: RunManifest) -> int:
    from .covering import build_covering, glue
    from .fileio import read_grid_map, read_trace_map, write_grid_map

    manifest.inputs[os.path.basename(args.trace)] = _digest(args.trace)
    trace = read_trace_map(args.trace)
    if trace.base.kind != args.base:
        raise ParameterError(
            f"trace base is {trace.base.kind!r}, --base says {args.base!r}"
        )
    covering = build_covering(trace.base, args.k)
    patches = []
    for path in args.patch:
        manifest.inputs[os.path.basename(path)] = _digest(path)
        patches.append(read_grid_map(path))
    glued, report = glue(covering, patches, trace, p=args.p)
    write_grid_map(args.out, glued)
    manifest.outputs[os.path.basename(args.out)] = _digest(args.out)

    lines: list[tuple[str, object]] = [
        ("base", args.base),
        ("k", args.k),
        ("p", report.p),
    ]
    for i, step in enumerate(report.steps, start=1):
        lines.append((f"r_{i}", step.radius))
        lines.append((f"accepted_fraction_{i}", step.accepted_fraction))
        lines.append((f"trace_sup_error_{i}", step.trace_sup_error))
        lines.append((f"gap_fraction_{i}", step.gap_fraction))
    lines.extend(
        [
            ("trace_sup_error", report.trace_sup_error),
            ("patch_energy_total", report.patch_energy_total),
            ("glued_energy", report.glued_energy),
            ("ratio", report.ratio),
            ("degenerate", str(report.degenerate).lower()),
        ]
    )
    text = [_kv_line(key, value) for key, value in lines]
    with open(args.report, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in text)
    manifest.outputs[os.path.basename(args.report)] = _digest(args.report)
    for line in text:
        print(line)
    return 0


def _parse_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def _cmd_estimate(args: argparse.Namespace, manifest: RunManifest) -> int:
    from .domain import collar_over
    from .energy import distance_penalty
    from .fileio import read_trace_map, write_grid_map
    from .minimize import (
        MinimizeConfig,
        minimize_extension_detailed,
        minimize_penalized_detailed,
    )

    manifest.inputs[os.path.basename(args.trace)] = _digest(args.trace)
    manifest.inputs[os.path.basename(args.cfg)] = _digest(args.cfg)
    trace = read_trace_map(args.trace)

    known = {"max_iterations": int, "step": float, "tol": float}
    overrides = {}
    for key, value in _parse_config(args.cfg).items():
        if key not in known:
            raise ParameterError(f"unknown config key {key!r} in {args.cfg}")
        try:
            overrides[key] = known[key](value)
        except ValueError as exc:
            raise ParameterError(
                f"config key {key!r} has malformed value {value!r}"
            ) from exc
    cfg = MinimizeConfig(p=args.p, **overrides)

    depth = args.depth
    h_base = trace.base.max_spacing
    n_depth = max(8, min(128, int(round(depth / h_base)) + 1))
    domain = collar_over(trace.base, n_depth, depth)

    if args.penalized:
        if args.eps is None:
            raise ParameterError("--penalized needs --eps")
        penalty = distance_penalty(args.eps, args.p, trace.target)
        result = minimize_penalized_detailed(trace, penalty, domain, cfg)
    else:
        result = minimize_extension_detailed(trace, domain, trace.target, cfg)
    write_grid_map(args.out, result.map)
    manifest.outputs[os.path.basename(args.out)] = _digest(args.out)
    print(_kv_line("energy", result.energy))
    print(_kv_line("iterations", result.iterations))
    print(_kv_line("converged", str(result.converged).lower()))
    print(_kv_line("gradient_sup", result.gradient_sup))
    print(_kv_line("backtracks", result.backtracks))
    return 0


def _cmd_accept(args: argparse.Namespace, manifest: RunManifest) -> int:
    from .acceptance import format_line, run_primary_suite

    if args.suite != "primary":
        raise ParameterError(f"unknown suite {args.suite!r}; only 'primary' exists")
    results = run_primary_suite()
    lines = [format_line(result) for result in results]
    passed = sum(1 for result in results if result.passed)
    summary = f"SUMMARY passed={passed}/{len(results)}"
    with open(args.out, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
        handle.write(summary + "\n")
    manifest.outputs[os.path.basename(args.out)] = _digest(args.out)
    for line in lines:
        print(line)
    print(summary)
    return 0 if passed == len(results) else 1


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev-glue",
        description="Grid-sampled boundary-trace extension toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_energy = sub.add_parser("energy", help="evaluate an energy of a grid map")
    p_energy.add_argument("--kind", required=True, choices=("dirichlet", "gagliardo", "penalized"))
    p_energy.add_argument("--p", type=float, required=True)
    p_energy.add_argument("--s", type=float, default=None)
    p_energy.add_argument("--eps", type=float, default=None)
    p_energy.add_argument("--in", dest="infile", required=True)
    p_energy.set_defaults(handler=_cmd_energy, out_attr=None)

    p_fold = sub.add_parser("fold", help="fold two extensions sharing a trace")
    p_fold.add_argument("--u0", required=True)
    p_fold.add_argument("--u1", required=True)
    p_fold.add_argument("--out", required=True)
    p_fold.add_argument("--trace-tol", type=float, default=None)
    p_fold.add_argument("--p", type=float, default=2.0)
    p_fold.set_defaults(handler=_cmd_fold, out_attr="out")

    p_cone = sub.add_parser("cone", help="certify a cone capture")
    p_cone.add_argument("--f", required=True)
    p_cone.add_argument("--g", required=True)
    p_cone.add_argument("--out", required=True)
    p_cone.set_defaults(handler=_cmd_cone, out_attr="out")

    p_glue = sub.add_parser("glue", help="glue chart patches over a covering")
    p_glue.add_argument("--base", required=True, choices=("circle", "torus"))
    p_glue.add_argument("--k", type=int, required=True)
    p_glue.add_argument("--trace", required=True)
    p_glue.add_argument("--patch", action="append", required=True)
    p_glue.add_argument("--p", type=float, default=2.0)
    p_glue.add_argument("--out", required=True)
    p_glue.add_argument("--report", required=True)
    p_glue.set_defaults(handler=_cmd_glue, out_attr="out")

    p_est = sub.add_parser("estimate", help="estimate the extension energy")
    p_est.add_argument("--trace", required=True)
    p_est.add_argument("--p", type=float, required=True)
    p_est.add_argument("--penalized", action="store_true")
    p_est.add_argument("--eps", type=float, default=None)
    p_est.add_argument("--depth", type=float, default=1.0)
    p_est.add_argument("--cfg", required=True)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(handler=_cmd_estimate, out_attr="out")

    p_accept = sub.add_parser("accept", help="run the acceptance suite")
    p_accept.add_argument("--suite", required=True)
    p_accept.add_argument("--out", required=True)
    p_accept.set_defaults(handler=_cmd_accept, out_attr="out")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap()
        parser = _build_parser()
        args = parser.parse_args(argv)
        from . import __version__

        manifest = RunManifest(
            subcommand=args.subcommand, arguments=argv, version=__version__
        )
        start = time.monotonic()
        code = args.handler(args, manifest)
        manifest.duration_s = time.monotonic() - start
        out_attr = getattr(args, "out_attr", None)
        if out_attr is not None:
            manifest.write(getattr(args, out_attr) + ".run")
        return code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ResolutionError, OptimizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except GlueError as exc:
        # residual family members (internal invariant breaks): the
        # computation could not certify its result
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
