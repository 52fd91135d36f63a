"""Command-line entry point.

Subcommands: ``energy``, ``fold``, ``cone``, ``glue``, ``estimate`` and
``accept``.  Each handler only computes, writes its output files and
returns its exit code with the lines to print; :func:`main` does the
rest for all of them.  Each subparser names its input and output file
arguments once (``inputs``/``outputs`` in ``set_defaults``), and
``main`` times the handler, prints its lines and, when there is an
output file, writes ``<out>.run`` beside the first one.  Only such a
subcommand digests its inputs, before the handler runs.  The record
holds the subcommand, the argument list, the tool version, the handler's
wall-clock duration, and one ``input_<path>``/``output_<path>`` sha256
line per file, keyed by the path as given on the command line, plus a
``<path>.manifest`` line wherever that sidecar exists.  Identical runs
are thus diff-checkable.

Exit codes, from one ordered table of error families: 0 success, 2
parameter error, 3 precondition error, 4 resolution or optimization
error or a failed allocation (``MemoryError``), 5 I/O or format error;
the ``accept`` driver exits 1 when a criterion fails (that is a
finding, not an error).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .acceptance import format_line, run_primary_suite
from .cone import SampledSet, find_cone
from .covering import build_covering, glue
from .domain import collar_over, depth_node_count
from .energy import dirichlet_p_energy, distance_penalty, gagliardo_energy, penalized_energy
from .errors import (
    FormatError,
    GlueError,
    OptimizationError,
    ParameterError,
    PreconditionError,
    ResolutionError,
)
from .fileio import (
    manifest_path,
    read_grid_map,
    read_sampled_set,
    read_trace_map,
    sha256_of,
    write_cone_certificate,
    write_grid_map,
)
from .folding import fold, verify_fold_traces
from .minimize import MinimizeConfig, minimize_extension_detailed, minimize_penalized_detailed
from .target import circle as circle_target, sphere

#: exit code of each error family; the first family that matches wins, so
#: the bare GlueError row takes the family members no earlier row names
#: (internal invariant breaks: the computation could not certify its result);
#: a MemoryError is a resolution this machine cannot hold
_EXIT_CODES = (
    (ParameterError, 2),
    (PreconditionError, 3),
    ((ResolutionError, OptimizationError), 4),
    ((FormatError, OSError), 5),
    (GlueError, 4),
    (MemoryError, 4),
)


def _kv_line(key: str, value) -> str:
    """``key=value``; floats print with 17 significant digits (round-trip)."""
    if isinstance(value, float):
        return f"{key}={value:.17g}"
    return f"{key}={value}"


# ---------------------------------------------------------------- handlers

def _cmd_energy(args: argparse.Namespace) -> tuple[int, list[str]]:
    # each optional parameter is read by exactly one kind
    for name, kind in (("s", "gagliardo"), ("eps", "penalized")):
        if args.kind == kind and getattr(args, name) is None:
            raise ParameterError(f"{kind} energy needs --{name}")
        if args.kind != kind and getattr(args, name) is not None:
            raise ParameterError(f"{args.kind} energy takes no --{name}")
    if args.kind == "gagliardo":
        u = read_trace_map(args.infile)
        report = gagliardo_energy(u, args.s, args.p)
    elif args.kind == "dirichlet":
        m = read_grid_map(args.infile)
        report = dirichlet_p_energy(m, args.p)
    else:
        m = read_grid_map(args.infile)
        if m.nu < 2:
            raise ParameterError(f"a penalized energy needs nu >= 2, got nu={m.nu}")
        reference = circle_target() if m.nu == 2 else sphere(m.nu)
        report = penalized_energy(m, args.p, distance_penalty(args.eps, args.p, reference))
    return 0, [_kv_line("value", report.value)]


def _cmd_fold(args: argparse.Namespace) -> tuple[int, list[str]]:
    u0 = read_grid_map(args.u0)
    u1 = read_grid_map(args.u1)
    folded = fold(u0, u1, trace_tol=args.trace_tol)
    report = verify_fold_traces(folded, u0, u1, args.p)
    write_grid_map(args.out, folded)
    return 0, [_kv_line(key, value) for key, value in asdict(report).items()]


def _cmd_cone(args: argparse.Namespace) -> tuple[int, list[str]]:
    f, g = (SampledSet(*read_sampled_set(path)) for path in (args.f, args.g))
    cert = find_cone(f, g)
    write_cone_certificate(args.out, cert.radius, cert.directions)
    return 0, [
        _kv_line("radius", cert.radius),
        _kv_line("accepted_directions", int(np.sum(cert.directions))),
        _kv_line("direction_count", int(cert.directions.size)),
        _kv_line("verified", str(bool(cert.verified)).lower()),
    ]


def _cmd_glue(args: argparse.Namespace) -> tuple[int, list[str]]:
    # before the covering is built: building a large one takes long
    if len(args.patch) != args.k:
        raise ParameterError(f"--k {args.k} needs {args.k} --patch files, got {len(args.patch)}")
    trace = read_trace_map(args.trace)
    if trace.base.kind != args.base:
        raise ParameterError(
            f"trace base is {trace.base.kind!r}, --base says {args.base!r}"
        )
    covering = build_covering(trace.base, args.k)
    patches = [read_grid_map(path) for path in args.patch]
    glued, report = glue(covering, patches, trace, p=args.p)
    write_grid_map(args.out, glued)

    lines: list[tuple[str, object]] = [
        ("base", args.base),
        ("k", args.k),
        ("p", report.p),
    ]
    for i, step in enumerate(report.steps, start=1):
        lines.append((f"r_{i}", step.radius))
        lines.append((f"accepted_fraction_{i}", step.accepted_fraction))
        lines.append((f"trace_sup_error_{i}", step.trace_sup_error))
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
    return 0, text


def _parse_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ParameterError(
                f"{path}:{lineno}: config key {key!r} is already set on line {first_line[key]}"
            )
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries


def _cmd_estimate(args: argparse.Namespace) -> tuple[int, list[str]]:
    if args.penalized and args.eps is None:
        raise ParameterError("--penalized needs --eps")
    if args.eps is not None and not args.penalized:
        raise ParameterError("--eps needs --penalized")
    trace = read_trace_map(args.trace)

    known = {"max_iterations": int, "tol": float}
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

    domain = collar_over(trace.base, depth_node_count(trace.base, args.depth), args.depth)

    if args.penalized:
        penalty = distance_penalty(args.eps, args.p, trace.target)
        result = minimize_penalized_detailed(trace, penalty, domain, cfg)
    else:
        result = minimize_extension_detailed(trace, domain, trace.target, cfg)
    write_grid_map(args.out, result.map)
    return 0, [
        _kv_line("energy", result.energy),
        _kv_line("iterations", result.iterations),
        _kv_line("converged", str(result.converged).lower()),
        _kv_line("gradient_sup", result.gradient_sup),
        _kv_line("backtracks", result.backtracks),
    ]


def _cmd_accept(args: argparse.Namespace) -> tuple[int, list[str]]:
    results = run_primary_suite()
    passed = sum(1 for result in results if result.passed)
    lines = [format_line(result) for result in results]
    lines.append(f"SUMMARY passed={passed}/{len(results)}")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)
    return (0 if passed == len(results) else 1), lines


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
    p_energy.set_defaults(handler=_cmd_energy, inputs=("infile",), outputs=())

    p_fold = sub.add_parser("fold", help="fold two extensions sharing a trace")
    p_fold.add_argument("--u0", required=True)
    p_fold.add_argument("--u1", required=True)
    p_fold.add_argument("--out", required=True)
    p_fold.add_argument("--trace-tol", type=float, default=None)
    p_fold.add_argument("--p", type=float, default=2.0)
    p_fold.set_defaults(handler=_cmd_fold, inputs=("u0", "u1"), outputs=("out",))

    p_cone = sub.add_parser("cone", help="certify a cone capture")
    p_cone.add_argument("--f", required=True)
    p_cone.add_argument("--g", required=True)
    p_cone.add_argument("--out", required=True)
    p_cone.set_defaults(handler=_cmd_cone, inputs=("f", "g"), outputs=("out",))

    p_glue = sub.add_parser("glue", help="glue chart patches over a covering")
    p_glue.add_argument("--base", required=True, choices=("circle", "torus"))
    p_glue.add_argument("--k", type=int, required=True)
    p_glue.add_argument("--trace", required=True)
    p_glue.add_argument("--patch", action="append", required=True)
    p_glue.add_argument("--p", type=float, default=2.0)
    p_glue.add_argument("--out", required=True)
    p_glue.add_argument("--report", required=True)
    p_glue.set_defaults(handler=_cmd_glue, inputs=("trace", "patch"), outputs=("out", "report"))

    p_est = sub.add_parser("estimate", help="estimate the extension energy")
    p_est.add_argument("--trace", required=True)
    p_est.add_argument("--p", type=float, required=True)
    p_est.add_argument("--penalized", action="store_true")
    p_est.add_argument("--eps", type=float, default=None)
    p_est.add_argument("--depth", type=float, default=1.0)
    p_est.add_argument("--cfg", required=True)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(handler=_cmd_estimate, inputs=("trace", "cfg"), outputs=("out",))

    p_accept = sub.add_parser("accept", help="run the acceptance suite")
    p_accept.add_argument("--suite", required=True, choices=("primary",))
    p_accept.add_argument("--out", required=True)
    p_accept.set_defaults(handler=_cmd_accept, inputs=(), outputs=("out",))

    return parser


# ------------------------------------------------------------------ driver

def _digests(args: argparse.Namespace, kind: str, names: tuple[str, ...]) -> dict[str, str]:
    """``<kind>_<path>`` -> sha256 for every file the named arguments hold.

    ``--patch`` holds a list.  A file's ``<path>.manifest`` sidecar gets
    its own entry wherever it exists, since it changes what is read.
    """
    entries = {}
    for name in names:
        value = getattr(args, name)
        for path in value if isinstance(value, list) else [value]:
            entries[f"{kind}_{path}"] = sha256_of(path)
            sidecar = manifest_path(path)
            if os.path.exists(sidecar):
                entries[f"{kind}_{sidecar}"] = sha256_of(sidecar)
    return entries


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        # only a run record reads the input digests
        inputs = _digests(args, "input", args.inputs) if args.outputs else {}
        start = time.monotonic()
        code, lines = args.handler(args)
        duration = time.monotonic() - start
        for line in lines:
            print(line)
        if args.outputs:
            record = {
                "subcommand": args.subcommand,
                "arguments": " ".join(argv),
                "version": __version__,
                "duration_s": f"{duration:.3f}",
                **inputs,
                **_digests(args, "output", args.outputs),
            }
            with open(getattr(args, args.outputs[0]) + ".run", "w", encoding="utf-8") as fh:
                fh.writelines(f"{key}: {value}\n" for key, value in record.items())
        return code
    except (GlueError, OSError, MemoryError) as exc:
        # a bare MemoryError() has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for family, code in _EXIT_CODES if isinstance(exc, family))


if __name__ == "__main__":
    sys.exit(main())
