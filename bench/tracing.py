"""Spans and result capture around the library's public functions.

Nothing here edits the library.  A function is wrapped by replacing it,
in every ``sobolev_glue`` module namespace that binds it, with a wrapper;
callers that look the name up at call time (module globals, ``from .x
import y`` inside a handler, ``cone_mod.find_cone``) then reach the
wrapper.  ``uninstall`` puts the originals back, so a pass can run with
the wrappers in place and the next without them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from typing import Callable, Optional

PACKAGE = "sobolev_glue"


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Replace functions at every name that binds them, and undo it."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        wrapper = make(original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_attr(self, module, name: str, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)


# --------------------------------------------------------------- descents

class DescentLog:
    """Keeps every descent's inputs and result; no timers.

    Installed around each operation of every run, traced or not, because
    the convergence and oracle-gap metrics need the results of descents
    that run inside the acceptance suite and the ``estimate`` command.
    """

    def __init__(self) -> None:
        self.entries: list[dict] = []
        self._patcher = Patcher()

    def install(self, minimize) -> None:
        def extension(original):
            def wrapper(u, domain, target, cfg):
                result = original(u, domain, target, cfg)
                self.entries.append(
                    dict(u=u, domain=domain, target=target, p=cfg.p,
                         penalized=False, result=result)
                )
                return result
            return wrapper

        def penalized(original):
            def wrapper(u, penalty, domain, cfg):
                result = original(u, penalty, domain, cfg)
                self.entries.append(
                    dict(u=u, domain=domain, target=None, p=cfg.p,
                         penalized=True, result=result)
                )
                return result
            return wrapper

        self._patcher.replace(minimize, "minimize_extension_detailed", extension)
        self._patcher.replace(minimize, "minimize_penalized_detailed", penalized)

    def uninstall(self) -> None:
        self._patcher.restore()


# ------------------------------------------------------------------ spans

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_pairs(tracer, args, kwargs, result) -> None:
    u = _arg(args, kwargs, 0, "u")
    n = 1
    for count in u.base.shape:
        n *= count
    tracer.add("energy.gagliardo_energy.pairs", n * n)


def _count_points(tracer, args, kwargs, result) -> None:
    tracer.add("gridmap.evaluate_batch.points", len(_arg(args, kwargs, 1, "points")))


def _count_read(tracer, args, kwargs, result) -> None:
    tracer.add("fileio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_written(tracer, args, kwargs, result) -> None:
    tracer.add("fileio.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_descent(tracer, args, kwargs, result) -> None:
    tracer.add("minimize.iterations", result.iterations)
    tracer.add("minimize.converged", int(bool(result.converged)))


def _count_projected_descent(tracer, args, kwargs, result) -> None:
    _count_descent(tracer, args, kwargs, result)
    target = _arg(args, kwargs, 2, "target")
    cfg = _arg(args, kwargs, 3, "cfg")
    if target.constrained and cfg.projection == "auto":
        tracer.add("_projected_iterations", result.iterations)


def _count_certified(tracer, args, kwargs, result) -> None:
    tracer.add("_certified", int(bool(result.verified)))


def _count_glue_steps(tracer, args, kwargs, result) -> None:
    tracer.add("covering.glue.steps", len(result[1].steps))


# (module, function, span name, count hook).  The span name is
# ``<module>.<function>``, except for the CLI handlers, which are named
# after their subcommand.
WRAPPED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_energy", "cli.energy", None),
    ("cli", "_cmd_fold", "cli.fold", None),
    ("cli", "_cmd_cone", "cli.cone", None),
    ("cli", "_cmd_glue", "cli.glue", None),
    ("cli", "_cmd_estimate", "cli.estimate", None),
    ("cli", "_cmd_accept", "cli.accept", None),
    ("fileio", "read_grid_map", "fileio.read_grid_map", _count_read),
    ("fileio", "read_trace_map", "fileio.read_trace_map", _count_read),
    ("fileio", "read_sampled_set", "fileio.read_sampled_set", _count_read),
    ("fileio", "write_grid_map", "fileio.write_grid_map", _count_written),
    ("fileio", "write_sampled_set", "fileio.write_sampled_set", _count_written),
    ("fileio", "write_cone_certificate", "fileio.write_cone_certificate", _count_written),
    ("fileio", "sha256_of", "fileio.sha256_of", None),
    ("energy", "gagliardo_energy", "energy.gagliardo_energy", _count_pairs),
    ("energy", "dirichlet_p_energy", "energy.dirichlet_p_energy", None),
    ("energy", "penalized_energy", "energy.penalized_energy", None),
    ("minimize", "minimize_extension_detailed", "minimize.minimize_extension_detailed",
     _count_projected_descent),
    ("minimize", "minimize_penalized_detailed", "minimize.minimize_penalized_detailed",
     _count_descent),
    ("minimize", "isobe_sweep", "minimize.isobe_sweep", None),
    ("minimize", "circle_lifting_oracle", "minimize.circle_lifting_oracle", None),
    ("minimize", "dirichlet_gradient", "minimize.dirichlet_gradient", None),
    ("target", "project_to_target", "target.project_to_target", None),
    ("folding", "fold", "folding.fold", None),
    ("gridmap", "evaluate_batch", "gridmap.evaluate_batch", _count_points),
    ("cone", "find_cone", "cone.find_cone", _count_certified),
    ("cone", "ray_clearance", "cone.ray_clearance", None),
    ("cone", "verify_cone", "cone.verify_cone", None),
    ("cone", "check_boundary_containment", "cone.check_boundary_containment", None),
    ("covering", "glue", "covering.glue", _count_glue_steps),
    ("covering", "verify_glue", "covering.verify_glue", None),
    ("covering", "build_covering", "covering.build_covering", None),
    ("covering", "replicate_trace_patch", "covering.replicate_trace_patch", None),
)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters.

    ``totals`` folds the spans recorded so far into per-name inclusive
    and self times and call counts, and then drops them.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patcher = Patcher()

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, span_name: str, hook: Optional[Callable]):
        def make(original):
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                span = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
                self.spans.append(span)
                self._stack.append(index)
                span[1] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        for module_name, function, span_name, hook in WRAPPED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            self._patcher.replace(module, function, self._wrap(span_name, hook))
        # the suite runner iterates this tuple rather than looking the
        # criteria up by name, so it is the name to replace
        acceptance = importlib.import_module(f"{PACKAGE}.acceptance")
        wrapped = []
        for criterion in acceptance.ALL_CRITERIA:
            number = criterion.__name__.split("_")[1]
            wrapped.append(self._wrap(f"acceptance.criterion_{number}", None)(criterion))
        self._patcher.replace_attr(acceptance, "ALL_CRITERIA", tuple(wrapped))

    def uninstall(self) -> None:
        self._patcher.restore()

    def totals(self) -> dict[str, float]:
        """Fold recorded spans into ``<name>.s``, ``.self_s``, ``.calls``.

        Also ``<module>.self_s`` over all spans of a module, and the
        number of projections made inside projected descents.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        projections_in_descents = 0
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            own = duration - child[i]
            add(f"{name}.s", duration)
            add(f"{name}.self_s", own)
            add(f"{name}.calls", 1)
            add(f"{name.split('.')[0]}.self_s", own)
            if name == "target.project_to_target":
                while parent >= 0 and not spans[parent][0].startswith("minimize."):
                    parent = spans[parent][3]
                if parent >= 0 and spans[parent][0] == "minimize.minimize_extension_detailed":
                    projections_in_descents += 1
        out["_projections_in_descents"] = projections_in_descents
        out["trace.spans"] = len(spans)
        for key, value in self.counts.items():
            add(key, value)
        self.spans = []
        self.counts = {}
        return out
