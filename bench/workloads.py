"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a fixed list of operations run one after another by a
single caller (a closed loop).  ``setup`` builds all inputs from the
seed, writing the input files into a work directory; each operation is
a callable that is timed alone, and its check runs afterwards, outside
the timed region.

The seed changes the data but not how much work it asks for: circle
traces are one fixed profile turned by a seeded number of grid steps,
and the fields on tori and squares have fixed amplitude spectra with
seeded phases.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sobolev_glue import (
    acceptance,
    cli,
    covering,
    domain as dom,
    energy,
    fileio,
    gridmap as gm,
    minimize,
    target as tg,
)


@dataclass(frozen=True)
class Operation:
    """``run`` is timed; ``check(result)`` returns (passed, detail) afterwards."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def printed(stdout: str) -> dict[str, str]:
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key] = value
    return values


def _cli_ok(result) -> tuple[bool, str]:
    code, _, err = result
    return code == 0, f"exit {code} {err.strip()}"


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


# ------------------------------------------------------------------ inputs

def circle_trace(rng: np.random.Generator, n: int) -> gm.TraceMap:
    """Degree-0 circle trace: a fixed profile turned by a random number of grid steps.

    The lifting angle sum_k cos(k theta + k) / k^2, k = 1..4, is fixed, so
    every seed poses the same problem at each size (same energies, same
    iteration counts) and the two sizes of a scaling pair pose the same
    continuum problem; the seed only chooses where on the grid it sits.
    """
    base = dom.circle(n)
    theta = base.axes[0].coordinates()
    psi = sum(np.cos(k * theta + k) / (k * k) for k in range(1, 5))
    psi = np.roll(psi, int(rng.integers(n)))
    values = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return gm.TraceMap(base=base, target=tg.circle(), values=values)


def periodic_field(rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Low-frequency field on the unit torus: modes |k|<=2, amplitude 1/(1+|k|^2)."""
    field = np.zeros(np.broadcast(x, y).shape)
    for kx in range(3):
        for ky in range(-2, 3):
            if (kx, ky) == (0, 0) or (kx == 0 and ky < 0):
                continue
            phase = rng.uniform(0.0, 2.0 * math.pi)
            field += np.cos(2.0 * math.pi * (kx * x + ky * y) + phase) / (1 + kx * kx + ky * ky)
    return field


def sphere_trace(rng: np.random.Generator, n: int) -> gm.TraceMap:
    """S^2-valued map on an n x n torus, tilted away from the north pole."""
    base = dom.torus(n, n)
    x, y = np.meshgrid(*(ax.coordinates() for ax in base.axes), indexing="ij")
    w = np.stack([periodic_field(rng, x, y), periodic_field(rng, x, y), np.ones_like(x)], -1)
    values = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return gm.TraceMap(base=base, target=tg.sphere(3), values=values)


def square_field(rng: np.random.Generator, n: int) -> np.ndarray:
    """Two-component low-frequency field on the unit square grid."""
    xs = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    out = np.zeros((n, n, 2))
    for comp in range(2):
        for kx in range(3):
            for ky in range(3):
                phase = rng.uniform(0.0, 2.0 * math.pi)
                out[..., comp] += np.cos(2.0 * math.pi * (kx * gx + ky * gy) + phase) / (
                    1.0 + kx * kx + ky * ky
                )
    return out


def cone_instance(rng: np.random.Generator, resolution: int):
    """Union of 1-3 closed wedges with a core disc (F) inside a fattened open G."""
    wedges = int(rng.integers(1, 4))
    centers = rng.uniform(0.0, 2.0 * math.pi, size=wedges)
    widths = rng.uniform(0.15, 0.5, size=wedges)
    rho = rng.uniform(0.1, 0.5)
    delta = 0.06
    axis = np.linspace(-1.0, 1.0, resolution)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    radii = np.hypot(xs, ys)
    angles = np.arctan2(ys, xs)
    in_wedge = np.zeros_like(radii, dtype=bool)
    in_fat = np.zeros_like(radii, dtype=bool)
    for c, w in zip(centers, widths):
        gap = np.abs(np.mod(angles - c + math.pi, 2.0 * math.pi) - math.pi)
        in_wedge |= gap <= w
        in_fat |= gap <= w + delta
    f = (radii <= rho) | ((radii <= 1.0) & in_wedge)
    g = (radii < rho + 0.05) | in_fat
    return f, g


# ------------------------------------------------------------- workloads

class Workload:
    """Inputs and operations of one workload; ``sizes`` is recorded with every result."""

    name = ""
    # scaling exponents: (metric, operation at N, operation at ratio * N, ratio)
    scaling: tuple[tuple[str, str, str, float], ...] = ()

    def __init__(self, work_dir: str, seed: int) -> None:
        self.dir = work_dir
        self.rng = np.random.default_rng(seed)
        self.sizes: dict[str, object] = {}
        self.operations: list[Operation] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


class AcceptPrimary(Workload):
    """``accept --suite primary`` through ``cli.main``.

    The suite's fixtures are pinned inside the library, so the seed
    changes nothing here.  At toy size only the fast criteria run.
    """

    name = "accept_primary"
    TOY_CRITERIA = ("01", "05", "07", "10")

    def __init__(self, work_dir: str, seed: int, toy: bool) -> None:
        super().__init__(work_dir, seed)
        if toy:
            acceptance.ALL_CRITERIA = tuple(
                c for c in acceptance.ALL_CRITERIA
                if c.__name__.split("_")[1] in self.TOY_CRITERIA
            )
        self.sizes = {"criteria": len(acceptance.ALL_CRITERIA)}
        out = self.path("accept.txt")
        self.operations = [
            Operation("accept", lambda: run_cli(["accept", "--suite", "primary", "--out", out]),
                      self._check),
        ]

    def _check(self, result) -> tuple[bool, str]:
        code, stdout, err = result
        lines = [line for line in stdout.splitlines() if line[:5] in ("PASS ", "FAIL ")]
        want = len(acceptance.ALL_CRITERIA)
        passed = sum(line.startswith("PASS ") for line in lines)
        ok = code == 0 and len(lines) == want and passed == want
        return ok, f"exit {code}, {passed}/{len(lines)} PASS of {want} {err.strip()}"


class CliFiles(Workload):
    """Every subcommand but ``accept`` on SGF and SET files written in setup."""

    name = "cli_files"

    def __init__(self, work_dir: str, seed: int, toy: bool) -> None:
        super().__init__(work_dir, seed)
        rng = self.rng
        n_glue, n_big, depth_big, n_fold, n_cone, n_circle, cones = (
            (16, 16, 4, 33, 128, 32, 2) if toy else (64, 128, 16, 257, 256, 64, 10)
        )
        self.sizes = {
            "glue_torus": [n_glue, n_glue], "glue_charts": 9, "glue_depth": 10,
            "energy_torus_collar": [n_big, n_big, depth_big], "fold_square": n_fold,
            "cone_resolution": n_cone, "cone_instances": cones, "estimate_circle": n_circle,
        }
        ops = self.operations

        # glue: S^2-valued torus trace, nine replicated patches
        trace = sphere_trace(rng, n_glue)
        trace_path = self.path("glue_trace.sgf")
        fileio.write_grid_map(trace_path, trace)
        glue_args = ["glue", "--base", "torus", "--k", "9", "--trace", trace_path]
        for i, chart in enumerate(covering.build_covering(trace.base, 9).charts):
            patch_path = self.path(f"patch{i}.sgf")
            fileio.write_grid_map(patch_path, covering.replicate_trace_patch(trace, chart, 10))
            glue_args += ["--patch", patch_path]
        glued = self.path("glued.sgf")
        glue_args += ["--out", glued, "--report", self.path("glue.report")]
        h = trace.base.max_spacing
        ops.append(Operation("glue", lambda: run_cli(glue_args), lambda r: self._check_glue(r, h)))
        ops.append(Operation(
            "energy_glued",
            lambda: run_cli(["energy", "--kind", "dirichlet", "--p", "2", "--in", glued]),
            lambda r: self._check_energy(
                r, lambda: energy.dirichlet_p_energy(fileio.read_grid_map(glued), 2.0).value),
        ))

        # read-bound energies: Euclidean map on a torus collar
        big = self._torus_collar_map(n_big, depth_big)
        big_path = self.path("collar.sgf")
        fileio.write_grid_map(big_path, big)
        want_dirichlet = energy.dirichlet_p_energy(big, 2.0).value
        want_penalized = energy.penalized_energy(
            big, 2.0, energy.distance_penalty(0.25, 2.0, tg.sphere(3))).value
        ops.append(Operation(
            "energy_dirichlet",
            lambda: run_cli(["energy", "--kind", "dirichlet", "--p", "2", "--in", big_path]),
            lambda r: self._check_energy(r, lambda: want_dirichlet),
        ))
        ops.append(Operation(
            "energy_penalized",
            lambda: run_cli(["energy", "--kind", "penalized", "--p", "2", "--eps", "0.25",
                             "--in", big_path]),
            lambda r: self._check_energy(r, lambda: want_penalized),
        ))

        # fold: two matched square maps
        u0, u1 = self._matched_pair(n_fold)
        fold_paths = [self.path("fold_u0.sgf"), self.path("fold_u1.sgf")]
        fileio.write_grid_map(fold_paths[0], u0)
        fileio.write_grid_map(fold_paths[1], u1)
        ops.append(Operation(
            "fold",
            lambda: run_cli(["fold", "--u0", fold_paths[0], "--u1", fold_paths[1],
                             "--out", self.path("folded.sgf")]),
            _cli_ok,
        ))

        # cone: random wedge instances
        for k in range(cones):
            f, g = cone_instance(rng, n_cone)
            f_path, g_path = self.path(f"cone{k}_f.set"), self.path(f"cone{k}_g.set")
            fileio.write_sampled_set(f_path, 2, n_cone, True, f)
            fileio.write_sampled_set(g_path, 2, n_cone, False, g)
            argv = ["cone", "--f", f_path, "--g", g_path, "--out", self.path(f"cone{k}.cert")]
            ops.append(Operation(f"cone_{k}", lambda argv=argv: run_cli(argv), self._check_cone))

        # estimate: small degree-0 circle trace, default optimizer settings
        circle = circle_trace(rng, n_circle)
        circle_path = self.path("circle.sgf")
        fileio.write_grid_map(circle_path, circle)
        cfg_path = self.path("empty.cfg")
        with open(cfg_path, "w", encoding="ascii") as handle:
            handle.write("# defaults\n")
        ops.append(Operation(
            "estimate",
            lambda: run_cli(["estimate", "--trace", circle_path, "--p", "2", "--cfg", cfg_path,
                             "--out", self.path("estimate.sgf")]),
            _cli_ok,
        ))

    def _torus_collar_map(self, n: int, n_depth: int) -> gm.GridMap:
        domain = dom.torus_collar(n, n, n_depth, 1.0)
        x, y = np.meshgrid(*(ax.coordinates() for ax in domain.axes[:2]), indexing="ij")
        t = domain.axes[2].coordinates()
        comps = []
        for _ in range(3):
            bottom, top = periodic_field(self.rng, x, y), periodic_field(self.rng, x, y)
            comps.append(bottom[..., None] * (1.0 - t) + top[..., None] * t)
        return gm.GridMap(domain=domain, target=tg.euclidean(3), values=np.stack(comps, -1))

    def _matched_pair(self, n: int) -> tuple[gm.GridMap, gm.GridMap]:
        v0 = square_field(self.rng, n)
        v1 = square_field(self.rng, n)
        v1 = v1 - v1[:, 0, None, :] + v0[:, 0, None, :]
        square = dom.square(n, n)
        return (gm.GridMap(domain=square, target=tg.euclidean(2), values=v0),
                gm.GridMap(domain=square, target=tg.euclidean(2), values=v1))

    @staticmethod
    def _check_glue(result, h: float) -> tuple[bool, str]:
        code, stdout, err = result
        values = printed(stdout)
        if code != 0:
            return False, f"exit {code} {err.strip()}"
        error = float(values["trace_sup_error"])
        ok = error <= 10.0 * h and values["degenerate"] == "false"
        return ok, f"trace_sup_error={error:.3g} degenerate={values['degenerate']}"

    @staticmethod
    def _check_energy(result, library) -> tuple[bool, str]:
        code, stdout, err = result
        if code != 0:
            return False, f"exit {code} {err.strip()}"
        got, want = float(printed(stdout)["value"]), library()
        return _close(got, want), f"cli={got!r} library={want!r}"

    @staticmethod
    def _check_cone(result) -> tuple[bool, str]:
        code, stdout, err = result
        verified = printed(stdout).get("verified")
        return code == 0 and verified == "true", f"exit {code} verified={verified} {err.strip()}"


class CollarEstimate(Workload):
    """Library calls behind the trace inequality: descents and pair sums."""

    name = "collar_estimate"

    def __init__(self, work_dir: str, seed: int, toy: bool) -> None:
        super().__init__(work_dir, seed)
        rng = self.rng
        scale = 8 if toy else 1
        n1, n2 = 128 // scale, 256 // scale
        g1, g2 = 2048 // scale, 4096 // scale
        n_torus, n_pair_torus = 24 // (4 if toy else 1), 64 // scale
        self.sizes = {
            "circle_descents": [[n1, n1 // 4], [n2, n2 // 4]],
            "p3_and_penalized_descents": [n1, n1 // 4],
            "torus_descent": [n_torus, n_torus, n_torus + 1],
            "pair_sum_circles": [g1, g2], "pair_sum_torus": [n_pair_torus, n_pair_torus],
        }
        self.scaling = (
            ("minimize.scaling_exp", "descent_circle_small", "descent_circle_large",
             (n2 * (n2 // 4)) / (n1 * (n1 // 4))),
            ("energy.gagliardo_energy.scaling_exp", "pair_sum_circle_small",
             "pair_sum_circle_large", g2 / g1),
        )
        ops = self.operations
        default = minimize.MinimizeConfig()
        for label, n in (("small", n1), ("large", n2)):
            u = circle_trace(rng, n)
            domain = dom.cylinder(n, n // 4, 1.0)
            ops.append(Operation(
                f"descent_circle_{label}",
                lambda u=u, domain=domain: minimize.minimize_extension_detailed(
                    u, domain, u.target, default),
                _check_finite_energy,
            ))
        u_p3 = circle_trace(rng, n1)
        cyl = dom.cylinder(n1, n1 // 4, 1.0)
        p3 = minimize.MinimizeConfig(p=3.0)
        ops.append(Operation(
            "descent_circle_p3",
            lambda: minimize.minimize_extension_detailed(u_p3, cyl, u_p3.target, p3),
            _check_finite_energy,
        ))
        u_pen = circle_trace(rng, n1)
        penalty = energy.distance_penalty(0.25, 2.0, tg.circle())
        ops.append(Operation(
            "descent_circle_penalized",
            lambda: minimize.minimize_penalized_detailed(u_pen, penalty, cyl, default),
            _check_finite_energy,
        ))
        s2 = sphere_trace(rng, n_torus)
        collar = dom.torus_collar(n_torus, n_torus, n_torus + 1, 1.0)
        ops.append(Operation(
            "descent_torus_sphere",
            lambda: minimize.minimize_extension_detailed(s2, collar, s2.target, default),
            _check_finite_energy,
        ))
        for label, n in (("small", g1), ("large", g2)):
            u = circle_trace(rng, n)
            ops.append(Operation(
                f"pair_sum_circle_{label}",
                lambda u=u: energy.gagliardo_energy(u, 0.5, 2.0).value,
                _check_positive,
            ))
        torus_trace = sphere_trace(rng, n_pair_torus)
        for p in (2.0, 1.5):
            ops.append(Operation(
                f"pair_sum_torus_p{p:g}",
                lambda p=p: energy.gagliardo_energy(torus_trace, 0.5, p).value,
                _check_positive,
            ))


def _check_finite_energy(result) -> tuple[bool, str]:
    return math.isfinite(result.energy), f"energy={result.energy!r}"


def _check_positive(value) -> tuple[bool, str]:
    return math.isfinite(value) and value > 0.0, f"value={value!r}"


WORKLOADS = {w.name: w for w in (AcceptPrimary, CliFiles, CollarEstimate)}


# ------------------------------------------------------- descent checks

def check_descent(entry: dict) -> tuple[bool, str]:
    """Bottom row bit-identical to the trace and a finite energy."""
    result = entry["result"]
    bottom = np.ascontiguousarray(result.map.values[..., 0, :])
    trace = np.ascontiguousarray(entry["u"].values, dtype=np.float64)
    same = bottom.shape == trace.shape and bottom.tobytes() == trace.tobytes()
    finite = math.isfinite(result.energy)
    return same and finite, f"bottom_identical={same} energy={result.energy!r}"


def oracle_gap(entry: dict):
    """|E - E_oracle| / E_oracle for p = 2 circle descents on cylinders, else None."""
    u, domain = entry["u"], entry["domain"]
    if (entry["penalized"] or entry["p"] != 2.0 or u.base.kind != "circle"
            or domain.kind != "cylinder" or u.nu != 2 or not u.target.constrained):
        return None
    _, exact = minimize.circle_lifting_oracle(u, domain)
    return abs(entry["result"].energy - exact) / exact
