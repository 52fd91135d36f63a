"""Plain-text file formats.

Grid maps (SGF)::

    SGF1 <kind> <nu> <res_1> ... <res_k> <target-kind>
    <v_1> ... <v_nu>          one line per node, C order over the axes

Values are written with 17 significant digits, which round-trips IEEE
doubles bit-exactly.  Every written map gets a sidecar manifest at
``<path>.manifest`` holding ``key: value`` lines (constraint tolerance,
provenance, and axis lengths whenever they differ from the canonical
lengths of the kind).

Sampled subsets of [-1,1]^m (SET)::

    SET1 <m> <res> <open|closed>
    0/1 characters, row-major, one grid row per line

Cone certificates (CONE)::

    CONE1 <r> <direction-res>
    0/1 characters for the direction indicator, one line

CONE1 is written only: ``cone`` writes its certificate for the record,
and nothing in the package reads one back.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

from . import domain as dom
from .errors import FormatError, ParameterError
from .gridmap import GridMap, TraceMap
from .target import TargetSpec

_FMT = "%.17g"
#: rows of an SGF body formatted per write
_WRITE_ROWS = 4096


def format_real(x: float) -> str:
    return _FMT % float(x)


# ---------------------------------------------------------------- manifests

def manifest_path(path: str) -> str:
    return path + ".manifest"


def write_manifest(path: str, entries: dict[str, str]) -> None:
    lines = [f"{key}: {value}" for key, value in entries.items()]
    with open(manifest_path(path), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path: str) -> dict[str, str]:
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        return {}
    entries: dict[str, str] = {}
    with open(mpath, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise FormatError(f"manifest line without a colon: {line!r}")
            key, value = line.split(":", 1)
            entries[key.strip()] = value.strip()
    return entries


# ---------------------------------------------------------------- grid maps

def write_grid_map(path: str, m: GridMap | TraceMap) -> None:
    d = m.domain
    header = " ".join(
        ["SGF1", d.kind, str(m.nu)] + [str(n) for n in d.shape] + [m.target.kind]
    )
    flat = m.values.reshape(-1, m.nu)
    row_fmt = " ".join([_FMT] * m.nu) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        # one % per block of rows; blocks keep the float tuple small
        for start in range(0, flat.shape[0], _WRITE_ROWS):
            block = flat[start : start + _WRITE_ROWS]
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))
    entries = {
        "constraint_tol": format_real(m.constraint_tol),
        "created_by": "sobolev-glue",
    }
    if not d.is_canonical():
        entries["axis_lengths"] = ",".join(format_real(L) for L in d.lengths)
    write_manifest(path, entries)


def _parse_header(line: str) -> tuple[str, int, tuple[int, ...], str]:
    parts = line.split()
    if len(parts) < 5 or parts[0] != "SGF1":
        raise FormatError(f"not an SGF1 header: {line!r}")
    kind = parts[1]
    if kind not in dom.KIND_TABLE:
        raise FormatError(f"unknown domain kind in header: {kind!r}")
    expected_axes = len(dom.KIND_TABLE[kind][0])
    if len(parts) != 3 + expected_axes + 1:
        raise FormatError(
            f"header for kind {kind!r} must list {expected_axes} resolutions: {line!r}"
        )
    try:
        nu = int(parts[2])
        counts = tuple(int(p) for p in parts[3 : 3 + expected_axes])
    except ValueError as exc:
        raise FormatError(f"non-integer field in header: {line!r}") from exc
    target_kind = parts[-1]
    return kind, nu, counts, target_kind


def _read_sgf(path: str) -> tuple[dom.DomainSpec, TargetSpec, np.ndarray, Optional[float]]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().rstrip("\n")
            kind, nu, counts, target_kind = _parse_header(header)
            try:
                target = TargetSpec(kind=target_kind, nu=nu)
            except ParameterError as exc:
                raise FormatError(str(exc)) from exc
            manifest = read_manifest(path)
            lengths = None
            if "axis_lengths" in manifest:
                lengths = tuple(float(t) for t in manifest["axis_lengths"].split(","))
                if len(lengths) != len(counts):
                    raise FormatError("axis_lengths in manifest has wrong arity")
            try:
                domain = dom.from_kind(kind, counts, lengths)
            except ParameterError as exc:
                raise FormatError(str(exc)) from exc
            n_nodes = int(np.prod(counts))
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
            if data.shape != (n_nodes, nu):
                raise FormatError(
                    f"expected {n_nodes} lines of {nu} values, got array {data.shape}"
                )
            if not np.all(np.isfinite(data)):
                raise FormatError(f"non-finite values in {path}")
            raw_tol = manifest.get("constraint_tol")
            tol = None if raw_tol is None else float(raw_tol)
            if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
                raise FormatError(f"constraint_tol in {path} must be finite and >= 0, got {raw_tol!r}")
            values = data.reshape(counts + (nu,))
            return domain, target, values, tol
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"malformed numeric data in {path}: {exc}") from exc


def read_grid_map(path: str) -> GridMap:
    domain, target, values, tol = _read_sgf(path)
    return GridMap(domain=domain, target=target, values=values, constraint_tol=tol)


def read_trace_map(path: str) -> TraceMap:
    domain, target, values, tol = _read_sgf(path)
    return TraceMap(base=domain, target=target, values=values, constraint_tol=tol)


# ------------------------------------------------------------ sampled sets

def _bit_lines(rows: np.ndarray) -> str:
    """Rows of a 2-D boolean array as 0/1 characters, one line per row."""
    codes = np.full((rows.shape[0], rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
    np.add(rows, ord("0"), out=codes[:, :-1], dtype=np.uint8)
    return codes.tobytes().decode("ascii")


def _parse_bits(rows: list[str]) -> np.ndarray | None:
    """Concatenated 0/1 rows as a flat boolean array; None if any other character."""
    codes = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    # characters below "0" wrap around to large uint8 values
    if np.any(codes - np.uint8(ord("0")) > 1):
        return None
    return codes == ord("1")


def write_sampled_set(path: str, dimension: int, resolution: int, closed: bool, indicator: np.ndarray) -> None:
    flag = "closed" if closed else "open"
    grid = np.asarray(indicator, dtype=bool)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"SET1 {dimension} {resolution} {flag}\n")
        fh.write(_bit_lines(grid.reshape(1, -1) if dimension == 1 else grid))


def read_sampled_set(path: str) -> tuple[int, int, bool, np.ndarray]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 4 or header[0] != "SET1":
                raise FormatError(f"not a SET1 header in {path}")
            dimension = int(header[1])
            resolution = int(header[2])
            if header[3] not in ("open", "closed"):
                raise FormatError(f"openness flag must be open|closed, got {header[3]!r}")
            closed = header[3] == "closed"
            rows = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"malformed SET1 header in {path}: {exc}") from exc
    if resolution < 2:
        raise FormatError(f"SET1 resolution must be at least 2, got {resolution} in {path}")
    if dimension == 1:
        if len(rows) != 1 or len(rows[0]) != resolution:
            raise FormatError(f"expected one row of {resolution} bits in {path}")
    elif dimension == 2:
        if len(rows) != resolution or any(len(r) != resolution for r in rows):
            raise FormatError(f"expected {resolution} rows of {resolution} bits in {path}")
    else:
        raise FormatError(f"sampled sets support dimension 1 or 2, got {dimension}")
    bits = _parse_bits(rows)
    if bits is None:
        raise FormatError(f"indicator rows must be 0/1 characters in {path}")
    return dimension, resolution, closed, bits.reshape((resolution,) * dimension)


# --------------------------------------------------------- cone certificates

def write_cone_certificate(path: str, radius: float, directions: np.ndarray) -> None:
    bits = np.asarray(directions, dtype=bool)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"CONE1 {format_real(radius)} {bits.size}\n")
        fh.write(_bit_lines(bits.reshape(1, -1)))


def sha256_of(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
