"""File formats: binary grid maps, text sampled sets and certificates.

Grid maps (SGF)::

    SGF2 <kind> <nu> <res_1> ... <res_k> <target-kind>
    <prod(res) * nu little-endian float64 values, C order over the axes>

The header is one ASCII line; the body is the value array's own bytes,
so a write/read cycle is bit-exact.  A body of any other length than
prod(res) * nu * 8 bytes is a ``FormatError``, checked before anything
is allocated.  ``SGF1`` files, identical but for the magic and a text
body of one line of ``nu`` values per node, are still read; nothing
writes them.  Every written map gets a sidecar manifest at
``<path>.manifest`` holding ``key: value`` lines (constraint tolerance,
provenance, and axis lengths whenever they differ from the canonical
lengths of the kind); a sidecar that is not ASCII or repeats a key is a
``FormatError``.

Sampled subsets of [-1,1]^m (SET)::

    SET1 <m> <res> <open|closed>
    0/1 characters, row-major, one grid row per line

Cone certificates (CONE)::

    CONE1 <r> <direction-res>
    0/1 characters for the direction indicator, one line

CONE1 is written only: ``cone`` writes its certificate for the record,
and nothing in the package reads one back.  Reals in manifests and
CONE1 headers print with 17 significant digits, which round-trips IEEE
doubles.

The SGF reader only parses: ``DomainSpec``, ``TargetSpec`` and
``GridMap`` validate what it hands them, and any ``ParameterError`` they
raise becomes a ``FormatError`` naming the file.
"""

from __future__ import annotations

import math
import os
from typing import BinaryIO, TypeVar

import numpy as np

from . import domain as dom
from .errors import FormatError, ParameterError
from .gridmap import GridMap, TraceMap
from .target import TargetSpec

_FMT = "%.17g"
#: byte order and width of an SGF2 body value
_BODY_DTYPE = "<f8"
_Map = TypeVar("_Map", bound=GridMap)


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
    try:
        with open(mpath, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{mpath}: a manifest is ASCII text: {exc}") from exc
    entries: dict[str, str] = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise FormatError(f"{mpath}: manifest line without a colon: {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in entries:
            # a second value would silently replace the first
            raise FormatError(f"{mpath}: manifest key {key!r} appears twice")
        entries[key] = value.strip()
    return entries


# ---------------------------------------------------------------- grid maps

def write_grid_map(path: str, m: GridMap) -> None:
    d = m.domain
    header = " ".join(
        ["SGF2", d.kind, str(m.nu)] + [str(n) for n in d.shape] + [m.target.kind]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        # the array's own buffer: no bytes copy of the body
        fh.write(np.ascontiguousarray(m.values, dtype=_BODY_DTYPE).data)
    entries = {
        "constraint_tol": format_real(m.constraint_tol),
        "created_by": "sobolev-glue",
    }
    if not d.is_canonical():
        entries["axis_lengths"] = ",".join(format_real(L) for L in d.lengths)
    write_manifest(path, entries)


def _read_body(fh: BinaryIO, path: str, magic: str, nodes: int, nu: int) -> np.ndarray:
    """The ``nodes * nu`` values after the header: text rows (SGF1) or raw doubles (SGF2)."""
    if magic == "SGF1":
        # a reshape alone would take a 2 x 4 body for 4 x 2
        data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        if data.shape != (nodes, nu):
            raise FormatError(
                f"{path}: the header asks for {nodes} lines of nu={nu} values; "
                f"the body holds an array of shape {data.shape}"
            )
        return data
    # sized before it is read: fromfile allocates the count it is given
    expected = nodes * nu * np.dtype(_BODY_DTYPE).itemsize
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != expected:
        raise FormatError(
            f"{path}: the header asks for {nodes} nodes of nu={nu}, {expected} body bytes; "
            f"the body holds {size}"
        )
    return np.fromfile(fh, dtype=_BODY_DTYPE, count=nodes * nu)


def _read_sgf(path: str, cls: type[_Map]) -> _Map:
    """Parse an SGF file and its sidecar into ``cls``; the types check what they hold.

    The domain and the target are built before the body is read, and a
    ``ParameterError`` from them or from the map becomes a ``FormatError``
    naming the file.  Values off the target stay a ``PreconditionError``.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii", "replace").split()
            if len(header) < 5 or header[0] not in ("SGF1", "SGF2"):
                raise FormatError(f"not an SGF header in {path}: {' '.join(header)!r}")
            manifest = read_manifest(path)
            raw_lengths = manifest.get("axis_lengths")
            counts = tuple(int(p) for p in header[3:-1])
            domain = dom.from_kind(
                header[1], counts,
                None if raw_lengths is None else tuple(float(t) for t in raw_lengths.split(",")),
            )
            target = TargetSpec(kind=header[-1], nu=int(header[2]))
            raw_tol = manifest.get("constraint_tol")
            tol = None if raw_tol is None else float(raw_tol)
            if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
                raise FormatError(f"constraint_tol in {path} must be finite and >= 0, got {raw_tol!r}")
            data = _read_body(fh, path, header[0], math.prod(counts), target.nu)
            # frozen, the map adopts the array rather than copying it
            data.flags.writeable = False
            return cls(domain, target, data.reshape(counts + (target.nu,)), tol)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"malformed numeric data in {path}: {exc}") from exc


def read_grid_map(path: str) -> GridMap:
    return _read_sgf(path, GridMap)


def read_trace_map(path: str) -> TraceMap:
    return _read_sgf(path, TraceMap)


# ------------------------------------------------------------ sampled sets

def _bit_lines(rows: np.ndarray) -> str:
    """Rows of a 2-D boolean array as 0/1 characters, one line per row."""
    codes = np.full((rows.shape[0], rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
    np.add(rows, ord("0"), out=codes[:, :-1], dtype=np.uint8)
    return codes.tobytes().decode("ascii")


def _parse_bits(rows: list[bytes]) -> np.ndarray | None:
    """Concatenated 0/1 rows as a flat boolean array; None if any other byte."""
    codes = np.frombuffer(b"".join(rows), dtype=np.uint8)
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
        # only the header is text; the rows stay bytes for ``_parse_bits``
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
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
