import re
import tracemalloc

import numpy as np
import pytest

from sobolev_glue import domain as dom
from sobolev_glue import fileio
from sobolev_glue import gridmap as gm
from sobolev_glue import target as tg
from sobolev_glue.errors import FormatError, PreconditionError


def _random_map(rng, domain, nu=2):
    vals = rng.normal(size=domain.shape + (nu,))
    return gm.GridMap(domain=domain, target=tg.euclidean(nu), values=vals)


def test_grid_map_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    path = str(tmp_path / "m.sgf")
    for domain in (dom.square(5, 7), dom.cylinder(6, 4), dom.torus_collar(4, 4, 3)):
        m = _random_map(rng, domain)
        fileio.write_grid_map(path, m)
        back = fileio.read_grid_map(path)
        assert back.domain == m.domain
        assert back.target == m.target
        assert np.array_equal(back.values, m.values)
        assert back.constraint_tol == m.constraint_tol


def _per_value_body(values, nu):
    """SGF1 text body as its writer formatted it, one value at a time."""
    return "".join(
        " ".join("%.17g" % v for v in row) + "\n" for row in values.reshape(-1, nu)
    )


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_sgf2_writer_pins_the_header_and_the_raw_body(tmp_path, nu):
    rng = np.random.default_rng(nu)
    vals = rng.normal(size=(70, 70, nu)) * 10.0 ** rng.integers(-300, 300, size=(70, 70, nu))
    special = np.array(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308, 1.7976931348623157e308,
         -1.7976931348623157e308]
    )
    vals.reshape(-1)[: special.size] = special
    vals.reshape(-1)[-special.size :] = special[::-1]
    m = gm.GridMap(domain=dom.square(70, 70), target=tg.euclidean(nu), values=vals)
    path = tmp_path / "m.sgf"
    fileio.write_grid_map(str(path), m)
    header, body = path.read_bytes().split(b"\n", 1)
    assert header == f"SGF2 square {nu} 70 70 euclidean".encode("ascii")
    assert body == m.values.astype("<f8").tobytes()
    # bit for bit, -0.0 keeps its sign; an SGF1 text file of the same values reads the same
    text = tmp_path / "text.sgf"
    text.write_text(f"SGF1 square {nu} 70 70 euclidean\n" + _per_value_body(m.values, nu))
    for read in (path, text):
        assert fileio.read_grid_map(str(read)).values.tobytes() == m.values.tobytes()


def test_trace_map_round_trip(tmp_path):
    theta = dom.circle(16).axes[0].coordinates()
    tr = gm.TraceMap(
        base=dom.circle(16),
        target=tg.circle(),
        values=np.stack([np.cos(theta), np.sin(theta)], axis=-1),
        constraint_tol=1e-9,
    )
    path = str(tmp_path / "t.sgf")
    fileio.write_grid_map(path, tr)
    back = fileio.read_trace_map(path)
    assert np.array_equal(back.values, tr.values)
    assert back.target == tr.target
    assert back.target.constrained
    assert back.constraint_tol == tr.constraint_tol


def test_noncanonical_lengths_survive_via_manifest(tmp_path):
    d = dom.square(5, 4, lengths=(3.0 * np.pi / 2.0, 0.25))
    m = _random_map(np.random.default_rng(1), d, nu=3)
    path = str(tmp_path / "patch.sgf")
    fileio.write_grid_map(path, m)
    manifest = fileio.read_manifest(path)
    assert "axis_lengths" in manifest
    back = fileio.read_grid_map(path)
    assert back.domain.lengths == d.lengths
    assert np.array_equal(back.values, m.values)


def test_missing_manifest_falls_back_to_canonical(tmp_path):
    d = dom.square(4, 4)
    m = _random_map(np.random.default_rng(2), d)
    path = str(tmp_path / "m.sgf")
    fileio.write_grid_map(path, m)
    (tmp_path / "m.sgf.manifest").unlink()
    back = fileio.read_grid_map(path)
    assert back.domain == d
    assert np.array_equal(back.values, m.values)


_CIRCLE_BODY = "1 0\n0 1\n-1 0\n0 -1\n"


@pytest.mark.parametrize(
    "text, sidecar, error",
    [
        ("BOGUS square 2 4 4 euclidean\n0 0\n", None, FormatError),
        ("SGF1 pretzel 2 4 4 euclidean\n0 0\n", None, FormatError),
        ("SGF1 square 2 4 euclidean\n0 0\n", None, FormatError),
        ("SGF1 square x 4 4 euclidean\n0 0\n", None, FormatError),
        ("SGF1 square 2 4 4 banana\n0 0\n", None, FormatError),
        ("SGF1 circle 3 4 circle\n" + "1 0 0\n" * 4, None, FormatError),
        ("SGF1 circle 2 2 circle\n1 0\n0 1\n", None, FormatError),
        ("SGF1 circle 2 4 sphere\n" + _CIRCLE_BODY, None, FormatError),
        ("SGF1 circle 2 4 4 circle\n" + _CIRCLE_BODY, None, FormatError),
        ("SGF1 circle 2 4 circle\n" + _CIRCLE_BODY, "axis_lengths: 1,2\n", FormatError),
        ("SGF1 circle 2 4 circle\n" + _CIRCLE_BODY, "axis_lengths: 0\n", FormatError),
        ("SGF1 circle 2 4 circle\n" + _CIRCLE_BODY, "constraint_tol: nan\n", FormatError),
        ("SGF1 circle 2 4 circle\n" + _CIRCLE_BODY,
         "axis_lengths: 3\naxis_lengths: 6.283185307179586\n", FormatError),
        ("SGF1 circle 2 4 circle\n" + _CIRCLE_BODY, "created_by: sobolev-gl\u00fce\n", FormatError),
        ("SGF1 interval 4 2 euclidean\n" + "0 0\n" * 4, None, FormatError),
        ("SGF1 interval 1 2 euclidean\n0\nnan\n", None, FormatError),
        ("SGF1 circle 2 4 circle\n1 0\n5 5\n-1 0\n0 -1\n", "constraint_tol: 0.1\n",
         PreconditionError),
    ],
    ids=[
        "bad-magic", "unknown-kind", "missing-resolution", "non-integer-nu", "unknown-target",
        "circle-target-nu-3", "two-node-circle", "sphere-target-nu-2", "extra-resolution",
        "two-axis-lengths", "zero-axis-length", "nan-constraint-tol", "repeated-manifest-key",
        "non-ascii-manifest", "transposed-body",
        "non-finite-value", "off-target-node",
    ],
)
def test_sgf_rejections_keep_their_exception_type(tmp_path, text, sidecar, error):
    # only the type is pinned: an off-target node is a precondition, not a format, error
    path = str(tmp_path / "bad.sgf")
    with open(path, "w") as fh:
        fh.write(text)
    if sidecar is not None:
        with open(fileio.manifest_path(path), "w", encoding="utf-8") as fh:
            fh.write(sidecar)
    with pytest.raises(error) as info:
        fileio.read_grid_map(path)
    assert type(info.value) is error


def test_wrong_node_count_is_a_format_error(tmp_path):
    path = str(tmp_path / "short.sgf")
    with open(path, "w") as fh:
        fh.write("SGF1 interval 1 4 euclidean\n")
        fh.write("0\n0\n0\n")  # one line short of 4 nodes
    with pytest.raises(FormatError):
        fileio.read_grid_map(path)


_SGF2_HEADER = b"SGF2 interval 1 4 euclidean\n"


@pytest.mark.parametrize(
    "content",
    [
        _SGF2_HEADER + np.zeros(3).tobytes(),
        _SGF2_HEADER + np.zeros(4).tobytes() + b"\n",
        _SGF2_HEADER,
        b"SGF2 square 2 3 6 euclidean\n" + np.zeros(3 * 5 * 2).tobytes(),
        # the SGF1 transposed-body case under the SGF2 magic: a binary body
        # has no rows, so a transposed header shows only through the length
        b"SGF2 interval 4 2 euclidean\n" + b"0 0\n" * 4,
        _SGF2_HEADER + np.array([0.0, np.nan, 0.0, 0.0]).tobytes(),
        _SGF2_HEADER + np.array([0.0, 0.0, 0.0, np.inf]).tobytes(),
        _SGF2_HEADER + np.array([-np.inf, 0.0, 0.0, 0.0]).tobytes(),
    ],
    ids=["one-value-short", "one-trailing-byte", "empty-body", "wrong-node-count",
         "transposed-header", "nan-value", "inf-value", "minus-inf-value"],
)
def test_sgf2_body_of_the_wrong_length_or_not_finite_is_a_format_error(tmp_path, content):
    path = tmp_path / "bad.sgf"
    path.write_bytes(content)
    with pytest.raises(FormatError) as info:
        fileio.read_grid_map(str(path))
    assert type(info.value) is FormatError


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError):
        fileio.read_grid_map(str(tmp_path / "nope.sgf"))


def test_sampled_set_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    path = str(tmp_path / "f.set")
    bits1 = rng.random(33) < 0.5
    fileio.write_sampled_set(path, 1, 33, True, bits1)
    d, res, closed, back = fileio.read_sampled_set(path)
    assert (d, res, closed) == (1, 33, True)
    assert np.array_equal(back, bits1)
    bits2 = rng.random((17, 17)) < 0.5
    fileio.write_sampled_set(path, 2, 17, False, bits2)
    d, res, closed, back = fileio.read_sampled_set(path)
    assert (d, res, closed) == (2, 17, False)
    assert np.array_equal(back, bits2)


def test_sampled_set_rejects_bad_flag_and_ragged_rows(tmp_path):
    path = str(tmp_path / "bad.set")
    with open(path, "w") as fh:
        fh.write("SET1 2 3 sealed\n111\n111\n111\n")
    with pytest.raises(FormatError):
        fileio.read_sampled_set(path)
    with open(path, "w") as fh:
        fh.write("SET1 2 3 open\n111\n11\n111\n")
    with pytest.raises(FormatError):
        fileio.read_sampled_set(path)


def test_sampled_set_and_certificate_bytes(tmp_path):
    path = str(tmp_path / "f.set")
    fileio.write_sampled_set(path, 2, 3, True, np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0]]))
    with open(path, "rb") as fh:
        assert fh.read() == b"SET1 2 3 closed\n100\n011\n000\n"
    fileio.write_sampled_set(path, 1, 4, False, np.array([False, True, True, False]))
    with open(path, "rb") as fh:
        assert fh.read() == b"SET1 1 4 open\n0110\n"
    fileio.write_cone_certificate(path, 0.5, np.array([True, False, True]))
    with open(path, "rb") as fh:
        assert fh.read() == b"CONE1 0.5 3\n101\n"


def test_sampled_set_reader_skips_blank_lines_and_strips_rows(tmp_path):
    path = str(tmp_path / "f.set")
    with open(path, "w") as fh:
        fh.write("SET1 2 3 closed\n\n  010 \n\t101\n\n011\n\n")
    d, res, closed, bits = fileio.read_sampled_set(path)
    assert (d, res, closed) == (2, 3, True)
    assert bits.dtype == bool
    assert bits.tolist() == [[False, True, False], [True, False, True], [False, True, True]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("SET2 2 3 open\n000\n000\n000\n", "not a SET1 header"),
        ("SET1 2 3\n000\n000\n000\n", "not a SET1 header"),
        ("SET1 2 x open\n000\n", "malformed SET1 header"),
        ("SET1 2 3 open\n000\n000\n", "expected 3 rows of 3 bits"),
        ("SET1 1 3 open\n0000\n", "expected one row of 3 bits"),
        ("SET1 1 3 open\n000\n000\n", "expected one row of 3 bits"),
        ("SET1 3 3 open\n000\n", "sampled sets support dimension 1 or 2"),
        ("SET1 2 3 open\n000\n020\n000\n", "indicator rows must be 0/1 characters"),
        ("SET1 1 3 open\n0/1\n", "indicator rows must be 0/1 characters"),
        (b"SET1 2 3 closed\n010\n1\xc30\n000\n", "indicator rows must be 0/1 characters"),
        (b"SET1 2 3 cl\xc3sed\n010\n101\n000\n", "malformed SET1 header"),
        ("SET1 1 1 closed\n1\n", "resolution must be at least 2, got 1"),
        ("SET1 2 0 open\n", "resolution must be at least 2, got 0"),
    ],
)
def test_sampled_set_error_paths(tmp_path, text, message):
    path = str(tmp_path / "bad.set")
    with open(path, "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode("ascii"))
    with pytest.raises(FormatError, match=message):
        fileio.read_sampled_set(path)


def test_manifest_round_trip_and_digest(tmp_path):
    path = str(tmp_path / "out.bin")
    with open(path, "wb") as fh:
        fh.write(b"payload")
    fileio.write_manifest(path, {"a": "1", "b": "two words"})
    assert fileio.read_manifest(path) == {"a": "1", "b": "two words"}
    # a repeated key is refused, not read as its last value, and so are a
    # byte that is not ASCII and a line without a colon; each message
    # names the sidecar
    sidecar = fileio.manifest_path(path)
    with open(sidecar, "a") as fh:
        fh.write("a: 2\n")
    with pytest.raises(FormatError, match=re.escape(f"{sidecar}: manifest key 'a' appears twice")):
        fileio.read_manifest(path)
    with open(sidecar, "wb") as fh:
        fh.write(b"a: 1\nb: caf\xc3\xa9\n")
    with pytest.raises(FormatError, match=re.escape(f"{sidecar}: a manifest is ASCII text")):
        fileio.read_manifest(path)
    with open(sidecar, "w") as fh:
        fh.write("a: 1\nno colon\n")
    with pytest.raises(FormatError, match=re.escape(f"{sidecar}: manifest line without a colon")):
        fileio.read_manifest(path)
    # sha256 of b"payload"
    assert fileio.sha256_of(path) == (
        "239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e5"
    )


def test_format_real_round_trips_doubles():
    xs = [np.pi, 1.0 / 3.0, 6.02e23, 5e-324, -0.0]
    for x in xs:
        assert float(fileio.format_real(x)) == x


def test_reading_a_map_holds_its_body_once(tmp_path):
    # the reader hands its frozen array to the map, which adopts it; a
    # copy would double the peak
    domain = dom.torus_collar(64, 64, 16)
    m = _random_map(np.random.default_rng(1), domain, nu=3)
    path = str(tmp_path / "big.sgf")
    fileio.write_grid_map(path, m)
    body = m.values.nbytes
    tracemalloc.start()
    try:
        back = fileio.read_grid_map(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * body
    assert back.values.tobytes() == m.values.tobytes()
    assert not back.values.flags.writeable
