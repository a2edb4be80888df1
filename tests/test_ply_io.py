import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudcolor import ply_io
from cloudcolor.core import ColorPointCloud
from cloudcolor.errors import InvalidInput, MissingColor, ParseError
from cloudcolor.ply_io import PlyFormat, read_ply, write_ply

from conftest import random_cloud
from oracles import ascii_body_oracle, read_ascii_columns_oracle


ASCII_ONE_RED = b"""ply
format ascii 1.0
element vertex 1
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0 0 0 255 0 0
"""


def test_ascii_single_colored_vertex():
    cloud = read_ply(ASCII_ONE_RED)
    assert len(cloud) == 1
    assert cloud.positions.tolist() == [[0.0, 0.0, 0.0]]
    assert cloud.colors.tolist() == [[255, 0, 0]]
    assert cloud.original.tolist() == [True]
    assert cloud.colored.tolist() == [True]


def test_truncated_ascii_body():
    data = ASCII_ONE_RED.replace(b"element vertex 1", b"element vertex 2")
    with pytest.raises(ParseError, match="truncated"):
        read_ply(data)


def test_truncated_binary_body():
    cloud = random_cloud(3, seed=0)
    data = write_ply(cloud, PlyFormat.BINARY_LITTLE_ENDIAN)
    with pytest.raises(ParseError, match="truncated"):
        read_ply(data[:-4])


def test_colorless_header_yields_reconstruct_roles():
    data = (
        b"ply\nformat ascii 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
        b"1 2 3\n4 5 6\n"
    )
    cloud = read_ply(data)
    assert not cloud.original.any() and not cloud.colored.any()


def test_crlf_header_accepted():
    cloud = read_ply(ASCII_ONE_RED.replace(b"\n", b"\r\n"))
    assert cloud.colors.tolist() == [[255, 0, 0]]


@pytest.mark.parametrize("line", [b"comment written before end_header was parsed", b"obj_info end_header"])
@pytest.mark.parametrize("fmt", PlyFormat)
def test_header_line_that_holds_end_header(line, fmt):
    # the header ends at the first line that reads exactly end_header
    plain = write_ply(random_cloud(5, seed=3), fmt, include_roles=True)
    data = plain.replace(b"\nelement", b"\n" + line + b"\nelement", 1)
    assert data != plain
    back, expected = read_ply(data), read_ply(plain)
    for field in ("positions", "colors", "original", "colored"):
        assert getattr(back, field).tolist() == getattr(expected, field).tolist()


def test_unknown_extra_property_skipped():
    data = (
        b"ply\nformat ascii 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property float confidence\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
        b"1 2 3 0.5 7 8 9\n"
    )
    # properties are positional: confidence sits between z and red
    cloud = read_ply(data)
    assert cloud.positions.tolist() == [[1.0, 2.0, 3.0]]
    assert cloud.colors.tolist() == [[7, 8, 9]]


def mesh(data: bytes, face: bytes) -> bytes:
    """`data`, a one-vertex PLY, with a face element after its vertices."""
    head, body = data.split(b"end_header\n")
    return head + b"element face 1\nproperty list uchar int vertex_indices\nend_header\n" + body + face


@pytest.mark.parametrize("fmt, face", [
    (PlyFormat.ASCII, b"3 0 0 0\n"),
    (PlyFormat.BINARY_LITTLE_ENDIAN, struct.pack("<B3i", 3, 0, 0, 0)),
])
def test_a_mesh_reads_its_vertices(fmt, face):
    data = write_ply(ColorPointCloud([(1.5, 2, 3)], [(7, 8, 9)]), fmt)
    cloud, expected = read_ply(mesh(data, face)), read_ply(data)
    for field in ("positions", "colors", "original", "colored"):
        assert getattr(cloud, field).tolist() == getattr(expected, field).tolist()


@pytest.mark.parametrize("line, message", [
    (b"property list uchar int vertex_indices", "vertex element cannot hold a list"),
    (b"element face 1\nproperty list uchar vertex_indices", "malformed property line"),
    (b"element face 1\nproperty list uchar int vertex_indices extra", "malformed property line"),
    (b"element face 1\nproperty list uchar integer vertex_indices", "unknown property type 'integer'"),
    (b"element face 1\nproperty list count int vertex_indices", "unknown property type 'count'"),
])
def test_a_list_property_must_be_well_formed_and_off_the_vertex(line, message):
    with pytest.raises(ParseError, match=message):
        read_ply(ASCII_ONE_RED.replace(b"end_header", line + b"\nend_header"))


def test_bad_color_type_rejected():
    data = ASCII_ONE_RED.replace(b"property uchar red", b"property float red")
    with pytest.raises(ParseError, match="red"):
        read_ply(data)


@pytest.mark.parametrize("old, new, binary", [
    (b"element vertex 1", b"element vert\xffex 1", False),
    (b"property uchar blue\n", b"property uchar blue\nproperty\n", False),
    (b"blue\nend_header\n0 0 0 255 0 0\n", b"blue\nproperty bogus w\nend_header\n0 0 0 255 0 0 7\n", False),
    (b"property uchar blue\n", b"property uchar blue\nproperty bogus w\n", True),
    (b"element vertex 1", b"element vertex -3", False),
], ids=["non-utf8-name", "bare-property", "unknown-type-ascii", "unknown-type-binary", "negative-count"])
def test_malformed_header_is_parse_error(old, new, binary):
    data = ASCII_ONE_RED
    if binary:
        data = data.replace(b"format ascii 1.0", b"format binary_little_endian 1.0")
        data = data[:data.index(b"end_header\n") + 11] + bytes(16)
    data = data.replace(old, new)
    assert new in data
    with pytest.raises(ParseError):
        read_ply(data)


@pytest.mark.parametrize("old, new, message", [
    (b"end_header\n0 0 0 255 0 0\n", b"end_header", "header not terminated by a newline"),
    (b"element vertex 1", b"element vertex", "malformed element line"),
    (b"element vertex 1", b"element vertex abc", "non-integer element count"),
    (b"element vertex 1", b"element face 1", "no vertex element declared"),
    (b"element vertex 1", b"element face 0\nelement vertex 1", "elements preceding 'vertex' are not supported"),
    (b"property float z\n", b"", "vertex element lacks property 'z'"),
    (b"format ascii 1.0", b"format binary_big_endian 1.0", "unsupported format line 'format binary_big_endian 1.0'"),
    (b"format ascii 1.0", b"format ascii 2.0", "unsupported format line 'format ascii 2.0'"),
], ids=["no-newline-after-end_header", "no-count", "count-abc", "no-vertex", "element-before-vertex", "no-z",
        "big-endian", "ascii-2.0"])
def test_header_error_names_the_problem(old, new, message):
    data = ASCII_ONE_RED.replace(old, new)
    assert data != ASCII_ONE_RED
    with pytest.raises(ParseError, match=rf"^{message} \(at byte \d+\)$"):
        read_ply(data)


ASCII_MIXED = b"""ply
format ascii 1.0
element vertex 2
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
property uchar original
end_header
0 0 0 10 20 30 1
1 1 1 0 0 0 {flag}
"""


@pytest.mark.parametrize("ptype", [b"float", b"double", b"int", b"char", b"ushort"])
@pytest.mark.parametrize("flag", [b"nan", b"inf", b"0.5", b"0"])
def test_role_flag_must_be_uchar_ascii(ptype, flag):
    data = ASCII_MIXED.replace(b"{flag}", flag).replace(b"uchar original", b"%s original" % ptype)
    with pytest.raises(ParseError, match="original"):
        read_ply(data)


@pytest.mark.parametrize("ptype, code", [(b"float", "<f"), (b"double", "<d"), (b"int", "<i"), (b"char", "<b")])
def test_role_flag_must_be_uchar_binary(ptype, code):
    head = ASCII_MIXED[:ASCII_MIXED.index(b"end_header\n") + 11]
    head = head.replace(b"format ascii", b"format binary_little_endian").replace(b"uchar original", b"%s original" % ptype)
    body = b"".join(struct.pack("<fff3B", x, x, x, 10, 20, 30) + struct.pack(code, flag) for x, flag in [(0, 1), (1, 0)])
    with pytest.raises(ParseError, match="original"):
        read_ply(head + body)


@pytest.mark.parametrize("value", [b"1e39", b"-1e39", b"3.5e38"])
def test_ascii_float_beyond_float32_range(value):
    data = ASCII_ONE_RED.replace(b"0 0 0 255", b"0 %s 0 255" % value)
    with pytest.raises(ParseError, match="float32"):
        read_ply(data)
    # a double property holds it
    assert len(read_ply(data.replace(b"float y", b"double y"))) == 1


@pytest.mark.parametrize("prop, value, kind", [
    (b"property uchar alpha", b"300", b"uchar"),
    (b"property uchar alpha", b"-1", b"uchar"),
    (b"property char w", b"-1000", b"char"),
    (b"property ushort w", b"65536", b"ushort"),
    (b"property int w", b"2147483648", b"int"),
    (b"property float w", b"1e39", b"float32"),
    (b"property uchar red", b"256", b"uchar"),  # the first of two red columns
])
def test_ascii_unused_value_outside_its_type(prop, value, kind):
    data = ASCII_ONE_RED.replace(b"property uchar red", prop + b"\nproperty uchar red").replace(b"0 0 0 255", b"0 0 0 %s 255" % value)
    with pytest.raises(ParseError, match=kind.decode()):
        read_ply(data)
    # a value at the edge of its type reads
    fits = {b"uchar": b"255", b"char": b"-128", b"ushort": b"65535", b"int": b"2147483647", b"float32": b"3.4e38"}[kind]
    assert read_ply(data.replace(b"0 0 0 %s 255" % value, b"0 0 0 %s 255" % fits)).colors.tolist() == [[255, 0, 0]]


@pytest.mark.parametrize("row", [b"1_0 0 0 255 0 0", b"0 0 0 25_5 0 0"])
def test_ascii_vertex_row_with_underscore(row):
    # float() and int() read "1_0" as 10 and "25_5" as 255; a C reader stops at the "_"
    with pytest.raises(ParseError, match="bad value in vertex row 0"):
        read_ply(ASCII_ONE_RED.replace(b"0 0 0 255 0 0", row))


@pytest.mark.parametrize("row, count", [
    (b"0 0 0 255 0 0 99 abc", 8), (b"0 0 0 255 0 0 7", 7), (b"0 0 0 255 0 0 extra_token", 7), (b"0 0 0 255 0", 5),
])
def test_ascii_vertex_row_holds_exactly_the_declared_values(row, count):
    with pytest.raises(ParseError, match=f"vertex row 0 has {count} values where the header declares 6"):
        read_ply(ASCII_ONE_RED.replace(b"0 0 0 255 0 0", row))


def test_underscore_outside_the_vertex_rows_reads():
    # end_header holds one, and the rows of a later element are not read
    head = b"comment made_by_hand\nelement note 1\nproperty int n\nend_header"
    assert read_ply(ASCII_ONE_RED.replace(b"end_header", head) + b"1_0\n").colors.tolist() == [[255, 0, 0]]


def test_missing_magic():
    with pytest.raises(ParseError):
        read_ply(b"not a ply file")


def test_write_ascii_row_format():
    cloud = ColorPointCloud([(1, 2, 3)], [(4, 5, 6)])
    data = write_ply(cloud, PlyFormat.ASCII)
    assert data.endswith(b"end_header\n1 2 3 4 5 6\n")


def test_write_refuses_uncolored_by_default():
    cloud = ColorPointCloud([(0, 0, 0)], original=[False])
    with pytest.raises(MissingColor):
        write_ply(cloud, PlyFormat.ASCII)


@pytest.mark.parametrize("fmt", PlyFormat)
@pytest.mark.parametrize("x", [1e39, -3.5e38])
def test_write_refuses_a_coordinate_beyond_float32(fmt, x):
    # both formats write positions under `property float`
    cloud = ColorPointCloud([(0, 0, 0), (x, 0, 0)], [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(InvalidInput, match="point 1 has a coordinate beyond float32 range"):
        write_ply(cloud, fmt)
    assert len(read_ply(write_ply(ColorPointCloud([(3.4e38, 0, 0)], [(1, 2, 3)]), fmt))) == 1  # in range, it reads back


def test_binary_roundtrip_preserves_cloud():
    cloud = random_cloud(25, seed=7)
    back = read_ply(write_ply(cloud, PlyFormat.BINARY_LITTLE_ENDIAN))
    assert back.positions.tolist() == cloud.positions.tolist()
    assert back.colors.tolist() == cloud.colors.tolist()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 10_000))
def test_write_read_write_fixpoint(n, seed):
    cloud = random_cloud(n, seed)
    for fmt in PlyFormat:
        first = write_ply(cloud, fmt)
        second = write_ply(read_ply(first), fmt)
        assert first == second


def test_role_flag_roundtrip_for_mixed_clouds():
    cloud = ColorPointCloud([(0, 0, 0), (1, 1, 1)], [(10, 20, 30), (0, 0, 0)], original=[True, False], colored=[True, False])
    for fmt in PlyFormat:
        back = read_ply(write_ply(cloud, fmt, include_roles=True))
        assert back.original.tolist() == [True, False]
        assert back.colors[0].tolist() == [10, 20, 30]
        assert back.colored.tolist() == [True, False]


@pytest.mark.parametrize("fmt", PlyFormat)
def test_a_bytearray_reads_as_its_bytes(fmt):
    data = write_ply(read_ply(ASCII_MIXED.replace(b"{flag}", b"0")), fmt, include_roles=True)
    assert write_ply(read_ply(bytearray(data)), fmt, include_roles=True) == data


# integral floats, signed zero, a float that repr writes with an exponent, the least subnormal
SPECIAL_FLOATS = [0.0, -0.0, 1.0, -7.0, 0.1, 1e16, -1e16, 5e-324, 123456789.0, 3.4e38, 1.5e-7]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    positions=st.lists(st.tuples(*[st.sampled_from(SPECIAL_FLOATS) | st.floats(-3e38, 3e38)] * 3), min_size=1, max_size=12),
    data=st.data(),
)
def test_ascii_body_matches_the_row_by_row_oracle(positions, data, ascii_chunks):
    # at 1 or 7 rows a chunk, most clouds span several chunks, and so several processes
    n = len(positions)
    colors = data.draw(st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=n, max_size=n))
    original = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cloud = ColorPointCloud(positions, colors, original=original)
    for include_roles in (False, True):
        written = write_ply(cloud, PlyFormat.ASCII, include_roles=include_roles)
        head, body = written.split(b"end_header\n")
        assert body == ascii_body_oracle(cloud, include_roles)
        back, kept = read_ply(written), np.array(original) | (not include_roles)  # the points read back as originals
        assert back.positions.tobytes() == cloud.positions.tobytes()
        assert back.original.tolist() == back.colored.tolist() == kept.tolist()
        assert back.colors[kept].tobytes() == cloud.colors[kept].tobytes()


def rows_of(count):
    return b"".join(b"%d 0 0 1 2 3\n" % i for i in range(count))


@pytest.mark.parametrize("row, message", [
    (b"0 0 0 25x 0 0", "bad value in vertex row 4100: invalid literal for int() with base 10: '25x'"),
    (b"0 0 0 255 0", "vertex row 4100 has 5 values where the header declares 6"),
    (b"0 0 0 1_0 0 0", "bad value in vertex row 4100: a number cannot hold '_'"),
])
def test_a_bad_row_past_the_first_chunk_is_named(row, message):
    body = rows_of(5000).split(b"\n")
    body[4100] = row
    data = ASCII_ONE_RED.replace(b"element vertex 1", b"element vertex 5000").replace(b"0 0 0 255 0 0\n", b"\n".join(body))
    with pytest.raises(ParseError) as error:
        read_ply(data)
    assert str(error.value).startswith(message)
    assert len(read_ply(data.replace(row, b"0 0 0 255 0 0"))) == 5000


def forty_rows_with(changes):
    """An ASCII file of 40 vertex rows under six properties, with the rows
    of `changes` replaced: at 7 rows a chunk its chunks start at rows 0, 6,
    13, 20, 26 and 33, and at 2 or 3 processes they fall in every share."""
    body = rows_of(40).split(b"\n")
    for i, row in changes.items():
        body[i] = row
    return ASCII_ONE_RED.replace(b"element vertex 1", b"element vertex 40").replace(b"0 0 0 255 0 0\n", b"\n".join(body))


def oracle_error(data):
    _, [vertex], body_start = ply_io._parse_header(data)
    with pytest.raises(ParseError) as error:
        read_ascii_columns_oracle(data, body_start, vertex, ["x", "y", "z", "red", "green", "blue"])
    return str(error.value)


@pytest.mark.parametrize("changes", [
    {8: b"0 0 0 25x 0 0", 21: b"0 0 0 255 0", 35: b"0 0 0 1_0 0 0"},
    {15: b"0 0 0 255 0", 22: b"0 0 0 1_0 0 0"},
    {30: b"0 0 0 1_0 0 0", 39: b"0 0 0 25x 0 0"},
    {6: b"1 2", 5: b"0 0 0 1 2 3 4"},
])
def test_bad_rows_in_chunks_of_different_shares_name_the_first(changes, ascii_chunks):
    data = forty_rows_with(changes)
    with pytest.raises(ParseError) as error:
        read_ply(data)
    assert str(error.value) == oracle_error(data)
    assert re.search(rf"vertex row {min(changes)}\b", str(error.value))


@pytest.mark.parametrize("changes, named", [
    ({2: b"0 0 0 300 0 0", 30: b"0 0 0 25x 0 0"}, "bad value in vertex row 30"),  # a bad row before any range
    ({30: b"1e39 0 0 1 2 3", 3: b"0 0 0 1 2 256"}, "property 'x' is beyond float32 range"),  # then in property order
    ({35: b"0 0 0 1 999 3", 5: b"0 0 0 1 2 -1", 12: b"0 0 0 1 2 3e0"}, "bad value in vertex row 12"),
    ({35: b"0 0 0 1 999 3", 5: b"0 0 0 1 2 -1"}, "property 'green' is outside the uchar range"),
])
def test_range_and_row_errors_come_in_the_oracles_order(changes, named, ascii_chunks):
    data = forty_rows_with(changes)
    with pytest.raises(ParseError) as error:
        read_ply(data)
    assert str(error.value) == oracle_error(data)
    assert named in str(error.value)


@pytest.mark.parametrize("rows", [0, 1, 7, 4095, 4096, 4097, 5000, 9000, 50_000])
def test_chunks_are_equal_to_a_row_and_at_most_the_chunk_rows(rows):
    chunks = ply_io._chunks(rows)
    assert [row for start, stop in chunks for row in range(start, stop)] == list(range(rows))
    sizes = {stop - start for start, stop in chunks}
    assert len(chunks) == -(-rows // ply_io._ASCII_CHUNK_ROWS) and max(sizes, default=0) - min(sizes, default=0) <= 1
    assert max(sizes, default=0) <= ply_io._ASCII_CHUNK_ROWS
    if rows == 5000:
        assert chunks == [(0, 2500), (2500, 5000)]
