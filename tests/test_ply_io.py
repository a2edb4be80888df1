import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcolor.core import ColorPointCloud
from cloudcolor.errors import InvalidInput, MissingColor, ParseError
from cloudcolor.ply_io import PlyFormat, read_ply, write_ply

from conftest import random_cloud


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
], ids=["no-newline-after-end_header", "no-count", "count-abc", "no-vertex", "element-before-vertex", "no-z"])
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
