import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcolor.core import ColorPoint, ColorPointCloud, Role
from cloudcolor.errors import MissingColor, ParseError
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
    p = cloud.points[0]
    assert p.coords == (0.0, 0.0, 0.0)
    assert p.color == (255, 0, 0)
    assert p.role is Role.ORIGINAL


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
    assert all(p.role is Role.RECONSTRUCT and p.color is None for p in cloud.points)


def test_crlf_header_accepted():
    cloud = read_ply(ASCII_ONE_RED.replace(b"\n", b"\r\n"))
    assert cloud.points[0].color == (255, 0, 0)


def test_unknown_extra_property_skipped():
    data = (
        b"ply\nformat ascii 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property float confidence\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
        b"1 2 3 0.5 7 8 9\n"
    )
    # properties are positional: confidence sits between z and red
    p = read_ply(data).points[0]
    assert p.coords == (1.0, 2.0, 3.0)
    assert p.color == (7, 8, 9)


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


def test_missing_magic():
    with pytest.raises(ParseError):
        read_ply(b"not a ply file")


def test_write_ascii_row_format():
    cloud = ColorPointCloud([ColorPoint(1, 2, 3, color=(4, 5, 6))])
    data = write_ply(cloud, PlyFormat.ASCII)
    assert data.endswith(b"end_header\n1 2 3 4 5 6\n")


def test_write_refuses_uncolored_by_default():
    cloud = ColorPointCloud([ColorPoint(0, 0, 0, color=None, role=Role.RECONSTRUCT)])
    with pytest.raises(MissingColor):
        write_ply(cloud, PlyFormat.ASCII)
    # positions-only output is an explicit opt-in
    data = write_ply(cloud, PlyFormat.ASCII, allow_uncolored=True)
    assert b"property uchar red" not in data


def test_binary_roundtrip_preserves_cloud():
    cloud = random_cloud(25, seed=7)
    back = read_ply(write_ply(cloud, PlyFormat.BINARY_LITTLE_ENDIAN))
    assert [p.coords for p in back.points] == [p.coords for p in cloud.points]
    assert [p.color for p in back.points] == [p.color for p in cloud.points]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 10_000))
def test_write_read_write_fixpoint(n, seed):
    cloud = random_cloud(n, seed)
    for fmt in PlyFormat:
        first = write_ply(cloud, fmt)
        second = write_ply(read_ply(first), fmt)
        assert first == second


def test_role_flag_roundtrip_for_mixed_clouds():
    cloud = ColorPointCloud([
        ColorPoint(0, 0, 0, color=(10, 20, 30)),
        ColorPoint(1, 1, 1, color=None, role=Role.RECONSTRUCT),
    ])
    for fmt in PlyFormat:
        back = read_ply(write_ply(cloud, fmt, include_roles=True))
        assert back.points[0].role is Role.ORIGINAL
        assert back.points[0].color == (10, 20, 30)
        assert back.points[1].role is Role.RECONSTRUCT
        assert back.points[1].color is None
