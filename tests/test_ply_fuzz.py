"""Fuzz tests of the PLY reader: whatever the bytes, `read_ply` returns a
checked cloud or raises a `CloudColorError`, never another exception."""
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cloudcolor.core import ColorPointCloud
from cloudcolor.errors import CloudColorError, ParseError
from cloudcolor.ply_io import _SCALAR_TYPES, _parse_header, _read_ascii_columns, read_ply

from oracles import read_ascii_columns_oracle

SCALAR_TYPES = sorted(_SCALAR_TYPES)
FLOATS, UCHARS = ["float", "float32", "double", "float64"], ["uchar", "uint8"]
# the types this reader accepts for each property it uses; "extra" is unused
EXPECTED_TYPES = {"x": FLOATS, "y": FLOATS, "z": FLOATS, "red": UCHARS, "green": UCHARS,
                  "blue": UCHARS, "original": UCHARS, "extra": SCALAR_TYPES}
# tokens where numpy's C reader and float()/int() could part: spellings of one
# value, "7.0" in an integer column, a NUL, int64's maximum + 1
TOKENS = ["0", "1", "-1", "255", "256", "0.5", "nan", "-inf", "inf", "1e39", "1e308", "1e400", "1_0",
          "99999999999999999999", "0x1", "", "+7", "-0", "007", "1e-320", "\xff", "\x00", "7.0", "Infinity",
          "+nan", "-0.0", "9223372036854775808"]
# whitespace to str.split(), where numpy reads a "\r" as a line break
SEPARATORS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1f"]

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def read_or_domain_error(data: bytes) -> None:
    try:
        cloud = read_ply(data)
    except CloudColorError:
        return
    assert isinstance(cloud, ColorPointCloud)
    n = len(cloud)
    assert cloud.positions.shape == (n, 3) and np.isfinite(cloud.positions).all()
    assert cloud.colors.shape == (n, 3) and cloud.colors.dtype == np.uint8
    assert not (cloud.original & ~cloud.colored).any()


@FUZZ
@given(data=st.binary(max_size=400))
def test_arbitrary_bytes(data):
    read_or_domain_error(data)


@FUZZ
@given(body=st.binary(max_size=300))
def test_arbitrary_bytes_between_magic_and_end_header(body):
    read_or_domain_error(b"ply\n" + body + b"\nend_header\n")


@st.composite
def ply_files(draw):
    """A well-formed header with random property types and vertex count,
    then a random body: raw bytes, or for ASCII also rows of tricky tokens."""
    binary = draw(st.booleans())
    names = ["x", "y", "z"] + draw(st.sampled_from([[], ["red", "green", "blue"]]))
    names += draw(st.lists(st.sampled_from(sorted(EXPECTED_TYPES)), max_size=3))
    names = draw(st.permutations(names))
    # one property in ten gets any type, float or int `original` included
    types = [draw(st.sampled_from(EXPECTED_TYPES[n] if draw(st.integers(0, 9)) else SCALAR_TYPES)) for n in names]
    count = draw(st.integers(0, 6) | st.integers(-2, 10**20))
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0", f"element vertex {count}"]
    header += [f"property {t} {n}" for t, n in zip(types, names)]
    head = ("\n".join(header) + "\nend_header\n").encode()

    if binary:
        needed = struct.calcsize("<" + "".join(_SCALAR_TYPES[t] for t in types)) * max(0, min(count, 6))
        size = draw(st.just(needed) | st.integers(0, needed + 8))
        return head + draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        return head + draw(st.binary(max_size=200))
    token = st.sampled_from(TOKENS) | st.integers(-300, 300).map(str)
    rows = draw(st.lists(st.lists(token, min_size=len(names) - 1, max_size=len(names) + 1), max_size=8))
    return head + "".join(" ".join(row) + "\n" for row in rows).encode("utf-8")


@FUZZ
@given(data=ply_files())
# a signalling float32 NaN as x, widened next to a double z
@example(data=b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
              b"property double z\nend_header\n\x00\x00\x81\x7f" + bytes(12))
def test_random_header_types_count_and_body(data):
    read_or_domain_error(data)


def vertex_rows(types):
    """ASCII vertex rows for properties of `types`: mostly a value that fits
    each type, one in twenty a tricky token, and one row in ten of any width."""
    def value(ptype):
        limits = np.iinfo(_SCALAR_TYPES[ptype]) if ptype not in FLOATS else None
        fits = st.floats(width=32).map(repr) if limits is None else st.integers(int(limits.min), int(limits.max)).map(str)
        return st.integers(0, 19).flatmap(lambda k: fits if k else st.sampled_from(TOKENS))

    any_width = st.lists(st.sampled_from(TOKENS) | st.integers(-300, 300).map(str), max_size=len(types) + 1)
    return st.integers(0, 9).flatmap(lambda k: st.tuples(*map(value, types)).map(list) if k else any_width)


def columns_or_error(read, data):
    """The columns that `read` finds in the ASCII file `data`, by name with
    their dtypes and bytes, or its ParseError's message."""
    _, [vertex, *_], body_start = _parse_header(data)
    try:
        columns = read(data, body_start, vertex, list(dict.fromkeys(name for name, _ in vertex.properties)))
    except ParseError as error:
        return str(error)
    return {name: (column.dtype, column.tobytes()) for name, column in columns.items()}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ascii_columns_match_the_row_by_row_oracle(data):
    names = data.draw(st.lists(st.sampled_from(sorted(EXPECTED_TYPES)), min_size=1, max_size=4))
    types = [data.draw(st.sampled_from(SCALAR_TYPES)) for _ in names]
    rows = data.draw(st.lists(vertex_rows(types), max_size=10))
    separators = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(rows), max_size=len(rows)))
    count = data.draw(st.sampled_from([len(rows)] * 4 + [max(0, len(rows) - 1), len(rows) + 1]))
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\n \n"]))
    header = ["ply", "format ascii 1.0", f"element vertex {count}", *(f"property {t} {n}" for t, n in zip(types, names))]
    body = "".join(separator.join(row) + newline for separator, row in zip(separators, rows))
    ply = ("\n".join(header) + "\nend_header\n" + body).encode("utf-8")
    assert columns_or_error(_read_ascii_columns, ply) == columns_or_error(read_ascii_columns_oracle, ply)
