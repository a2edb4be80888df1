"""PLY reader/writer for colored point clouds (ASCII and binary little-endian).

Only the vertex element is honored; faces and other elements are ignored.
Vertices carry x/y/z floats and optionally red/green/blue uchar channels.
A file whose header declares color properties yields Original points, one
without yields Reconstruct points.  Mixed clouds are encoded through an
optional `uchar original` role-flag property written by this tool.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ColorPointCloud, as_bool, as_instance
from .errors import InvalidConfig, InvalidInput, MissingColor, ParseError
from .parallel import map_on_cores


class PlyFormat(Enum):
    ASCII = "ascii"
    BINARY_LITTLE_ENDIAN = "binary_little_endian"


# struct codes, which numpy reads the same way after a "<"
_SCALAR_TYPES = {
    "char": "b", "int8": "b",
    "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h",
    "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i",
    "uint": "I", "uint32": "I",
    "float": "f", "float32": "f",
    "double": "d", "float64": "d",
}
_FLOAT_TYPES = {"float", "float32", "double", "float64"}
_UCHAR_TYPES = {"uchar", "uint8"}
_CHANNELS = ("red", "green", "blue")
_ASCII_CHUNK_ROWS = 4096
_UCHAR_TEXT = tuple(map(str, range(256)))  # a uchar value's text, looked up in place of str


@dataclass
class _Element:
    name: str
    count: int
    properties: list[tuple[str, str]]  # (name, ply type), a list's item type


def _decode_name(token: bytes, offset: int) -> str:
    try:
        return token.decode()
    except UnicodeDecodeError:
        raise ParseError(f"header name {token!r} is not UTF-8", offset) from None


def _parse_header(data: bytes) -> tuple[PlyFormat, list[_Element], int]:
    """The format, the elements and the body offset.  The header ends at its
    first line that reads exactly `end_header`: a comment may hold the word."""
    if not data.startswith(b"ply"):
        raise ParseError("not a PLY file (missing 'ply' magic or 'end_header')", 0)
    fmt = None
    elements: list[_Element] = []
    offset = 0
    while True:
        nl = data.find(b"\n", offset)
        line = data[offset:len(data) if nl < 0 else nl].rstrip()
        if line == b"end_header":
            if nl < 0:
                raise ParseError("header not terminated by a newline", offset)
            break
        if nl < 0:
            raise ParseError("not a PLY file (missing 'ply' magic or 'end_header')", 0)
        tokens = line.split()
        if not tokens or tokens[0] in (b"ply", b"comment", b"obj_info"):
            pass
        elif tokens[0] == b"format":
            if tokens[1:] == [b"ascii", b"1.0"]:
                fmt = PlyFormat.ASCII
            elif tokens[1:] == [b"binary_little_endian", b"1.0"]:
                fmt = PlyFormat.BINARY_LITTLE_ENDIAN
            else:
                raise ParseError(f"unsupported format line {line.decode(errors='replace')!r}", offset)
        elif tokens[0] == b"element":
            if len(tokens) != 3:
                raise ParseError("malformed element line", offset)
            try:
                if b"_" in tokens[2]:  # int() reads "1_0" as 10, where a C reader stops at the "_"
                    raise ValueError
                count = int(tokens[2])
            except ValueError:
                raise ParseError("non-integer element count", offset) from None
            if count < 0:
                raise ParseError("negative element count", offset)
            elements.append(_Element(_decode_name(tokens[1], offset), count, []))
        elif tokens[0] == b"property":
            if not elements:
                raise ParseError("property line before any element", offset)
            is_list = tokens[1:2] == [b"list"]  # `list <count type> <item type>`, as a mesh's faces hold
            if is_list and elements[-1].name == "vertex":
                raise ParseError("the vertex element cannot hold a list property", offset)
            if len(tokens) != 3 + 2 * is_list:
                raise ParseError("malformed property line", offset)
            for ptype in (_decode_name(token, offset) for token in tokens[1 + is_list:-1]):
                if ptype not in _SCALAR_TYPES:
                    raise ParseError(f"unknown property type {ptype!r}", offset)
            elements[-1].properties.append((_decode_name(tokens[-1], offset), ptype))
        else:
            raise ParseError(f"unknown header keyword {tokens[0].decode(errors='replace')!r}", offset)
        offset = nl + 1
    if fmt is None:
        raise ParseError("header lacks a format line", 0)
    return fmt, elements, nl + 1


def read_ply(data: bytes) -> ColorPointCloud:
    if not isinstance(data, (bytes, bytearray)):  # the class alone: a file's text would fill the message
        raise InvalidConfig(f"data must be bytes or a bytearray, got {type(data).__name__}")
    data = bytes(data)
    fmt, elements, body_start = _parse_header(data)

    vertex = next((e for e in elements if e.name == "vertex"), None)
    if vertex is None:
        raise ParseError("no vertex element declared", 0)
    if elements[0].name != "vertex":
        raise ParseError("elements preceding 'vertex' are not supported", 0)

    types = dict(vertex.properties)  # a repeated name reads its last column
    required = dict.fromkeys("xyz", _FLOAT_TYPES)
    has_color = all(c in types for c in _CHANNELS)
    if has_color:
        required.update(dict.fromkeys(_CHANNELS, _UCHAR_TYPES))
    if "original" in types:
        required["original"] = _UCHAR_TYPES  # the type write_ply gives it
    for name, allowed in required.items():
        if name not in types:
            raise ParseError(f"vertex element lacks property {name!r}", 0)
        if types[name] not in allowed:
            kind = "a float type" if allowed is _FLOAT_TYPES else "an 8-bit unsigned type"
            raise ParseError(f"property {name!r} must be {kind}", 0)

    read_columns = _read_ascii_columns if fmt is PlyFormat.ASCII else _read_binary_columns
    columns = read_columns(data, body_start, vertex, list(required))
    # a signalling float32 NaN warns when widened; ColorPointCloud rejects it as non-finite
    with np.errstate(invalid="ignore"):
        positions = np.column_stack([columns[axis].astype(np.float64) for axis in "xyz"])
    colors = np.column_stack([columns[c] for c in _CHANNELS]) if has_color else None
    original = np.full(len(positions), has_color)
    if "original" in columns:
        original &= columns["original"] != 0
    return ColorPointCloud(positions, colors, original=original, colored=original)


def _read_ascii_columns(data: bytes, body_start: int, vertex: _Element, used: list[str]) -> dict[str, np.ndarray]:
    # a "\r" inside a line separates tokens to str.split(), but ends the line to numpy
    text = data[body_start:].decode("ascii", errors="replace").replace("\r", " ")
    lines = list(filter(str.strip, text.split("\n")))
    if len(lines) < vertex.count:
        raise ParseError(f"truncated body: expected {vertex.count} vertex rows, found {len(lines)}", len(data))
    lines, types = lines[:vertex.count], [ptype for _, ptype in vertex.properties]
    record = [(f"f{c}", np.float64 if ptype in _FLOAT_TYPES else np.int64) for c, ptype in enumerate(types)]
    try:  # numpy's C reader reads a token as float() or int() does, or refuses it; an older
        # numpy reads "7.0" as an int with a warning, and an empty body warns too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = np.loadtxt(lines, dtype=record, comments=None, ndmin=1, unpack=True)
    except (ValueError, Warning):  # a bad row, "1_0", an integer beyond int64, or no row at all
        columns = _read_ascii_rows(lines, types, body_start)
    # every value must fit its declared type, used or not, as it does in a
    # binary file; columns go by position, so a repeated name reads its last
    found = {}
    for (name, ptype), column in zip(vertex.properties, columns):
        if ptype in _FLOAT_TYPES:
            with np.errstate(over="ignore"):
                outside = ptype in ("float", "float32") and (np.isinf(column.astype(np.float32)) & np.isfinite(column)).any()
        else:
            limits = np.iinfo(_SCALAR_TYPES[ptype])
            outside = column.size and not limits.min <= column.min() <= column.max() <= limits.max
        if outside:
            kind = "beyond float32 range" if ptype in _FLOAT_TYPES else f"outside the {ptype} range"
            raise ParseError(f"a value of property {name!r} is {kind}", body_start)
        found[name] = column if ptype in _FLOAT_TYPES else column.astype(_SCALAR_TYPES[ptype])
    return {name: found[name] for name in used}


def _read_ascii_rows(lines: list[str], types: list[str], body_start: int) -> list[np.ndarray]:
    """The columns of `lines` token by token, integers as Python ints in
    object arrays, or the ParseError of the first bad row."""
    rows = []
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != len(types):
            raise ParseError(f"vertex row {i} has {len(tokens)} values where the header declares {len(types)}", body_start)
        try:
            if "_" in line:  # float() and int() read "1_0" as 10, where a C reader stops at the "_"
                raise ValueError("a number cannot hold '_'")
            rows.append([float(token) if ptype in _FLOAT_TYPES else int(token) for ptype, token in zip(types, tokens)])
        except ValueError as exc:
            raise ParseError(f"bad value in vertex row {i}: {exc}", body_start) from None
    columns = list(zip(*rows)) or [()] * len(types)
    return [np.array(column, dtype=np.float64 if ptype in _FLOAT_TYPES else object) for ptype, column in zip(types, columns)]


def _read_binary_columns(data: bytes, body_start: int, vertex: _Element, used: list[str]) -> dict[str, np.ndarray]:
    # fields are named by position: a repeated property name reads its last column
    record = np.dtype([(f"f{i}", "<" + _SCALAR_TYPES[t]) for i, (_, t) in enumerate(vertex.properties)])
    needed = body_start + record.itemsize * vertex.count
    if len(data) < needed:
        raise ParseError(f"truncated body: need {needed - body_start} bytes for {vertex.count} vertices", len(data))
    table = np.frombuffer(data, dtype=record, count=vertex.count, offset=body_start)
    index = {name: i for i, (name, _) in enumerate(vertex.properties)}
    return {name: table[f"f{index[name]}"] for name in used}


def write_ply(
    cloud: ColorPointCloud,
    fmt: PlyFormat = PlyFormat.BINARY_LITTLE_ENDIAN,
    include_roles: bool = False,
) -> bytes:
    cloud, fmt = as_instance(cloud, "cloud", ColorPointCloud), as_instance(fmt, "fmt", PlyFormat)
    include_roles = as_bool(include_roles, "include_roles")
    uncolored = len(cloud) - int(cloud.colored.sum())
    if uncolored and not include_roles:
        raise MissingColor(f"{uncolored} points lack color; only a PLY with roles (include_roles) can hold them")
    # positions are written under `property float` in either format, so read_ply must read them back
    with np.errstate(over="ignore"):
        beyond = np.flatnonzero(np.isinf(cloud.positions.astype(np.float32)).any(axis=1))
    if beyond.size:
        raise InvalidInput(f"point {beyond[0]} has a coordinate beyond float32 range")

    fields = [(axis, "float", cloud.positions[:, i]) for i, axis in enumerate("xyz")]
    fields += [(c, "uchar", cloud.colors[:, i]) for i, c in enumerate(_CHANNELS)]
    if include_roles:
        fields.append(("original", "uchar", cloud.original.astype(np.uint8)))
    header = ["ply", f"format {fmt.value} 1.0", f"element vertex {len(cloud)}"]
    header += [f"property {ptype} {name}" for name, ptype, _ in fields] + ["end_header"]
    head = ("\n".join(header) + "\n").encode("ascii")

    if fmt is PlyFormat.ASCII:
        return b"".join([head, *map_on_cores(lambda starts: [_write_ascii_chunk(fields, start) for start in starts], range(0, len(cloud), _ASCII_CHUNK_ROWS))])

    table = np.empty(len(cloud), dtype=[(name, "<" + _SCALAR_TYPES[ptype]) for name, ptype, _ in fields])
    for name, _, col in fields:
        table[name] = col
    return head + table.tobytes()


def _write_ascii_chunk(fields: list[tuple[str, str, np.ndarray]], start: int) -> bytes:
    # the slice of at most _ASCII_CHUNK_ROWS rows from `start`, column by column (a
    # table of every token would double peak memory); floats as the shortest round-
    # trippable decimal, integral ones without the trailing ".0" (no uchar has a ".")
    text = [map(repr if ptype == "float" else _UCHAR_TEXT.__getitem__, col[start:start + _ASCII_CHUNK_ROWS].tolist()) for _, ptype, col in fields]
    chunk = "\n".join(map(" ".join, zip(*text))) + "\n"
    return chunk.replace(".0 ", " ").replace(".0\n", "\n").encode("ascii")
