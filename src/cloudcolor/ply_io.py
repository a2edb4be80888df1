"""PLY reader/writer for colored point clouds (ASCII and binary little-endian).

Only the vertex element is honored; faces and other elements are ignored.
Vertices carry x/y/z floats and optionally red/green/blue uchar channels.
A file whose header declares color properties yields Original points, one
without yields Reconstruct points.  Mixed clouds are encoded through an
optional `uchar original` role-flag property written by this tool.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

from .core import ColorPoint, ColorPointCloud, Role
from .errors import InvalidInput, MissingColor, ParseError


class PlyFormat(Enum):
    ASCII = "ascii"
    BINARY_LITTLE_ENDIAN = "binary_little_endian"


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


@dataclass
class _Element:
    name: str
    count: int
    properties: list[tuple[str, str]]  # (name, ply type); lists unsupported


def _decode_name(token: bytes, offset: int) -> str:
    try:
        return token.decode()
    except UnicodeDecodeError:
        raise ParseError(f"header name {token!r} is not UTF-8", offset) from None


def _parse_header(data: bytes) -> tuple[PlyFormat, list[_Element], int]:
    end = data.find(b"end_header")
    if not data.startswith(b"ply") or end < 0:
        raise ParseError("not a PLY file (missing 'ply' magic or 'end_header')", 0)
    nl = data.find(b"\n", end)
    if nl < 0:
        raise ParseError("header not terminated by a newline", end)
    body_start = nl + 1

    fmt = None
    elements: list[_Element] = []
    offset = 0
    for raw in data[:end].split(b"\n"):
        line = raw.rstrip(b"\r")
        tokens = line.split()
        if not tokens or tokens[0] in (b"ply", b"comment", b"obj_info"):
            offset += len(raw) + 1
            continue
        if tokens[0] == b"format":
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
                count = int(tokens[2])
            except ValueError:
                raise ParseError("non-integer element count", offset) from None
            if count < 0:
                raise ParseError("negative element count", offset)
            elements.append(_Element(_decode_name(tokens[1], offset), count, []))
        elif tokens[0] == b"property":
            if not elements:
                raise ParseError("property line before any element", offset)
            if tokens[1:2] == [b"list"]:
                raise ParseError("list properties are not supported", offset)
            if len(tokens) != 3:
                raise ParseError("malformed property line", offset)
            ptype = _decode_name(tokens[1], offset)
            if ptype not in _SCALAR_TYPES:
                raise ParseError(f"unknown property type {ptype!r}", offset)
            elements[-1].properties.append((_decode_name(tokens[2], offset), ptype))
        else:
            raise ParseError(f"unknown header keyword {tokens[0].decode(errors='replace')!r}", offset)
        offset += len(raw) + 1
    if fmt is None:
        raise ParseError("header lacks a format line", 0)
    return fmt, elements, body_start


def read_ply(data: bytes) -> ColorPointCloud:
    fmt, elements, body_start = _parse_header(data)

    vertex = next((e for e in elements if e.name == "vertex"), None)
    if vertex is None:
        raise ParseError("no vertex element declared", 0)
    if elements[0].name != "vertex":
        raise ParseError("elements preceding 'vertex' are not supported", 0)

    names = [n for n, _ in vertex.properties]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ParseError(f"vertex element lacks property {axis!r}", 0)
        if dict(vertex.properties)[axis] not in _FLOAT_TYPES:
            raise ParseError(f"property {axis!r} must be a float type", 0)
    has_color = all(c in names for c in ("red", "green", "blue"))
    if has_color:
        for c in ("red", "green", "blue"):
            if dict(vertex.properties)[c] not in _UCHAR_TYPES:
                raise ParseError(f"property {c!r} must be an 8-bit unsigned type", 0)
    has_role = "original" in names

    if fmt is PlyFormat.ASCII:
        rows = _read_ascii_rows(data, body_start, vertex)
    else:
        rows = _read_binary_rows(data, body_start, vertex)

    points = []
    for row in rows:
        x, y, z = float(row["x"]), float(row["y"]), float(row["z"])
        if has_color:
            color = (int(row["red"]), int(row["green"]), int(row["blue"]))
        else:
            color = None
        if has_role and int(row["original"]) == 0:
            points.append(ColorPoint(x, y, z, color=None, role=Role.RECONSTRUCT))
        elif color is not None:
            points.append(ColorPoint(x, y, z, color=color, role=Role.ORIGINAL))
        else:
            points.append(ColorPoint(x, y, z, color=None, role=Role.RECONSTRUCT))
    return ColorPointCloud(points=points, provenance="ply")


def _read_ascii_rows(data: bytes, body_start: int, vertex: _Element) -> list[dict]:
    text = data[body_start:].decode("ascii", errors="replace")
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    if len(lines) < vertex.count:
        raise ParseError(
            f"truncated body: expected {vertex.count} vertex rows, found {len(lines)}",
            len(data),
        )
    rows = []
    for i in range(vertex.count):
        tokens = lines[i].split()
        if len(tokens) < len(vertex.properties):
            raise ParseError(f"vertex row {i} has too few values", body_start)
        row = {}
        for (name, ptype), tok in zip(vertex.properties, tokens):
            try:
                row[name] = float(tok) if ptype in _FLOAT_TYPES else int(tok)
            except ValueError:
                raise ParseError(f"bad value {tok!r} for property {name!r}", body_start) from None
        rows.append(row)
    return rows


def _read_binary_rows(data: bytes, body_start: int, vertex: _Element) -> list[dict]:
    fmt = "<" + "".join(_SCALAR_TYPES[t] for _, t in vertex.properties)
    record = struct.Struct(fmt)
    needed = body_start + record.size * vertex.count
    if len(data) < needed:
        raise ParseError(
            f"truncated body: need {needed - body_start} bytes for {vertex.count} vertices",
            len(data),
        )
    rows = []
    names = [n for n, _ in vertex.properties]
    for i in range(vertex.count):
        values = record.unpack_from(data, body_start + i * record.size)
        rows.append(dict(zip(names, values)))
    return rows


def _fmt_float(v: float) -> str:
    # shortest round-trippable decimal; integers without the trailing ".0"
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def write_ply(
    cloud: ColorPointCloud,
    fmt: PlyFormat = PlyFormat.BINARY_LITTLE_ENDIAN,
    allow_uncolored: bool = False,
    include_roles: bool = False,
) -> bytes:
    uncolored = [p for p in cloud.points if p.color is None]
    if uncolored and not (allow_uncolored or include_roles):
        raise MissingColor(f"{len(uncolored)} points lack color; pass allow_uncolored to drop colors")

    position_only = allow_uncolored and not include_roles
    header = ["ply", f"format {fmt.value} 1.0", f"element vertex {len(cloud)}"]
    float_name = "float"
    header += [f"property {float_name} {axis}" for axis in ("x", "y", "z")]
    if not position_only:
        header += [f"property uchar {c}" for c in ("red", "green", "blue")]
    if include_roles:
        header.append("property uchar original")
    header.append("end_header")

    out = bytearray(("\n".join(header) + "\n").encode("ascii"))
    for pid, p in enumerate(cloud.points):
        color = p.color if p.color is not None else (0, 0, 0)
        is_original = 1 if p.role is Role.ORIGINAL else 0
        if fmt is PlyFormat.ASCII:
            fields = [_fmt_float(p.x), _fmt_float(p.y), _fmt_float(p.z)]
            if not position_only:
                fields += [str(c) for c in color]
            if include_roles:
                fields.append(str(is_original))
            out += (" ".join(fields) + "\n").encode("ascii")
        else:
            try:
                out += struct.pack("<fff", p.x, p.y, p.z)
            except OverflowError:
                raise InvalidInput(f"point {pid} has a coordinate beyond float32 range") from None
            if not position_only:
                out += struct.pack("<3B", *color)
            if include_roles:
                out += struct.pack("<B", is_original)
    return bytes(out)
