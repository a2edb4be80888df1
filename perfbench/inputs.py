"""Seeded input clouds and the benchmark's own PLY writer.

The shapes and the cosine color field follow `sphere_cloud`, `plane_cloud`
and `dihedral_cloud` in `cloudcolor.evaluation`, but are written here with
plain numpy so that the benchmark's inputs stay fixed when the program's
cloud types change.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cloud:
    """A fully colored cloud plus the mask of points whose color is kept."""

    xyz: np.ndarray       # (n, 3) float64
    rgb: np.ndarray       # (n, 3) uint8, the ground truth for every point
    original: np.ndarray  # (n,) bool; False marks a point to reconstruct


def cosine_color(xyz: np.ndarray, extent: float) -> np.ndarray:
    """One half-period cosine per channel across `extent`, rounded half up."""
    phase = np.pi * xyz / extent + np.array([0.0, 1.0, 2.0])
    values = 127.5 + 100.0 * np.cos(phase)
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def sphere(n: int, rng: np.random.Generator, radius: float) -> np.ndarray:
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * radius


def plane(n: int, rng: np.random.Generator, size: float) -> np.ndarray:
    xy = rng.uniform(0.0, size, size=(n, 2))
    return np.column_stack([xy, np.zeros(n)])


def dihedral(n: int, rng: np.random.Generator, size: float) -> np.ndarray:
    """Two half-planes meeting at a right angle along the y axis."""
    uv = rng.uniform(0.0, size, size=(n, 2))
    xyz = np.column_stack([uv, np.zeros(n)])
    odd = np.arange(n) % 2 == 1
    xyz[odd] = np.column_stack([np.zeros(odd.sum()), uv[odd, 1], uv[odd, 0]])
    return xyz


SHAPES = {"sphere": sphere, "plane": plane, "dihedral": dihedral}


def make_cloud(shape: str, n: int, extent: float, colored_share: float, seed: int, salt: int) -> Cloud:
    """Draw a cloud and the kept-color mask from `(seed, salt)` alone.

    `extent` is the sphere's radius or the side of the plane and dihedral;
    the color field makes one half-period across it.
    """
    rng = np.random.default_rng([seed, salt])
    xyz = SHAPES[shape](n, rng, extent)
    original = np.zeros(n, dtype=bool)
    original[rng.permutation(n)[: round(colored_share * n)]] = True
    return Cloud(xyz=xyz, rgb=cosine_color(xyz, extent), original=original)


def ply_bytes(cloud: Cloud, ascii: bool, role_flag: bool) -> bytes:
    """Encode the cloud as PLY 1.0.

    With `role_flag` the points to reconstruct carry color 0,0,0 and
    `original` 0; without it every point is written with its true color.
    """
    n = len(cloud.xyz)
    fmt = "ascii" if ascii else "binary_little_endian"
    header = [
        "ply", f"format {fmt} 1.0", f"element vertex {n}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
    ]
    if role_flag:
        header.append("property uchar original")
    header.append("end_header")
    head = ("\n".join(header) + "\n").encode("ascii")

    rgb = np.where(cloud.original[:, None], cloud.rgb, 0) if role_flag else cloud.rgb
    if ascii:
        rows = []
        for i in range(n):
            x, y, z = cloud.xyz[i].tolist()
            r, g, b = rgb[i].tolist()
            row = f"{x!r} {y!r} {z!r} {r} {g} {b}"
            rows.append(f"{row} {int(cloud.original[i])}" if role_flag else row)
        return head + ("\n".join(rows) + "\n").encode("ascii")

    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if role_flag:
        fields.append(("original", "u1"))
    body = np.zeros(n, dtype=fields)
    for axis, name in enumerate("xyz"):
        body[name] = cloud.xyz[:, axis]
    for ch, name in enumerate(("red", "green", "blue")):
        body[name] = rgb[:, ch]
    if role_flag:
        body["original"] = cloud.original
    return head + body.tobytes()


def read_ply_arrays(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode a vertex-only PLY with x,y,z floats and red,green,blue uchars.

    Returns float64 positions and uint8 colors. Raises ValueError when the
    file does not have exactly that layout. The output checks use this
    reader rather than the program's, so a reader bug cannot hide itself.
    """
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply\n") or end < 0:
        raise ValueError("not a PLY file")
    lines = data[:end].decode("ascii").split("\n")
    fmt = next((ln.split()[1] for ln in lines if ln.startswith("format ")), None)
    counts = [int(ln.split()[2]) for ln in lines if ln.startswith("element vertex ")]
    props = [tuple(ln.split()[1:]) for ln in lines if ln.startswith("property ")]
    expected = [("float", a) for a in "xyz"] + [("uchar", c) for c in ("red", "green", "blue")]
    if len(counts) != 1 or props != expected:
        raise ValueError(f"unexpected PLY layout: {props}")
    n = counts[0]
    body = data[end + len(b"end_header\n"):]
    if fmt == "ascii":
        table = np.array(body.split(), dtype=float).reshape(-1, 6) if n else np.zeros((0, 6))
        if len(table) != n:
            raise ValueError(f"ASCII body has {len(table)} rows, header says {n}")
        rgb = table[:, 3:].astype(np.uint8)
        if not np.array_equal(rgb, table[:, 3:]):
            raise ValueError("ASCII colors are not integers in [0, 255]")
        return table[:, :3], rgb
    if fmt == "binary_little_endian":
        dtype = np.dtype([("xyz", "<f4", 3), ("rgb", "u1", 3)])
        if len(body) != n * dtype.itemsize:
            raise ValueError(f"binary body has {len(body)} bytes, header says {n} vertices")
        table = np.frombuffer(body, dtype=dtype)
        return table["xyz"].astype(float), table["rgb"].copy()
    raise ValueError(f"unsupported PLY format {fmt!r}")
