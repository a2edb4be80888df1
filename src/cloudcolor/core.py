"""Domain types: colored point clouds and the cuboid block partition.

All local computation (flattening, resampling) is scoped to one block of
the partition; these types are immutable after construction and safe to
share read-only across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyCloud, InvalidConfig

Color = Tuple[int, int, int]


class Role(Enum):
    ORIGINAL = "original"
    RECONSTRUCT = "reconstruct"


@dataclass(frozen=True)
class ColorPoint:
    x: float
    y: float
    z: float
    color: Optional[Color] = None
    role: Role = Role.ORIGINAL

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise InvalidConfig("point coordinates must be finite")
        if self.role is Role.ORIGINAL and self.color is None:
            raise InvalidConfig("a point with role Original must carry a color")
        if self.color is not None:
            r, g, b = self.color
            if not all(isinstance(v, int) and 0 <= v <= 255 for v in (r, g, b)):
                raise InvalidConfig("color channels must be integers in [0, 255]")

    @property
    def coords(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass
class ColorPointCloud:
    """Ordered point sequence; the storage order is the tie-break identity."""

    points: list[ColorPoint] = field(default_factory=list)
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.points)

    def positions(self) -> np.ndarray:
        return np.array([p.coords for p in self.points], dtype=float).reshape(-1, 3)

    def original_ids(self) -> list[int]:
        return [i for i, p in enumerate(self.points) if p.role is Role.ORIGINAL]

    def reconstruct_ids(self) -> list[int]:
        return [i for i, p in enumerate(self.points) if p.role is Role.RECONSTRUCT]

    def fully_colored(self) -> bool:
        return all(p.color is not None for p in self.points)


@dataclass(frozen=True)
class Aabb:
    min: Tuple[float, float, float]
    max: Tuple[float, float, float]

    def __post_init__(self):
        if any(lo > hi for lo, hi in zip(self.min, self.max)):
            raise InvalidConfig("Aabb requires min <= max componentwise")


@dataclass(frozen=True)
class Block:
    cell_index: Tuple[int, int, int]
    point_ids: Tuple[int, ...]
    bounds: Aabb


def bounding_box(cloud: ColorPointCloud) -> Aabb:
    if len(cloud) == 0:
        raise EmptyCloud("cannot compute the bounding box of an empty cloud")
    pos = cloud.positions()
    return Aabb(tuple(map(float, pos.min(axis=0))), tuple(map(float, pos.max(axis=0))))


def check_block_size(block_size: float) -> None:
    if not (math.isfinite(block_size) and block_size > 0):
        raise InvalidConfig(f"block_size must be positive and finite, got {block_size}")


def partition_into_blocks(cloud: ColorPointCloud, block_size: float) -> list[Block]:
    """Split the cloud into half-open cubic cells anchored at the bbox minimum.

    Only non-empty cells are returned, ordered lexicographically by cell
    index; every point lands in exactly one cell.
    """
    check_block_size(block_size)
    origin = bounding_box(cloud).min

    cells: dict[Tuple[int, int, int], list[int]] = {}
    for pid, p in enumerate(cloud.points):
        idx = tuple(math.floor((c - o) / block_size) for c, o in zip(p.coords, origin))
        cells.setdefault(idx, []).append(pid)

    blocks = []
    for idx in sorted(cells):
        lo = tuple(o + k * block_size for o, k in zip(origin, idx))
        hi = tuple(c + block_size for c in lo)
        blocks.append(Block(cell_index=idx, point_ids=tuple(cells[idx]), bounds=Aabb(lo, hi)))
    return blocks
