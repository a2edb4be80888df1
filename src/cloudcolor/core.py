"""Domain types: colored point clouds and the cuboid block partition.

All local computation (flattening, resampling) is scoped to one block of
the partition.  The nearest-original lookup that every method falls back
on lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import EmptyCloud, EmptySamples, InvalidConfig, InvalidInput

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
class Block:
    cell_index: Tuple[int, int, int]
    point_ids: Tuple[int, ...]


def check_block_size(block_size: float) -> None:
    if not (math.isfinite(block_size) and block_size > 0):
        raise InvalidConfig(f"block_size must be positive and finite, got {block_size}")


def partition_into_blocks(cloud: ColorPointCloud, block_size: float) -> list[Block]:
    """Split the cloud into half-open cubic cells anchored at the bbox minimum.

    Only non-empty cells are returned, ordered lexicographically by cell
    index; every point lands in exactly one cell.
    """
    check_block_size(block_size)
    if len(cloud) == 0:
        raise EmptyCloud("cannot partition an empty cloud")
    positions = cloud.positions()
    origin = positions.min(axis=0).tolist()
    # subtraction and division round monotonically, so the largest cell
    # index on each axis is the maximum coordinate's
    spans = [(hi - lo) / block_size for hi, lo in zip(positions.max(axis=0).tolist(), origin)]
    if not all(map(math.isfinite, spans)):
        raise InvalidInput(f"the cloud spans too many cells of size {block_size} to index")

    cells: dict[Tuple[int, int, int], list[int]] = {}
    for pid, p in enumerate(cloud.points):
        idx = tuple(math.floor((c - o) / block_size) for c, o in zip(p.coords, origin))
        cells.setdefault(idx, []).append(pid)

    return [Block(cell_index=idx, point_ids=tuple(cells[idx])) for idx in sorted(cells)]


# Queries per chunk are sized so one chunk's distance matrix holds about
# this many float64 values (128 KB), whatever the number of originals.
# Larger chunks raised peak RSS: 2 MB chunks added 6 MB on a 1.5k-point
# `evaluate` sweep, 128 KB chunks under 0.5 MB.
_NEAREST_CHUNK_VALUES = 1 << 14


def nearest_ids(positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row index in `positions` of the nearest position to each query;
    ties go to the lowest index.

    Squared distances are summed over x, y and z in that order, as
    ``((positions - q) ** 2).sum(axis=1)`` would.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    if len(positions) == 0:
        raise EmptySamples("a nearest-original lookup needs at least one original")
    queries = np.asarray(queries, dtype=float).reshape(-1, 3)
    columns = np.ascontiguousarray(positions.T)
    rows = max(1, _NEAREST_CHUNK_VALUES // len(positions))
    out = np.empty(len(queries), dtype=np.intp)
    for start in range(0, len(queries), rows):
        chunk = queries[start:start + rows]
        d2 = np.zeros((len(chunk), len(positions)))
        for column, q in zip(columns, chunk.T):
            diff = column - q[:, None]
            diff *= diff
            d2 += diff
        out[start:start + rows] = d2.argmin(axis=1)  # argmin returns the first minimum
    return out


def nearest_original_color(cloud: ColorPointCloud, queries: np.ndarray) -> list[Color]:
    """Color of the Original point nearest to each (x, y, z) query in 3D;
    ties go to the lowest point id."""
    o_ids = cloud.original_ids()
    nearest = nearest_ids(cloud.positions()[o_ids], queries)
    return [cloud.points[o_ids[i]].color for i in nearest.tolist()]
