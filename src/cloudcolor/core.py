"""Domain types: colored point clouds and the cuboid block partition.

All local computation (flattening, resampling) is scoped to one block of
the partition.  The nearest-original lookup that every method falls back
on lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import EmptyCloud, EmptySamples, InvalidConfig, InvalidInput

Color = Tuple[int, int, int]


def _rows(values, dtype, name: str) -> np.ndarray:
    """A copy of `values` as an (N, 3) array."""
    table = np.array(values, dtype=dtype)
    if table.size and table.shape[1:] != (3,):
        raise InvalidConfig(f"{name} must have shape (N, 3), got {table.shape}")
    return table.reshape(-1, 3)


class ColorPointCloud:
    """Ordered points as four arrays; the storage order is the tie-break
    identity.

    ``positions`` (N, 3) float64, ``colors`` (N, 3) uint8, ``original`` (N,)
    bool marks the points whose color is given and ``colored`` (N,) bool the
    points that carry a color at all.  By default every point is colored
    when colors are given and none otherwise, and the colored points are the
    originals.  The arrays are copied, checked once and read-only; the colors
    of uncolored points read 0.
    """

    def __init__(self, positions, colors=None, original=None, colored=None):
        positions = _rows(positions, np.float64, "positions")
        n = len(positions)
        values = np.zeros((n, 3), dtype=np.uint8) if colors is None else _rows(colors, None, "colors")
        colored = np.full(n, colors is not None) if colored is None else np.array(colored, dtype=bool)
        original = colored.copy() if original is None else np.array(original, dtype=bool)
        if not (len(values) == n and colored.shape == original.shape == (n,)):
            raise InvalidConfig("positions, colors, original and colored must have equal lengths")
        if not np.isfinite(positions).all():
            raise InvalidConfig("point coordinates must be finite")
        if (original & ~colored).any():
            raise InvalidConfig("a point with role Original must carry a color")
        if values.dtype.kind not in "iu" or ((values[colored] < 0) | (values[colored] > 255)).any():
            raise InvalidConfig("color channels must be integers in [0, 255]")
        self.positions = positions
        self.colors = np.where(colored[:, None], values, 0).astype(np.uint8)
        self.original = original
        self.colored = colored
        for array in (self.positions, self.colors, self.original, self.colored):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.positions)

    def original_ids(self) -> np.ndarray:
        return np.flatnonzero(self.original)

    def reconstruct_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.original)

    def fully_colored(self) -> bool:
        return bool(self.colored.all())

    def with_colors(self, ids: np.ndarray, colors: np.ndarray) -> "ColorPointCloud":
        """A copy in which the points `ids` carry `colors`; roles unchanged."""
        new_colors = self.colors.copy()
        new_colors[ids] = colors
        colored = self.colored.copy()
        colored[ids] = True
        return ColorPointCloud(self.positions, new_colors, self.original, colored)


@dataclass(frozen=True, eq=False)
class Block:
    cell_index: Tuple[int, int, int]  # Python ints: the random root hashes its repr
    point_ids: np.ndarray  # ascending


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
    positions = cloud.positions
    origin = positions.min(axis=0)
    # subtraction and division round monotonically, so the largest cell
    # index on each axis is the maximum coordinate's
    spans = [(hi - lo) / block_size for hi, lo in zip(positions.max(axis=0).tolist(), origin.tolist())]
    if not all(map(math.isfinite, spans)):
        raise InvalidInput(f"the cloud spans too many cells of size {block_size} to index")

    # each float is an exact integer, possibly beyond int64; unique sorts the rows lexicographically
    cells = np.floor((positions - origin) / block_size)
    keys, inverse, counts = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(inverse.reshape(-1), kind="stable"), np.cumsum(counts)[:-1])
    return [
        Block(cell_index=tuple(map(int, key)), point_ids=ids)
        for key, ids in zip(keys.tolist(), members)
    ]


# Queries per chunk are sized so one chunk's distance matrix holds about
# this many float64 values (128 KB), whatever the number of originals.
# Larger chunks raised peak RSS: 2 MB chunks added 6 MB on a 1.5k-point
# `evaluate` sweep, 128 KB chunks under 0.5 MB.
_NEAREST_CHUNK_VALUES = 1 << 14


def nearest_ids(positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row index in `positions` of the nearest position to each query;
    ties go to the lowest index.

    Squared distances are summed over x, y and z in that order, as
    ``((positions - q) ** 2).sum(axis=1)`` would.  A query whose smallest
    squared distance overflows to inf raises InvalidInput: every candidate
    would tie.
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
        with np.errstate(over="ignore"):
            for column, q in zip(columns, chunk.T):
                diff = column - q[:, None]
                diff *= diff
                d2 += diff
        nearest = d2.argmin(axis=1)  # argmin returns the first minimum
        if np.isinf(d2[np.arange(len(chunk)), nearest]).any():
            raise InvalidInput("squared distances to the originals overflow float64")
        out[start:start + rows] = nearest
    return out


def nearest_original_color(cloud: ColorPointCloud, queries: np.ndarray) -> np.ndarray:
    """(k, 3) colors of the Original point nearest to each (x, y, z) query
    in 3D; ties go to the lowest point id."""
    o_ids = cloud.original_ids()
    return cloud.colors[o_ids[nearest_ids(cloud.positions[o_ids], queries)]]
