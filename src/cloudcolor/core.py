"""Domain types: colored point clouds and the cuboid block partition.

All local computation (flattening, resampling) is scoped to one block of
the partition.  The nearest-original lookup that every method falls back
on and the 8-bit rounding of interpolated colors live here too.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .errors import EmptyCloud, EmptySamples, InvalidConfig, InvalidInput


def round_color_channel(values) -> np.ndarray:
    """Each value rounded to the nearest integer, ties away from zero, and
    clamped to [0, 255], as uint8: for v >= 0 that is floor(v + 0.5), and
    every negative v clamps to 0."""
    return np.clip(np.floor(np.asarray(values, dtype=float) + 0.5), 0, 255).astype(np.uint8)


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
        positions = as_rows(positions, "positions", 3).copy()
        n = len(positions)
        values = np.zeros((n, 3)) if colors is None else as_rows(colors, "colors", 3)
        colored = np.full(n, colors is not None) if colored is None else np.array(colored, dtype=bool)
        original = colored.copy() if original is None else np.array(original, dtype=bool)
        if not (len(values) == n and colored.shape == original.shape == (n,)):
            raise InvalidConfig("positions, colors, original and colored must have equal lengths")
        if (original & ~colored).any():
            raise InvalidConfig("a point with role Original must carry a color")
        if not ((values == np.floor(values)) & (values >= 0) & (values <= 255))[colored].all():
            raise InvalidConfig("color channels must be integers in [0, 255]")
        self.positions = positions
        self.colors = np.where(colored[:, None], values, 0).astype(np.uint8)
        self.original = original
        self.colored = colored
        for array in (self.positions, self.colors, self.original, self.colored):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, eq=False)
class Block:
    cell_index: Tuple[int, int, int]  # Python ints: the random root hashes its repr
    point_ids: np.ndarray  # ascending


def shown(value) -> str:
    """repr(value) for an error message, or its type alone when it has too
    many digits for Python to print (past 4,300 by default)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def as_number(value, name: str, kind: type = float):
    """`value`, the setting `name`, as a `kind`: an int from an int or a numpy
    integer, a float from any real number.  A bool, a string, None, another
    type or a number too large for a float raises InvalidConfig naming it."""
    if type(value) is kind:  # already converted: a model's terms are read per fit
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        raise InvalidConfig(f"{name} must be {'an integer' if kind is int else 'a real number'}, got {shown(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise InvalidConfig(f"{name} is too large for a float") from None


def as_bool(value, name: str) -> bool:
    """`value`, the flag `name`, as a bool: only a bool or a numpy bool is
    one, and anything else raises InvalidConfig naming it."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidConfig(f"{name} must be a bool, got {shown(value)}")
    return bool(value)


def as_rows(values, name: str, width: int | None = None) -> np.ndarray:
    """`values`, the array `name`, as (n, d) float64 rows, d being `width` or
    by default the array's own, and an empty input as (0, d).  Any other
    shape or a value that is not finite raises InvalidConfig naming it."""
    rows = _finite_floats(values, name)
    d = rows.shape[-1] if width is None and rows.ndim == 2 else width or 0
    if rows.size and (rows.ndim != 2 or rows.shape[1] != d):
        raise InvalidConfig(f"{name} must have shape (n, {width or 'd'}), got {rows.shape}")
    return rows if rows.size else rows.reshape(0, d)


def as_values(values, name: str) -> np.ndarray:
    """`values`, the array `name`, as (n,) float64 values, and an empty input
    as (0,): the one-column twin of `as_rows`, with its errors."""
    column = _finite_floats(values, name)
    if column.size and column.ndim != 1:
        raise InvalidConfig(f"{name} must have shape (n,), got {column.shape}")
    return column if column.size else column.reshape(0)


def _finite_floats(values, name: str) -> np.ndarray:
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfig(f"{name} must be an array of real numbers") from None
    if not np.isfinite(array).all():
        raise InvalidConfig(f"{name} must be finite")
    return array


def as_kernel_rows(positions, colors, queries, width: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A kernel's (n, d) `positions`, their (n, 3) `colors` and its (k, d)
    `queries`, each read by `as_rows`, d being `width` or by default the
    positions' own.  Without a `width`, empty positions raise EmptySamples."""
    positions = as_rows(positions, "positions", width)
    if width is None and not len(positions):
        raise EmptySamples("interpolating a color needs at least one original")
    colors = as_rows(colors, "colors", 3)
    if len(colors) != len(positions):
        raise InvalidConfig(f"colors must have one row per position, got {len(colors)} for {len(positions)}")
    return positions, colors, as_rows(queries, "queries", positions.shape[1])


def positive_real(value, name: str) -> float:
    """`value` as a positive finite float; InvalidConfig naming `name` otherwise."""
    value = as_number(value, name)
    if not (math.isfinite(value) and value > 0):
        raise InvalidConfig(f"{name} must be positive and finite, got {value}")
    return value


def partition_into_blocks(cloud: ColorPointCloud, block_size: float) -> list[Block]:
    """Split the cloud into half-open cubic cells anchored at the bbox minimum.

    Only non-empty cells are returned, ordered lexicographically by cell
    index; every point lands in exactly one cell.
    """
    block_size = positive_real(block_size, "block_size")
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


def squared_distance_chunks(positions: np.ndarray, queries: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Squared distances from (k, d) `queries` to (n >= 1, d) `positions`,
    a chunk of queries at a time: yields ``(rows, d2)`` with `rows` a slice
    of the queries and `d2` their (len, n) squared distances.

    The squares are summed axis by axis from zero, as
    ``((positions - q) ** 2).sum(axis=1)`` would; sums that overflow read inf.
    """
    columns = np.ascontiguousarray(positions.T)
    step = max(1, _NEAREST_CHUNK_VALUES // len(positions))
    for start in range(0, len(queries), step):
        chunk = queries[start:start + step]
        d2 = np.zeros((len(chunk), len(positions)))
        with np.errstate(over="ignore"):
            for column, q in zip(columns, chunk.T):
                diff = column - q[:, None]
                diff *= diff
                d2 += diff
        yield slice(start, start + len(chunk)), d2


def nearest_ids(positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row index in the (n >= 1, d) `positions` of the nearest one to each
    (k, d) query, both read by `as_rows`; ties go to the lowest index.  A
    query whose smallest squared distance overflows to inf raises
    InvalidInput: every candidate would tie."""
    out = np.empty(len(queries), dtype=np.intp)
    for rows, d2 in squared_distance_chunks(positions, queries):
        nearest = d2.argmin(axis=1)  # argmin returns the first minimum
        if np.isinf(d2[np.arange(len(d2)), nearest]).any():
            raise InvalidInput("squared distances to the originals overflow float64")
        out[rows] = nearest
    return out


def nearest_original_color(cloud: ColorPointCloud, queries: np.ndarray) -> np.ndarray:
    """(k, 3) colors of the Original point nearest to each (x, y, z) query
    in 3D; ties go to the lowest point id."""
    o_ids = np.flatnonzero(cloud.original)
    positions, _, queries = as_kernel_rows(cloud.positions[o_ids], cloud.colors[o_ids], queries)
    return cloud.colors[o_ids[nearest_ids(positions, queries)]]
