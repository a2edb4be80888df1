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
        try:
            colored = np.full(n, colors is not None) if colored is None else np.array(colored, dtype=bool)
            original = colored.copy() if original is None else np.array(original, dtype=bool)
        except ValueError:  # a ragged list
            raise InvalidConfig("original and colored must be arrays of flags, one per point") from None
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


def as_instance(value, name: str, kind: type):
    """`value`, the argument `name`, if it is a `kind`; anything else raises
    InvalidConfig naming it."""
    if not isinstance(value, kind):
        raise InvalidConfig(f"{name} must be of class {kind.__name__}, got {shown(value)}")
    return value


def as_list(values, name: str) -> tuple:
    """`values`, the list argument `name`, as a tuple: only a tuple or a list
    is one, and anything else raises InvalidConfig naming it."""
    if not isinstance(values, (tuple, list)):
        raise InvalidConfig(f"{name} must be a tuple or a list, got {shown(values)}")
    return tuple(values)


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
    if len(as_instance(cloud, "cloud", ColorPointCloud)) == 0:
        raise EmptyCloud("cannot partition an empty cloud")
    positions = cloud.positions
    axes = np.ascontiguousarray(positions.T)  # numpy reduces each of 3 contiguous rows far faster than (n, 3) along axis 0
    origin = axes.min(axis=1)
    # subtraction and division round monotonically, so the largest cell
    # index on each axis is the maximum coordinate's
    spans = [(hi - lo) / block_size for hi, lo in zip(axes.max(axis=1).tolist(), origin.tolist())]
    if not all(map(math.isfinite, spans)):
        raise InvalidInput(f"the cloud spans too many cells of size {block_size} to index")

    # each float is an exact integer, possibly beyond int64
    cells = np.floor((positions - origin) / block_size)
    order = np.lexsort(cells.T[::-1])  # x first, and stable: cells in lexicographic order, each one's ids ascending
    starts = np.flatnonzero(np.diff(cells[order], axis=0).any(axis=1)) + 1  # cells are >= 0: a difference cannot overflow
    return [Block(cell_index=tuple(map(int, key)), point_ids=ids)
            for key, ids in zip(cells[order[np.r_[0, starts]]].tolist(), np.split(order, starts))]


# The full scan compares max(1, this // n) queries at a time with all n
# originals: about this many float64 values (128 KB), or one row of n past it
# (400 KB for 49,750).  Grid candidate arrays hold this many, or one query's.
# 2 MB chunks added 6 MB of peak RSS to a 1.5k-point `evaluate` sweep.
_NEAREST_CHUNK_VALUES = 1 << 14
_GRID_MIN_PAIRS, _GRID_MIN_QUERIES = 1 << 18, 16  # smaller lookups scan every pair: the grid's sort costs more


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
    """Row index in the (n >= 1, d) `positions` of the nearest one to each (k, d)
    query, both finite float64 rows as `as_kernel_rows` leaves them, by the sums
    of `squared_distance_chunks`, the lowest on ties; a least sum of inf raises
    InvalidInput.  Large lookups prune by grid cells, exactly (`_grid_nearest_ids`)."""
    grid = positions.shape[1] <= 3 and len(queries) >= _GRID_MIN_QUERIES and len(positions) * len(queries) >= _GRID_MIN_PAIRS
    out = _grid_nearest_ids(positions, queries) if grid else np.full(len(queries), -1, dtype=np.intp)
    todo = np.flatnonzero(out < 0)
    for rows, d2 in squared_distance_chunks(positions, queries[todo]):
        nearest = d2.argmin(axis=1)  # argmin returns the first minimum
        if np.isinf(d2[np.arange(len(d2)), nearest]).any():
            raise InvalidInput("squared distances to the originals overflow float64")
        out[todo[rows]] = nearest
    return out


@np.errstate(over="ignore")  # an overflow reads inf, as in the full scan, and leaves a query unproven
def _grid_nearest_ids(positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Each query's nearest row, lowest first, among the positions in the 3^d
    grid cells around its own, or -1 where one outside them may be as near."""
    (n, d), k = positions.shape, len(queries)
    columns, top = np.ascontiguousarray(positions.T), math.ceil(n ** (1 / d))  # reducing (n, 3) rows is far slower
    side = float(np.ptp(columns, axis=1).max()) / top
    if not 0 < side < math.inf:  # all positions equal, or a span that overflows
        return np.full(k, -1, dtype=np.intp)
    origin, top = columns.min(axis=1, keepdims=True) - 2 * side, top + 3  # cells 2 .. top - 1 hold the positions
    def cell(x):  # monotone in each coordinate of (d, m) `x`; in place, as fresh arrays raised peak RSS
        c = x - origin
        return np.clip(np.floor(np.divide(c, side, out=c), out=c), 1, top, out=c)
    strides = (top + 2) ** np.arange(d - 1, -1, -1)  # cells 0 .. top + 1: every query's neighbours
    keys = (strides @ cell(columns)).astype(np.intp)  # small integers: exact
    order = np.argsort(keys)  # no stability needed: ties go to the lowest row below
    starts = np.r_[0, np.cumsum(np.bincount(keys, minlength=(top + 2) ** d))]
    q_cells, ids = cell(queries.T), np.full(k, n, dtype=np.intp)
    # a query's neighbours as rows of 3 cells along the last axis, each one range of `order`
    lows = (strides @ q_cells).astype(np.intp)[:, None] + strides @ (np.indices((3,) * (d - 1) + (1,)).reshape(d, -1) - 1)
    counts = starts[lows + 3] - starts[lows]
    step = max(1, _NEAREST_CHUNK_VALUES // max(1, counts.sum(axis=1).max(initial=0)))
    for chunk in (slice(start, start + step) for start in range(0, k, step)):
        q, count = queries[chunk].T, counts[chunk].ravel()
        rows = order[np.arange(count.sum()) + np.repeat(starts[lows[chunk]].ravel() - np.cumsum(count) + count, count)]
        owner = np.repeat(np.arange(len(count)) // lows.shape[1], count)
        d2, best = np.zeros(len(rows)), np.full(q.shape[1], np.inf)
        for column, q_axis in zip(columns, q):  # as `squared_distance_chunks` sums them
            diff = column[rows] - q_axis[owner]
            diff *= diff
            d2 += diff
        np.minimum.at(best, owner, d2)
        np.minimum.at(ids[chunk], owner, np.where(d2 == best[owner], rows, n))
        # Terms >= 0 sum monotonically, so an x as near as the best has each axis term <= best: then
        # |fl(x - q)| < reach, lo < x < hi, and as cells are monotone, x's cell neighbours the query's.
        reach = np.nextafter(np.sqrt(best), np.inf)  # a best of inf or 0 fails the first test
        hi, lo = np.nextafter(q + reach, np.inf), np.nextafter(q - reach, -np.inf)
        held = (hi - q >= reach) & (lo - q <= -reach) & (cell(hi) <= q_cells[:, chunk] + 1) & (cell(lo) >= q_cells[:, chunk] - 1)
        ids[chunk][~((reach * reach > best) & held.all(axis=0))] = -1
    return ids


def nearest_original_color(cloud: ColorPointCloud, queries: np.ndarray) -> np.ndarray:
    """(k, 3) colors of the Original point nearest to each (x, y, z) query
    in 3D; ties go to the lowest point id."""
    o_ids = np.flatnonzero(as_instance(cloud, "cloud", ColorPointCloud).original)
    positions, _, queries = as_kernel_rows(cloud.positions[o_ids], cloud.colors[o_ids], queries)
    return cloud.colors[o_ids[nearest_ids(positions, queries)]]
