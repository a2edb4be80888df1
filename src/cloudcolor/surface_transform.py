"""Flatten a block's 3D points to 2D by walking its minimum spanning tree.

Each MST edge folds the z difference into both planar axes: the child lands
at the parent's 2D position plus sign-preserving distances computed in the
(x,z) and (y,z) planes.  The tree is the Kruskal tree of the complete
Euclidean graph with candidate edges ordered by (``math.dist`` weight,
smaller id, larger id), so results are fully deterministic.

One array Prim over the block's distance matrix builds it.  Under a strict
total order of the edges the MST is unique, so Prim finds exactly the
Kruskal tree whenever its keys order the edges as (``math.dist``, i, j)
does.  When every candidate weight is separated from every other by more
than a relative ``_TIE_RTOL`` (and none is tiny or overflows), numpy's
weights differ from ``math.dist`` by far less than that gap and serve as the
keys.  Otherwise each edge's key is its exact rank: numpy's order, with
every run of near ties re-sorted by (``math.dist``, i, j).  Prim grows
the tree from the root, so its (parent, child) pairs come in join order,
every parent before its children.
"""
from __future__ import annotations

import math
import random
import zlib
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import Block, ColorPointCloud, as_number, as_rows, shown, squared_distance_chunks
from .errors import EmptyBlock, InvalidConfig, InvalidInput

Coord3 = Tuple[float, float, float]


# numpy and math.dist weights differ by at most ~2e-16 relative; candidate
# weights closer than this are treated as a possible tie.
_TIE_RTOL = 1e-12
# Below this every squared distance is subnormal or zero and loses the
# relative accuracy the tie check relies on.
_MIN_WEIGHT = math.sqrt(np.finfo(np.float64).tiny)


def _near_ties(ordered: np.ndarray) -> np.ndarray:
    """One flag per neighbouring pair of the sorted weights `ordered`: True
    where numpy may order the pair differently from ``math.dist``, because
    the two lie within ``_TIE_RTOL``, the lower is below ``_MIN_WEIGHT`` or
    the upper overflowed."""
    with np.errstate(invalid="ignore"):  # inf - inf is nan, and neither it nor inf > inf holds
        near = ~(np.diff(ordered) > _TIE_RTOL * ordered[1:])
    near[:np.searchsorted(ordered, _MIN_WEIGHT)] = True
    return near


def _prim_keys(points: np.ndarray) -> tuple[np.ndarray, bool]:
    """(n, n) Prim keys over the candidate edges of (n >= 2, 3) `points`,
    and whether they are exact ranks rather than numpy's distances.

    Numpy's distances serve when the sorted weights show no near tie, none
    is below ``_MIN_WEIGHT`` and none overflowed.  Otherwise each edge's key
    is its rank, as float64, in the (``math.dist``, smaller id, larger id)
    order: numpy's order with every run of near ties re-sorted exactly.
    """
    keys = np.sqrt(np.concatenate([d2 for _, d2 in squared_distance_chunks(points, points)]))
    lower = np.tri(len(points), k=-1, dtype=bool)
    ordered = np.sort(keys[lower])  # keys is exactly symmetric
    near = _near_ties(ordered)
    if ordered[0] >= _MIN_WEIGHT and ordered[-1] < np.inf and not near.any():
        return keys, False

    order = np.argsort(keys[lower])  # edge (i, j) with i > j, row-major
    # the runs are more than _TIE_RTOL apart, so sorting all their members at
    # once re-sorts each run in place
    member = np.flatnonzero(np.append(near, False) | np.insert(near, 0, False))
    larger, smaller = (index[order[member]] for index in np.nonzero(lower))
    xyz = points.tolist()
    exact = [math.dist(xyz[i], xyz[j]) for i, j in zip(larger.tolist(), smaller.tolist())]
    order[member] = order[member][np.lexsort((larger, smaller, exact))]
    ranks = np.empty(len(order))
    ranks[order] = np.arange(len(order))
    keys[lower] = ranks
    keys.T[lower] = ranks
    return keys, True


def build_mst(points: np.ndarray | Sequence[Coord3], root: int = 0) -> list[tuple[int, int]]:
    """Kruskal MST of the complete graph over `points`, an (n, 3) array or a
    sequence of (x, y, z) triples read by ``as_rows``, as (parent, child) id
    pairs oriented from `root`, an int in [0, n).

    Candidate edges are ordered by (``math.dist`` weight, smaller id, larger
    id).  One array Prim grows the tree from `root` and emits each point
    with its nearest tree point as it joins, so every parent precedes its
    children.  Its keys are numpy's distances when all candidate weights are
    at least ``_MIN_WEIGHT``, finite and pairwise more than a relative
    ``_TIE_RTOL`` apart, and exact ranks in the edge order otherwise.
    """
    points = as_rows(points, "points", 3)
    n = len(points)
    if n == 0:
        raise EmptyBlock("cannot build an MST over zero points")
    root = as_number(root, "MST root", int)
    if not 0 <= root < n:
        raise InvalidConfig(f"MST root must be a point index in [0, {n}), got {shown(root)}")
    if n == 1:
        return []

    keys, _ = _prim_keys(points)
    # keys[:, v] = inf once v joins, so rows never offer in-tree points again
    keys[:, root] = np.inf
    best = keys[root].copy()
    nearest = np.full(n, root)
    pairs: list[tuple[int, int]] = []
    for _ in range(n - 1):
        v = int(best.argmin())
        pairs.append((int(nearest[v]), v))
        keys[:, v] = np.inf
        best[v] = np.inf
        row = keys[v]
        closer = row < best
        np.copyto(best, row, where=closer)
        nearest[closer] = v
    return pairs


def fold_deltas(parents: np.ndarray, children: np.ndarray) -> np.ndarray:
    """(e, 2) planar steps of the (e, 3) tree edges from `parents` to
    `children`: per axis a in (x, y), sgn(da) * sqrt(da^2 + dz^2), with
    sgn(0) = +1 so a zero planar difference still carries the z fold."""
    with np.errstate(over="ignore"):  # an overflow reads inf; flatten_block rejects it
        d = children - parents
        return np.where(d[:, :2] >= 0, 1.0, -1.0) * np.sqrt(d[:, :2] * d[:, :2] + d[:, 2:] * d[:, 2:])


def _pick_root(block: Block, root_seed: Optional[int]) -> int:
    if root_seed is None:
        return 0  # point_ids are ascending, so local 0 is the lowest point id
    salt = zlib.crc32(repr(block.cell_index).encode())
    return random.Random(as_number(root_seed, "root_seed", int) ^ salt).randrange(len(block.point_ids))


def flatten_block(block: Block, cloud: ColorPointCloud, root_seed: Optional[int] = None) -> np.ndarray:
    """The block's points flattened to 2D as an (n, 2) float64 array; row i
    is the block's i-th point and the root sits at the origin.

    The root is the lowest point id, or with `root_seed` a pick seeded by
    it and salted by the block's cell index.  A block so wide that a 2D
    coordinate overflows raises InvalidInput.
    """
    if not len(block.point_ids):
        raise EmptyBlock("cannot flatten an empty block")

    positions = cloud.positions[block.point_ids]
    pairs = build_mst(positions, root=_pick_root(block, root_seed))
    parents, children = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    deltas = fold_deltas(positions[parents], positions[children])
    xy = [(0.0, 0.0)] * len(positions)
    for (parent, child), (dx, dy) in zip(pairs, deltas.tolist()):
        px, py = xy[parent]  # the parent is placed before its children
        xy[child] = (px + dx, py + dy)
    flat = np.array(xy)
    if not np.isfinite(flat).all():
        raise InvalidInput("the block is too wide to flatten: a 2D coordinate overflows float64")
    return flat
