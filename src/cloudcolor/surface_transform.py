"""Flatten a block's 3D points to 2D by walking its minimum spanning tree.

Each MST edge folds the z difference into both planar axes: the child lands
at the parent's 2D position plus sign-preserving distances computed in the
(x,z) and (y,z) planes.  The tree is the Kruskal tree of the complete
Euclidean graph with candidate edges ordered by (weight, smaller id, larger
id), so results are fully deterministic.

Every block first tries a vectorised path: a numpy distance matrix and an
array-based Prim.  It returns the same tree whenever every candidate weight
is separated from every other by more than a relative ``_TIE_RTOL`` (and
none is zero or overflows): numpy's weights then differ from ``math.dist``
by far less than that gap, so both order the edges identically, the MST is
unique, and Prim finds exactly the Kruskal tree.  Blocks that fail the
check (ties, duplicate or far-apart points) take the pure-Python Kruskal.
"""
from __future__ import annotations

import math
import random
import zlib
from collections import deque
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import Block, ColorPointCloud, squared_distance_chunks
from .errors import EmptyBlock, InvalidInput

Coord3 = Tuple[float, float, float]


# numpy and math.dist weights differ by at most ~2e-16 relative; candidate
# weights closer than this are treated as a possible tie.
_TIE_RTOL = 1e-12
# Below this every squared distance is subnormal or zero and loses the
# relative accuracy the tie check relies on.
_MIN_WEIGHT = math.sqrt(np.finfo(np.float64).tiny)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _kruskal_tree(points: Sequence[Coord3]) -> list[tuple[int, int]]:
    """Exact (weight, i, j) Kruskal over every pair; ties need no guard."""
    n = len(points)
    edges = sorted(
        (math.dist(points[i], points[j]), i, j)
        for i in range(n) for j in range(i + 1, n)
    )
    uf = _UnionFind(n)
    tree: list[tuple[int, int]] = []
    for _, i, j in edges:
        if uf.union(i, j):
            tree.append((i, j))
            if len(tree) == n - 1:
                break
    return tree


def _prim_tree(points: np.ndarray) -> Optional[list[tuple[int, int]]]:
    """Array Prim over the distance matrix of (n, 3) `points`, or None when two
    candidate weights lie within ``_TIE_RTOL`` of each other, one is (near)
    zero or one is not finite; the tree is then not provably the Kruskal tree."""
    n = len(points)
    dist = np.sqrt(np.concatenate([d2 for _, d2 in squared_distance_chunks(points, points)]))

    weights = np.sort(dist[np.tri(n, k=-1, dtype=bool)])  # dist is exactly symmetric
    # an overflowed weight is inf; np.diff over it would warn, so it is tested first
    if not (weights[0] >= _MIN_WEIGHT and weights[-1] < np.inf
            and np.all(np.diff(weights) > _TIE_RTOL * weights[1:])):
        return None

    # dist[:, v] = inf once v joins, so rows never offer in-tree nodes again
    dist[:, 0] = np.inf
    best = dist[0].copy()
    nearest = np.zeros(n, dtype=np.intp)
    tree: list[tuple[int, int]] = []
    for _ in range(n - 1):
        v = int(best.argmin())
        tree.append((int(nearest[v]), v))
        dist[:, v] = np.inf
        best[v] = np.inf
        row = dist[v]
        closer = row < best
        np.copyto(best, row, where=closer)
        nearest[closer] = v
    return tree


def build_mst(points: np.ndarray | Sequence[Coord3], root: int = 0) -> list[tuple[int, int]]:
    """Kruskal MST of the complete graph over `points`, an (n, 3) array or a
    sequence of (x, y, z) triples, as (parent, child) id pairs oriented from
    `root`.

    Candidate edges are ordered by (``math.dist`` weight, smaller id, larger
    id); the pairs come in the order of a breadth-first walk visiting
    children in ascending id, so every parent precedes its children.

    Every block first tries the array Prim of ``_prim_tree``.  It runs only
    when all candidate weights are finite, nonzero and pairwise more than a
    relative ``_TIE_RTOL`` apart.  Then the MST is unique and numpy's rounding
    (within ~2e-16 of ``math.dist``) cannot reorder two edges, so Prim's tree
    is exactly the Kruskal tree.  Other blocks fall back to the Kruskal.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    if n == 0:
        raise EmptyBlock("cannot build an MST over zero points")
    if n == 1:
        return []

    tree = _prim_tree(points)
    if tree is None:
        # tuples of Python floats: math.dist converts any other sequence on every call
        tree = _kruskal_tree(list(map(tuple, points.tolist())))
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in tree:
        adjacency[i].append(j)
        adjacency[j].append(i)

    oriented: list[tuple[int, int]] = []
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for child in sorted(adjacency[node]):
            if child not in seen:
                seen.add(child)
                oriented.append((node, child))
                queue.append(child)
    return oriented


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
    return random.Random(root_seed ^ salt).randrange(len(block.point_ids))


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
        px, py = xy[parent]  # BFS order: the parent is already placed
        xy[child] = (px + dx, py + dy)
    flat = np.array(xy)
    if not np.isfinite(flat).all():
        raise InvalidInput("the block is too wide to flatten: a 2D coordinate overflows float64")
    return flat
