"""Flatten a block's 3D points to 2D by walking its minimum spanning tree.

Each MST edge folds the z difference into both planar axes: the child lands
at the parent's 2D position plus sign-preserving distances computed in the
(x,z) and (y,z) planes.  The tree is the Kruskal tree of the complete
Euclidean graph with candidate edges ordered by (weight, smaller id, larger
id), so results are fully deterministic.

Every block first tries a vectorised path: a numpy distance matrix and an
array-based Prim.  It returns the same tree whenever every candidate weight
is separated from every other by more than a relative ``_TIE_RTOL`` (and
none is zero): numpy's weights then differ from ``math.dist`` by far less
than that gap, so both order the edges identically, the MST is unique, and
Prim finds exactly the Kruskal tree.  Blocks that fail the check (ties,
duplicate points) take the pure-Python Kruskal.
"""
from __future__ import annotations

import math
import random
import zlib
from collections import deque
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import Block, ColorPointCloud
from .errors import EmptyBlock

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


def _prim_tree(points: Sequence[Coord3]) -> Optional[list[tuple[int, int]]]:
    """Array Prim over the dense distance matrix, or None when two candidate
    weights lie within ``_TIE_RTOL`` of each other, one is (near) zero or
    one is not finite; the tree is then not provably the Kruskal tree."""
    coords = np.array(points, dtype=np.float64)
    n = len(coords)
    dist = np.zeros((n, n))
    step = np.empty((n, n))
    for axis in coords.T:
        np.subtract.outer(axis, axis, out=step)
        step *= step
        dist += step
    np.sqrt(dist, out=dist)

    weights = np.sort(dist[np.tri(n, k=-1, dtype=bool)])  # dist is exactly symmetric
    # NaN and inf fail both comparisons
    if not (weights[0] >= _MIN_WEIGHT and np.all(np.diff(weights) > _TIE_RTOL * weights[1:])):
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


def build_mst(points: Sequence[Coord3], root: int = 0) -> list[tuple[int, int]]:
    """Kruskal MST of the complete graph as (parent, child) id pairs,
    oriented from `root`.

    Candidate edges are ordered by (``math.dist`` weight, smaller id, larger
    id); the pairs come in the order of a breadth-first walk visiting
    children in ascending id, so every parent precedes its children.

    Every block first tries the array Prim of ``_prim_tree``.  It runs only
    when all candidate weights are nonzero and pairwise more than a relative
    ``_TIE_RTOL`` apart.  Then the MST is unique and numpy's rounding (within
    ~2e-16 of ``math.dist``) cannot reorder two edges, so Prim's tree is
    exactly the Kruskal tree.  Other blocks fall back to the Kruskal.
    """
    n = len(points)
    if n == 0:
        raise EmptyBlock("cannot build an MST over zero points")
    if n == 1:
        return []

    tree = _prim_tree(points)
    if tree is None:
        tree = _kruskal_tree(points)
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


def _sgn(d: float) -> float:
    # sgn(0) := +1 so a zero planar difference still carries the z fold
    return 1.0 if d >= 0 else -1.0


def fold_deltas(parent: Coord3, child: Coord3) -> Tuple[float, float]:
    dx, dy, dz = (child[0] - parent[0], child[1] - parent[1], child[2] - parent[2])
    return (
        _sgn(dx) * math.sqrt(dx * dx + dz * dz),
        _sgn(dy) * math.sqrt(dy * dy + dz * dz),
    )


def _pick_root(block: Block, root_seed: Optional[int]) -> int:
    if root_seed is None:
        return 0  # point_ids are ascending, so local 0 is the lowest point id
    salt = zlib.crc32(repr(block.cell_index).encode())
    return random.Random(root_seed ^ salt).randrange(len(block.point_ids))


def flatten_block(block: Block, cloud: ColorPointCloud, root_seed: Optional[int] = None) -> np.ndarray:
    """The block's points flattened to 2D as an (n, 2) float64 array; row i
    is the block's i-th point and the root sits at the origin.

    The root is the lowest point id, or with `root_seed` a pick seeded by
    it and salted by the block's cell index.
    """
    if not len(block.point_ids):
        raise EmptyBlock("cannot flatten an empty block")

    # tuples of Python floats: math.dist converts any other sequence on every call
    coords = list(map(tuple, cloud.positions[block.point_ids].tolist()))
    flat = [(0.0, 0.0)] * len(coords)
    for parent, child in build_mst(coords, root=_pick_root(block, root_seed)):
        px, py = flat[parent]  # BFS order: the parent is already placed
        dx, dy = fold_deltas(coords[parent], coords[child])
        flat[child] = (px + dx, py + dy)
    return np.array(flat, dtype=float)
