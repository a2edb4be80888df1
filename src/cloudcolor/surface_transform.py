"""Flatten a block's 3D points to 2D by walking its minimum spanning tree.

Each MST edge folds the z difference into both planar axes: the child lands
at the parent's 2D position plus sign-preserving distances computed in the
(x,z) and (y,z) planes.  The tree is the Kruskal tree of the complete
Euclidean graph with candidate edges ordered by (weight, smaller id, larger
id), so results are fully deterministic.

Blocks of at least ``_PRIM_MIN_POINTS`` points take a vectorised path: a
numpy distance matrix and an array-based Prim.  It returns the same tree
whenever every candidate weight is separated from every other by more than
a relative ``_TIE_RTOL`` (and none is zero): numpy's weights then differ
from ``math.dist`` by far less than that gap, so both order the edges
identically, the MST is unique, and Prim finds exactly the Kruskal tree.
Blocks that fail the check (ties, duplicate points) and small blocks use
the pure-Python Kruskal.
"""
from __future__ import annotations

import math
import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import Block, ColorPointCloud
from .errors import EmptyBlock

Coord3 = Tuple[float, float, float]


@dataclass(frozen=True)
class MstEdge:
    parent_id: int
    child_id: int
    weight: float


@dataclass(frozen=True, eq=False)
class FlattenedMesh:
    """Per-block 2D coordinates: row i is the block's i-th point."""

    coords: np.ndarray  # (n, 2) float64
    root_id: int


@dataclass(frozen=True)
class RootPolicy:
    """Root selection: lowest point id (default) or a seeded random pick."""

    kind: str = "deterministic"
    seed: int = 0

    @staticmethod
    def deterministic() -> "RootPolicy":
        return RootPolicy("deterministic")

    @staticmethod
    def seeded_random(seed: int) -> "RootPolicy":
        return RootPolicy("random", seed)


# Smallest block sent to the numpy path.  On float32 sphere blocks (2-core
# x86 VM, CPython 3.11, numpy 2.4) build_mst breaks even between 24 and
# 32 points; at 40 it is 1.3-1.7x faster, so a block that fails the tie
# check and pays for both paths loses little.
_PRIM_MIN_POINTS = 40
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


def build_mst(points: Sequence[Coord3], root: int = 0) -> list[MstEdge]:
    """Kruskal MST of the complete graph, oriented parent->child from `root`.

    Candidate edges are ordered by (weight, smaller id, larger id); the
    orientation comes from a breadth-first walk visiting children in
    ascending id.  Edge weights are ``math.dist`` of the endpoints.

    Blocks of ``_PRIM_MIN_POINTS`` or more points first try the array Prim
    of ``_prim_tree``.  It runs only when all candidate weights are nonzero
    and pairwise more than a relative ``_TIE_RTOL`` apart.  Then the MST is
    unique and numpy's rounding (within ~2e-16 of ``math.dist``) cannot
    reorder two edges, so Prim's tree is exactly the Kruskal tree.  Other
    blocks fall back to the Kruskal.
    """
    n = len(points)
    if n == 0:
        raise EmptyBlock("cannot build an MST over zero points")
    if n == 1:
        return []

    tree = _prim_tree(points) if n >= _PRIM_MIN_POINTS else None
    if tree is None:
        tree = _kruskal_tree(points)
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for i, j in tree:
        w = math.dist(points[i], points[j])
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))

    oriented: list[MstEdge] = []
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for child, w in sorted(adjacency[node]):
            if child not in seen:
                seen.add(child)
                oriented.append(MstEdge(parent_id=node, child_id=child, weight=w))
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


def _pick_root(block: Block, policy: RootPolicy) -> int:
    n = len(block.point_ids)
    if policy.kind == "deterministic":
        return 0  # point_ids are ascending, so local 0 is the lowest point id
    salt = zlib.crc32(repr(block.cell_index).encode())
    return random.Random(policy.seed ^ salt).randrange(n)


def flatten_block(
    block: Block, cloud: ColorPointCloud, root_policy: RootPolicy = RootPolicy.deterministic()
) -> FlattenedMesh:
    if not len(block.point_ids):
        raise EmptyBlock("cannot flatten an empty block")

    # tuples of Python floats: math.dist converts any other sequence on every call
    coords = list(map(tuple, cloud.positions[block.point_ids].tolist()))
    root = _pick_root(block, root_policy)
    edges = build_mst(coords, root=root)

    flat = [(0.0, 0.0)] * len(coords)  # the root stays at the origin
    for e in edges:  # BFS order guarantees the parent is already placed
        px, py = flat[e.parent_id]
        dx, dy = fold_deltas(coords[e.parent_id], coords[e.child_id])
        flat[e.child_id] = (px + dx, py + dy)
    return FlattenedMesh(coords=np.array(flat, dtype=float), root_id=int(block.point_ids[root]))
