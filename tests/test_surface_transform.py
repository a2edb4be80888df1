import math

import numpy as np
import pytest

from cloudcolor.core import ColorPoint, ColorPointCloud, partition_into_blocks
from cloudcolor.errors import EmptyBlock
from cloudcolor.surface_transform import (
    _PRIM_MIN_POINTS, RootPolicy, _prim_tree, build_mst, flatten_block, fold_deltas,
)

from conftest import random_cloud
from oracles import brute_force_mst_weight, fold_2d_oracle, kruskal_mst_oracle


def single_block(coords):
    cloud = ColorPointCloud([ColorPoint(x, y, z, color=(0, 0, 0)) for x, y, z in coords])
    blocks = partition_into_blocks(cloud, 1e9)
    assert len(blocks) == 1
    return blocks[0], cloud


class TestBuildMst:
    def test_single_point(self):
        assert build_mst([(0, 0, 0)]) == []

    def test_empty_raises(self):
        with pytest.raises(EmptyBlock):
            build_mst([])

    def test_collinear_chain(self):
        edges = build_mst([(0, 0, 0), (1, 0, 0), (3, 0, 0)])
        pairs = {(min(e.parent_id, e.child_id), max(e.parent_id, e.child_id)): e.weight for e in edges}
        assert pairs == {(0, 1): 1.0, (1, 2): 2.0}
        assert sum(pairs.values()) == brute_force_mst_weight([(0, 0, 0), (1, 0, 0), (3, 0, 0)])

    def test_four_random_points_minimal(self):
        rng = np.random.default_rng(11)
        points = [tuple(c) for c in rng.uniform(0, 5, size=(4, 3))]
        weight = sum(e.weight for e in build_mst(points))
        assert weight == pytest.approx(brute_force_mst_weight(points), abs=1e-12)

    def test_tree_shape(self):
        rng = np.random.default_rng(2)
        points = [tuple(c) for c in rng.uniform(0, 5, size=(9, 3))]
        edges = build_mst(points, root=0)
        assert len(edges) == len(points) - 1
        reached = {0} | {e.child_id for e in edges}
        assert reached == set(range(len(points)))

    def test_duplicate_coordinates_are_legal(self):
        edges = build_mst([(1, 1, 1), (1, 1, 1), (2, 2, 2)])
        assert len(edges) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = [tuple(c) for c in rng.uniform(0, 5, size=(12, 3))]
        assert build_mst(points, root=3) == build_mst(points, root=3)


def _as_points(array, float32):
    if float32:
        array = array.astype(np.float32)
    return [tuple(float(c) for c in row) for row in array]


def sphere_block(n, seed, float32):
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return _as_points(directions * 8.0, float32)


def planar_block(n, seed, float32):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 4.0, size=(n, 2))
    z = 0.3 * xy[:, 0] - 0.2 * xy[:, 1] + 1.0
    return _as_points(np.column_stack([xy, z]), float32)


def mst_triples(points, root):
    return [(e.parent_id, e.child_id, e.weight) for e in build_mst(points, root=root)]


class TestBuildMstMatchesKruskal:
    """build_mst against the pure-Python Kruskal reference on blocks large
    enough for the vectorised path, and on blocks that must fall back."""

    @pytest.mark.parametrize("make, n, float32", [
        (sphere_block, _PRIM_MIN_POINTS, True),
        (sphere_block, 107, False),
        (sphere_block, 500, True),
        (planar_block, _PRIM_MIN_POINTS, False),
        (planar_block, 200, True),
        (planar_block, 500, False),
    ])
    def test_vectorised_path_is_exact(self, make, n, float32):
        points = make(n, seed=n, float32=float32)
        assert _prim_tree(points) is not None  # the fast path runs
        for root in (0, n // 2, n - 1):
            assert mst_triples(points, root) == kruskal_mst_oracle(points, root)

    def test_exact_tie_lattice_falls_back(self):
        # shuffled so that Prim's growth order would break ties differently
        # from the (weight, i, j) order
        grid = [(float(x), float(y), 2.0) for x in range(8) for y in range(8)]
        points = [grid[i] for i in np.random.default_rng(3).permutation(len(grid))]
        assert _prim_tree(points) is None
        for root in (0, 27, 63):
            assert mst_triples(points, root) == kruskal_mst_oracle(points, root)

    def test_near_tie_lattice_falls_back(self):
        # jitter far below the tie tolerance: numpy and math.dist may order
        # these weights differently, so only the Kruskal may decide
        rng = np.random.default_rng(4)
        grid = np.array([(x, y, z) for x in range(4) for y in range(4) for z in range(4)], float)
        points = _as_points(grid + rng.uniform(-1e-14, 1e-14, size=grid.shape), False)
        assert _prim_tree(points) is None
        assert mst_triples(points, 5) == kruskal_mst_oracle(points, 5)

    def test_weights_within_tolerance_fall_back(self):
        # two distinct weights 1e-13 apart: distinct, yet too close to trust
        points = sphere_block(100, seed=8, float32=False)
        a, b, c = (np.array(points[i]) for i in (0, 1, 2))
        points[3] = tuple(float(v) for v in c + (b - a) * (1.0 + 1e-13))
        assert _prim_tree(points) is None
        assert mst_triples(points, 0) == kruskal_mst_oracle(points, 0)

    def test_duplicate_points_fall_back(self):
        points = sphere_block(120, seed=7, float32=True)
        points[30] = points[10]
        points[99] = points[10]
        points[100] = points[55]
        assert _prim_tree(points) is None
        for root in (0, 10, 99):
            assert mst_triples(points, root) == kruskal_mst_oracle(points, root)


class TestFlattenBlock:
    def test_single_point(self):
        block, cloud = single_block([(2, 3, 4)])
        mesh = flatten_block(block, cloud)
        assert mesh.entries == ((0, 0.0, 0.0),)
        assert mesh.root_id == 0

    def test_direct_fold_example(self):
        # root at origin, child at (3,0,4): folds to (5, 4) with sgn(0)=+1
        block, cloud = single_block([(0, 0, 0), (3, 0, 4)])
        mesh = flatten_block(block, cloud)
        flat = {pid: (x, y) for pid, x, y in mesh.entries}
        assert flat[0] == (0.0, 0.0)
        assert flat[1] == (5.0, 4.0)

    def test_chain_example(self):
        block, cloud = single_block([(0, 0, 0), (1, 0, 0), (1, -2, 0)])
        mesh = flatten_block(block, cloud)
        flat = {pid: (x, y) for pid, x, y in mesh.entries}
        assert flat[0] == (0.0, 0.0)
        assert flat[1] == (1.0, 0.0)
        assert flat[2] == (1.0, -2.0)

    def test_edge_consistency_random_blocks(self):
        for seed in range(30):
            cloud = random_cloud(12, seed=seed, extent=4.0)
            block = partition_into_blocks(cloud, 1e9)[0]
            mesh = flatten_block(block, cloud)
            flat = {pid: (x, y) for pid, x, y in mesh.entries}
            coords = [cloud.points[pid].coords for pid in block.point_ids]
            edges = build_mst(coords, root=0)
            for e in edges:
                dx, dy = fold_2d_oracle(coords[e.parent_id], coords[e.child_id])
                pid_parent = block.point_ids[e.parent_id]
                pid_child = block.point_ids[e.child_id]
                assert flat[pid_child][0] - flat[pid_parent][0] == pytest.approx(dx, abs=1e-12)
                assert flat[pid_child][1] - flat[pid_parent][1] == pytest.approx(dy, abs=1e-12)

    def test_planar_cloud_is_rigid_translation(self):
        # identical z: flattening reproduces the (x, y) layout exactly
        rng = np.random.default_rng(9)
        coords = [(float(x), float(y), 1.5) for x, y in rng.uniform(0, 4, size=(15, 2))]
        block, cloud = single_block(coords)
        mesh = flatten_block(block, cloud)
        root_xy = coords[0][:2]
        for pid, fx, fy in mesh.entries:
            x, y, _ = coords[pid]
            assert fx == pytest.approx(x - root_xy[0], abs=1e-12)
            assert fy == pytest.approx(y - root_xy[1], abs=1e-12)

    def test_deterministic_root_is_lowest_id(self):
        block, cloud = single_block([(5, 5, 5), (0, 0, 0), (1, 1, 1)])
        mesh = flatten_block(block, cloud, RootPolicy.deterministic())
        assert mesh.root_id == 0

    def test_seeded_random_root_is_reproducible(self):
        block, cloud = single_block([(5, 5, 5), (0, 0, 0), (1, 1, 1)])
        a = flatten_block(block, cloud, RootPolicy.seeded_random(42))
        b = flatten_block(block, cloud, RootPolicy.seeded_random(42))
        assert a == b

    def test_fold_deltas_sign_convention(self):
        dx, dy = fold_deltas((0, 0, 0), (0, 0, 2))
        assert (dx, dy) == (2.0, 2.0)  # sgn(0) = +1 keeps the z fold
        dx, dy = fold_deltas((0, 0, 0), (-3, -4, 0))
        assert (dx, dy) == (-3.0, -4.0)
