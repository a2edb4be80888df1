import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcolor.core import Block, ColorPointCloud, partition_into_blocks
from cloudcolor.errors import EmptyBlock, InvalidConfig, InvalidInput
from cloudcolor.surface_transform import _prim_keys, build_mst, flatten_block, fold_deltas

from conftest import random_cloud
from oracles import brute_force_mst_weight, fold_2d_oracle, kruskal_mst_oracle


def mst_weight(points, pairs):
    return sum(math.dist(points[p], points[c]) for p, c in pairs)


def single_block(coords):
    cloud = ColorPointCloud(coords, np.zeros((len(coords), 3), dtype=int))
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
        points = [(0, 0, 0), (1, 0, 0), (3, 0, 0)]
        assert build_mst(points) == [(0, 1), (1, 2)]
        assert mst_weight(points, build_mst(points)) == brute_force_mst_weight(points) == 3.0

    def test_four_random_points_minimal(self):
        rng = np.random.default_rng(11)
        points = [tuple(c) for c in rng.uniform(0, 5, size=(4, 3))]
        weight = mst_weight(points, build_mst(points))
        assert weight == pytest.approx(brute_force_mst_weight(points), abs=1e-12)

    def test_tree_shape(self):
        rng = np.random.default_rng(2)
        points = [tuple(c) for c in rng.uniform(0, 5, size=(9, 3))]
        edges = build_mst(points, root=0)
        assert len(edges) == len(points) - 1
        reached = {0} | {child for _, child in edges}
        assert reached == set(range(len(points)))

    def test_duplicate_coordinates_are_legal(self):
        edges = build_mst([(1, 1, 1), (1, 1, 1), (2, 2, 2)])
        assert len(edges) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = [tuple(c) for c in rng.uniform(0, 5, size=(12, 3))]
        assert build_mst(points, root=3) == build_mst(points, root=3)

    def test_far_apart_points_take_the_kruskal_without_warnings(self):
        # squared distances overflow to inf: the separation test must refuse
        # them without warning on inf - inf (warnings are errors in this suite)
        points = [(0, 0, 0), (1e200, 0, 0), (0, 3e200, 0)]
        assert rank_keyed(points)
        assert build_mst(points) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("root", [-1, 3, 1.0, "0", None, True, np.bool_(True)])
    def test_root_must_be_a_point_index(self, root):
        with pytest.raises(InvalidConfig, match="MST root"):
            build_mst([(0, 0, 0), (1, 0, 0), (3, 0, 0)], root=root)

    def test_numpy_integer_root(self):
        assert build_mst([(0, 0, 0), (1, 0, 0), (3, 0, 0)], root=np.int64(2)) == [(2, 1), (1, 0)]


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


def rank_keyed(points):
    """Whether `points` fail the separation test, so that build_mst keys
    its Prim by exact ranks rather than numpy's distances."""
    return _prim_keys(np.array(points, dtype=float))[1]


def mst_triples(points, root):
    """build_mst's tree as sorted (parent, child, math.dist) triples, after
    checking that every parent is placed before its children."""
    pairs = build_mst(points, root=root)
    placed = {root}
    for parent, child in pairs:
        assert parent in placed and child not in placed
        placed.add(child)
    return sorted((p, c, math.dist(points[p], points[c])) for p, c in pairs)


def oracle_triples(points, root):
    return sorted(kruskal_mst_oracle(points, root))


class TestBuildMstMatchesKruskal:
    """build_mst against the pure-Python Kruskal reference on blocks whose
    Prim keys are numpy's distances, and on blocks that need exact ranks."""

    @pytest.mark.parametrize("make, n, float32", [
        (sphere_block, 40, True),
        (sphere_block, 107, False),
        (sphere_block, 500, True),
        (planar_block, 40, False),
        (planar_block, 200, True),
        (planar_block, 500, False),
    ])
    def test_vectorised_path_is_exact(self, make, n, float32):
        points = make(n, seed=n, float32=float32)
        assert not rank_keyed(points)  # numpy's distances are the keys
        for root in (0, n // 2, n - 1):
            assert mst_triples(points, root) == oracle_triples(points, root)

    @pytest.mark.parametrize("float32", [True, False])
    @pytest.mark.parametrize("make", [sphere_block, planar_block])
    def test_small_blocks_are_exact(self, make, float32):
        # the sizes of eval-sweep's blocks (mean 27 points on the 1.5k sphere)
        for n in range(2, 40):
            points = make(n, seed=n, float32=float32)
            for root in sorted({0, n // 2, n - 1}):
                assert mst_triples(points, root) == oracle_triples(points, root), (n, root)

    def test_unit_square_tie_falls_back(self):
        points = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]
        assert rank_keyed(points)
        for root in range(4):
            assert mst_triples(points, root) == oracle_triples(points, root)

    def test_exact_tie_lattice_falls_back(self):
        # shuffled so that Prim's growth order would break ties differently
        # from the (weight, i, j) order
        grid = [(float(x), float(y), 2.0) for x in range(8) for y in range(8)]
        points = [grid[i] for i in np.random.default_rng(3).permutation(len(grid))]
        assert rank_keyed(points)
        for root in (0, 27, 63):
            assert mst_triples(points, root) == oracle_triples(points, root)

    def test_near_tie_lattice_falls_back(self):
        # jitter far below the tie tolerance: numpy and math.dist may order
        # these weights differently, so only the Kruskal may decide
        rng = np.random.default_rng(4)
        grid = np.array([(x, y, z) for x in range(4) for y in range(4) for z in range(4)], float)
        points = _as_points(grid + rng.uniform(-1e-14, 1e-14, size=grid.shape), False)
        assert rank_keyed(points)
        assert mst_triples(points, 5) == oracle_triples(points, 5)

    def test_weights_within_tolerance_fall_back(self):
        # two distinct weights 1e-13 apart: distinct, yet too close to trust
        points = sphere_block(100, seed=8, float32=False)
        a, b, c = (np.array(points[i]) for i in (0, 1, 2))
        points[3] = tuple(float(v) for v in c + (b - a) * (1.0 + 1e-13))
        assert rank_keyed(points)
        assert mst_triples(points, 0) == oracle_triples(points, 0)

    def test_duplicate_points_fall_back(self):
        points = sphere_block(120, seed=7, float32=True)
        points[30] = points[10]
        points[99] = points[10]
        points[100] = points[55]
        assert rank_keyed(points)
        for root in (0, 10, 99):
            assert mst_triples(points, root) == oracle_triples(points, root)


def tie_heavy_block(kind, n, rng):
    """n points of a kind whose candidate weights tie or nearly tie."""
    if kind == "sphere copies":
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        array = (directions * 8.0).astype(np.float32).astype(float)
    elif kind == "tenths":
        array = rng.integers(0, 6, size=(n, 3)) * 0.1
    elif kind == "subnormal":
        # squared distances below the smallest normal float64: numpy may
        # order these weights wrongly by far more than the tie tolerance
        array = rng.uniform(0.0, 4.0, size=(n, 3)) * 1e-162
    else:
        array = rng.integers(0, 3, size=(n, 3)) * {"lattice": 1.0, "jitter": 1.0, "tiny": 1e-160, "huge": 1e200}[kind]
        if kind == "jitter":
            array += rng.uniform(-1e-14, 1e-14, size=array.shape)
    copies = int(rng.integers(0, n))
    array[rng.integers(0, n, size=copies)] = array[rng.integers(0, n, size=copies)]
    return [tuple(float(c) for c in row) for row in array]


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["lattice", "tenths", "jitter", "sphere copies", "tiny", "subnormal", "huge"]),
       n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), root_share=st.floats(0.0, 1.0, exclude_max=True))
def test_tie_heavy_blocks_match_kruskal(kind, n, seed, root_share):
    points = tie_heavy_block(kind, n, np.random.default_rng(seed))
    root = int(root_share * n)
    assert mst_triples(points, root) == oracle_triples(points, root)


def flat_by_id(block, flat):
    """Flattened (x, y) keyed by point id."""
    return dict(zip(block.point_ids.tolist(), map(tuple, flat.tolist())))


class TestFlattenBlock:
    def test_coords_are_an_n_by_2_float_array(self):
        block, cloud = single_block([(5, 5, 5), (0, 0, 0), (1, 1, 1)])
        flat = flatten_block(block, cloud)
        assert flat.shape == (3, 2) and flat.dtype == np.float64

    def test_single_point(self):
        block, cloud = single_block([(2, 3, 4)])
        assert flatten_block(block, cloud).tolist() == [[0.0, 0.0]]

    def test_direct_fold_example(self):
        # root at origin, child at (3,0,4): folds to (5, 4) with sgn(0)=+1
        block, cloud = single_block([(0, 0, 0), (3, 0, 4)])
        flat = flat_by_id(block, flatten_block(block, cloud))
        assert flat[0] == (0.0, 0.0)
        assert flat[1] == (5.0, 4.0)

    def test_chain_example(self):
        block, cloud = single_block([(0, 0, 0), (1, 0, 0), (1, -2, 0)])
        flat = flat_by_id(block, flatten_block(block, cloud))
        assert flat[0] == (0.0, 0.0)
        assert flat[1] == (1.0, 0.0)
        assert flat[2] == (1.0, -2.0)

    def test_edge_consistency_random_blocks(self):
        for seed in range(30):
            cloud = random_cloud(12, seed=seed, extent=4.0)
            block = partition_into_blocks(cloud, 1e9)[0]
            flat = flat_by_id(block, flatten_block(block, cloud))
            coords = [tuple(c) for c in cloud.positions[block.point_ids].tolist()]
            for parent, child in build_mst(coords, root=0):
                dx, dy = fold_2d_oracle(coords[parent], coords[child])
                pid_parent = block.point_ids[parent]
                pid_child = block.point_ids[child]
                assert flat[pid_child][0] - flat[pid_parent][0] == pytest.approx(dx, abs=1e-12)
                assert flat[pid_child][1] - flat[pid_parent][1] == pytest.approx(dy, abs=1e-12)

    def test_planar_cloud_is_rigid_translation(self):
        # identical z: flattening reproduces the (x, y) layout exactly
        rng = np.random.default_rng(9)
        coords = [(float(x), float(y), 1.5) for x, y in rng.uniform(0, 4, size=(15, 2))]
        block, cloud = single_block(coords)
        root_xy = coords[0][:2]
        for pid, (fx, fy) in flat_by_id(block, flatten_block(block, cloud)).items():
            x, y, _ = coords[pid]
            assert fx == pytest.approx(x - root_xy[0], abs=1e-12)
            assert fy == pytest.approx(y - root_xy[1], abs=1e-12)

    @pytest.mark.parametrize("root_seed", [None, 3])
    def test_empty_block_raises(self, root_seed):
        # with a seed, the root pick would end in randrange(0)'s ValueError
        _, cloud = single_block([(2, 3, 4)])
        empty = Block(cell_index=(0, 0, 0), point_ids=np.array([], dtype=np.intp))
        with pytest.raises(EmptyBlock, match="^cannot flatten an empty block$"):
            flatten_block(empty, cloud, root_seed=root_seed)

    def test_deterministic_root_is_lowest_id(self):
        block, cloud = single_block([(5, 5, 5), (0, 0, 0), (1, 1, 1)])
        flat = flatten_block(block, cloud, root_seed=None)
        assert flat[0].tolist() == [0.0, 0.0]  # point 0 is the root
        assert flat[1].tolist() != [0.0, 0.0]

    def test_seeded_random_root_is_reproducible(self):
        block, cloud = single_block([(5, 5, 5), (0, 0, 0), (1, 1, 1)])
        a = flatten_block(block, cloud, root_seed=42)
        b = flatten_block(block, cloud, root_seed=42)
        assert a.tolist() == b.tolist()
        roots = {int(np.flatnonzero(~flatten_block(block, cloud, root_seed=s).any(axis=1))[0]) for s in range(20)}
        assert len(roots) > 1  # the seed picks the root

    def test_fold_deltas_sign_convention(self):
        dx, dy = fold_deltas(np.array([(0, 0, 0)]), np.array([(0, 0, 2)]))[0]
        assert (dx, dy) == (2.0, 2.0)  # sgn(0) = +1 keeps the z fold
        dx, dy = fold_deltas(np.array([(0, 0, 0)]), np.array([(-3, -4, 0)]))[0]
        assert (dx, dy) == (-3.0, -4.0)

    def test_block_too_wide_to_flatten(self):
        # dx * dx overflows: the fold would write inf and nan coordinates
        cloud = ColorPointCloud([(0, 0, 0), (1e200, 0, 0), (0, 3e200, 0), (1e199, 1e199, 0)], np.zeros((4, 3), int))
        block = partition_into_blocks(cloud, 1e300)[0]
        assert len(block.point_ids) == 4
        with pytest.raises(InvalidInput, match="too wide"):
            flatten_block(block, cloud)
