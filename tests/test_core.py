import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cloudcolor import core
from cloudcolor.core import ColorPointCloud, nearest_original_color, partition_into_blocks
from cloudcolor.errors import EmptyCloud, EmptySamples, InvalidConfig, InvalidInput

from cloudcolor.evaluation import sphere_cloud
from conftest import random_cloud
from oracles import nearest_ids_oracle, nearest_original_color_oracle, partition_oracle, partition_unique_oracle


def cloud_of(*coords):
    return ColorPointCloud(coords, np.zeros((len(coords), 3), dtype=int))


class TestColorPointCloud:
    def test_original_requires_color(self):
        with pytest.raises(InvalidConfig):
            ColorPointCloud([(0, 0, 0)], original=[True])

    def test_reconstruct_may_lack_color(self):
        cloud = ColorPointCloud([(0, 0, 0)], original=[False])
        assert not cloud.colored[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coordinates(self, bad):
        with pytest.raises(InvalidConfig):
            ColorPointCloud([(bad, 0, 0)], [(1, 2, 3)])

    @pytest.mark.parametrize("color", [(0, 0, 256), (-1, 0, 0), (0.5, 0, 0)])
    def test_rejects_out_of_range_color(self, color):
        with pytest.raises(InvalidConfig):
            ColorPointCloud([(0, 0, 0)], [color])

    def test_uncolored_points_ignore_their_color_values(self):
        cloud = ColorPointCloud([(0, 0, 0), (1, 0, 0)], [(1, 2, 3), (999, 0, 0)], colored=[True, False])
        assert cloud.colors.tolist() == [[1, 2, 3], [0, 0, 0]]
        assert cloud.original.tolist() == [True, False]

    @pytest.mark.parametrize("positions, colors, original", [
        ([(0, 0)], None, None),
        ([(0, 0, 0)], [(1, 2)], None),
        ([(0, 0, 0)], [(1, 2, 3)], [True, True]),
    ])
    def test_rejects_mismatched_shapes(self, positions, colors, original):
        with pytest.raises(InvalidConfig):
            ColorPointCloud(positions, colors, original=original)

    def test_arrays_are_copied_and_read_only(self):
        positions = np.zeros((2, 3))
        cloud = ColorPointCloud(positions, [(1, 2, 3), (4, 5, 6)])
        positions[0, 0] = 7.0
        assert cloud.positions[0, 0] == 0.0
        with pytest.raises(ValueError):
            cloud.colors[0, 0] = 9


class TestPartition:
    def test_floor_convention(self):
        blocks = partition_into_blocks(cloud_of((0.5, 0.5, 0.5), (4.5, 0.5, 0.5)), 4.0)
        assert [b.cell_index for b in blocks] == [(0, 0, 0), (1, 0, 0)]

    def test_single_block_contains_all(self):
        blocks = partition_into_blocks(cloud_of((0, 0, 0), (1, 2, 3), (3.9, 3.9, 3.9)), 4.0)
        assert len(blocks) == 1
        assert blocks[0].point_ids.tolist() == [0, 1, 2]

    def test_boundary_point_goes_to_next_cell(self):
        # local coordinate exactly 4.0 with block_size 4: half-open cells
        blocks = partition_into_blocks(cloud_of((0, 0, 0), (4.0, 0, 0)), 4.0)
        assert [b.cell_index for b in blocks] == [(0, 0, 0), (1, 0, 0)]

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            partition_into_blocks(ColorPointCloud([]), 4.0)

    @pytest.mark.parametrize("coords, size", [
        (((-1.7e308, 0, 0), (1.7e308, 0, 0)), 4.0),
        (((0, 0, 0), (0, 1e300, 0)), 1e-10),
    ])
    def test_cell_index_overflow(self, coords, size):
        with pytest.raises(InvalidInput, match="too many cells"):
            partition_into_blocks(cloud_of(*coords), size)

    def test_nonpositive_block_size(self):
        with pytest.raises(InvalidConfig):
            partition_into_blocks(cloud_of((0, 0, 0)), 0.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_nonfinite_block_size(self, size):
        with pytest.raises(InvalidConfig):
            partition_into_blocks(cloud_of((0, 0, 0)), size)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 1000), size=st.floats(0.5, 8.0))
    def test_partition_exhaustive_and_disjoint(self, n, seed, size):
        cloud = random_cloud(n, seed)
        blocks = partition_into_blocks(cloud, size)
        ids = [pid for b in blocks for pid in b.point_ids]
        assert sorted(ids) == list(range(n))
        assert len(ids) == len(set(ids))
        assert [(b.cell_index, b.point_ids.tolist()) for b in blocks] == partition_oracle(cloud, size)

    def test_partition_deterministic(self):
        cloud = random_cloud(50, seed=3)

        def summary(blocks):
            return [(b.cell_index, b.point_ids.tolist()) for b in blocks]

        assert summary(partition_into_blocks(cloud, 2.5)) == summary(partition_into_blocks(cloud, 2.5))

    def test_cell_index_matches_floor_identity(self):
        cloud = random_cloud(60, seed=4)
        size = 3.0
        origin = cloud.positions.min(axis=0).tolist()
        blocks = partition_into_blocks(cloud, size)
        assert [b.cell_index for b in blocks] == sorted(b.cell_index for b in blocks)
        for b in blocks:
            assert all(type(i) is int for i in b.cell_index)
            assert b.point_ids.tolist() == sorted(b.point_ids.tolist())
            for pid in b.point_ids.tolist():
                expected = tuple(math.floor((c - o) / size) for c, o in zip(cloud.positions[pid].tolist(), origin))
                assert expected == b.cell_index

    def test_cell_index_beyond_int64(self):
        blocks = partition_into_blocks(cloud_of((0, 0, 0), (0, 1e300, 0)), 1.0)
        assert [b.cell_index for b in blocks] == [(0, 0, 0), (0, math.floor(1e300), 0)]

    @settings(max_examples=60, deadline=None)
    @given(
        # few distinct coordinates: duplicate points and shared cells
        points=st.lists(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 3.9, 4.0, 7.25, 1e3])] * 3), min_size=1, max_size=40),
        # one cell for every cloud, cells of a few points, and cell indices beyond int64 (1e3 / 1e-300)
        size=st.sampled_from([1e6, 4.0, 0.5, 1e-300]) | st.floats(0.1, 10.0),
    )
    def test_matches_the_unique_grouping(self, points, size):
        blocks = partition_into_blocks(cloud_of(*points), size)
        expected = partition_unique_oracle(cloud_of(*points), size)
        assert [b.cell_index for b in blocks] == [key for key, _ in expected]
        for block, (_, ids) in zip(blocks, expected):
            assert block.point_ids.dtype == ids.dtype and block.point_ids.tolist() == ids.tolist()
        if size == 1e6:
            assert len(blocks) == 1


@st.composite
def nearest_lookups(draw):
    """(positions, queries) for `nearest_ids`: 1 to 5 columns of lattice
    coordinates (exact ties) or random ones, rows repeated from a pool
    (duplicate and all-identical rows), maybe one column of zero span,
    queries inside and past the positions' box and a subnormal step off
    them, all at a scale from subnormal to overflowing."""
    d, n, k = draw(st.integers(1, 5)), draw(st.sampled_from([60, 1, 2, 9, 30])), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())

    def coords(count, spread):
        return (rng.integers(-3, 4, size=(count, d)) if lattice else rng.uniform(-4, 4, size=(count, d))) * spread

    pool = coords(draw(st.sampled_from([n, n // 4 + 1, n // 2 + 1, 1])), 1.0)
    positions = pool[rng.integers(0, len(pool), size=n)]
    queries = coords(k, draw(st.sampled_from([0.5, 1.0, 3.0])))  # 0.5: half-lattice ties; 3: mostly past the box
    if d > 1 and draw(st.booleans()):
        positions[:, rng.integers(d)] = positions[0, 0]
    if draw(st.booleans()):
        queries = np.concatenate([queries, positions[:k] + rng.integers(-2, 3, size=(min(k, n), d)) * 5e-324])
    scale = draw(st.just(1.0) | st.sampled_from([3e153, 1e154, 1e300, 1e-310, 5e-324]))
    return positions * scale, queries * scale


class TestNearestIds:
    @settings(max_examples=400, deadline=None)
    @given(lookup=nearest_lookups(), chunk_values=st.sampled_from([1, 7, core._NEAREST_CHUNK_VALUES]), grid=st.booleans())
    def test_matches_the_scan_oracle(self, lookup, chunk_values, grid):
        positions, queries = lookup
        try:
            expected = nearest_ids_oracle(positions, queries)
        except InvalidInput:
            expected = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_NEAREST_CHUNK_VALUES", chunk_values)
            if grid:  # every lookup, however small, tries the grid first
                patch.setattr(core, "_GRID_MIN_PAIRS", 0)
                patch.setattr(core, "_GRID_MIN_QUERIES", 0)
            if expected is None:
                with pytest.raises(InvalidInput):
                    core.nearest_ids(positions, queries)
            else:
                ids = core.nearest_ids(positions, queries)
                assert ids.dtype == np.intp and ids.tolist() == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e-310])  # 1e-310: every squared distance underflows to a tie at 0
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_matches_the_full_scan_on_clusters(self, d, scale, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-50, 50, size=(5, d))
        positions = (centers[rng.integers(0, 5, size=400)] + rng.normal(size=(400, d)) * rng.uniform(0.1, 5)) * scale
        queries = rng.uniform(-60, 60, size=(300, d)) * scale
        monkeypatch.setattr(core, "_GRID_MIN_QUERIES", len(queries) + 1)
        full = core.nearest_ids(positions, queries)
        monkeypatch.setattr(core, "_GRID_MIN_QUERIES", 0)
        assert core.nearest_ids(positions, queries).tolist() == full.tolist()

    def test_a_nearer_position_two_cells_away_is_found(self, monkeypatch):
        # cells of side 1: the query's neighbours, cells 0 to 2, hold only 0.0,
        # while 3.0, in cell 3, is nearer
        monkeypatch.setattr(core, "_GRID_MIN_PAIRS", 0)
        monkeypatch.setattr(core, "_GRID_MIN_QUERIES", 0)
        assert core.nearest_ids(np.array([[0.0], [3.0], [3.5], [4.0]]), np.array([[1.9], [0.4]])).tolist() == [1, 0]

    def test_sphere_holes_never_reach_the_full_scan(self, monkeypatch):
        # without pruning the lookup would quietly decay into the all-pairs scan
        cloud = sphere_cloud(20_000, seed=3)
        holes = np.random.default_rng(3).random(len(cloud)) < 0.01
        positions, queries = cloud.positions[~holes], cloud.positions[holes]
        scanned, scan = [], core.squared_distance_chunks
        monkeypatch.setattr(core, "squared_distance_chunks", lambda p, q: scanned.append(len(q)) or scan(p, q))
        ids = core.nearest_ids(positions, queries)
        assert len(queries) > 150 and sum(scanned) == 0
        monkeypatch.setattr(core, "_GRID_MIN_QUERIES", len(queries) + 1)
        assert ids.tolist() == core.nearest_ids(positions, queries).tolist()
        assert sum(scanned) == len(queries)


class TestNearestOriginal:
    def lattice_cloud(self, seed):
        # integer coordinates: exact distances and many exact ties
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, 4, size=(60, 3))
        original = np.array([rng.random() < 0.5 for _ in range(60)])
        colors = np.repeat(np.arange(60)[:, None], 3, axis=1)
        return ColorPointCloud(positions, colors, original=original, colored=original)

    @pytest.mark.parametrize("chunk_values", [1 << 14, 7, 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_seed_scan(self, seed, chunk_values, monkeypatch):
        monkeypatch.setattr(core, "_NEAREST_CHUNK_VALUES", chunk_values)
        cloud = self.lattice_cloud(seed)
        rng = np.random.default_rng(100 + seed)
        queries = np.concatenate([rng.integers(0, 8, size=(40, 3)) / 2, cloud.positions])
        expected = [nearest_original_color_oracle(cloud, q) for q in queries.tolist()]
        assert list(map(tuple, nearest_original_color(cloud, queries).tolist())) == expected

    def test_no_originals(self):
        cloud = ColorPointCloud([(0, 0, 0)], original=[False])
        with pytest.raises(EmptySamples):
            nearest_original_color(cloud, [[0, 0, 0]])
