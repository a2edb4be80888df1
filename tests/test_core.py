import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cloudcolor import core
from cloudcolor.core import ColorPointCloud, nearest_original_color, partition_into_blocks
from cloudcolor.errors import EmptyCloud, EmptySamples, InvalidConfig, InvalidInput

from conftest import random_cloud
from oracles import nearest_original_color_oracle, partition_oracle


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
