import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cloudcolor import core
from cloudcolor.core import ColorPoint, ColorPointCloud, Role, nearest_original_color, partition_into_blocks
from cloudcolor.errors import EmptyCloud, EmptySamples, InvalidConfig, InvalidInput

from conftest import random_cloud
from oracles import nearest_original_color_oracle


def cloud_of(*coords):
    return ColorPointCloud([ColorPoint(x, y, z, color=(0, 0, 0)) for x, y, z in coords])


class TestColorPoint:
    def test_original_requires_color(self):
        with pytest.raises(InvalidConfig):
            ColorPoint(0, 0, 0, color=None, role=Role.ORIGINAL)

    def test_reconstruct_may_lack_color(self):
        p = ColorPoint(0, 0, 0, color=None, role=Role.RECONSTRUCT)
        assert p.color is None

    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(InvalidConfig):
            ColorPoint(math.nan, 0, 0, color=(1, 2, 3))

    def test_rejects_out_of_range_color(self):
        with pytest.raises(InvalidConfig):
            ColorPoint(0, 0, 0, color=(0, 0, 256))


class TestPartition:
    def test_floor_convention(self):
        blocks = partition_into_blocks(cloud_of((0.5, 0.5, 0.5), (4.5, 0.5, 0.5)), 4.0)
        assert [b.cell_index for b in blocks] == [(0, 0, 0), (1, 0, 0)]

    def test_single_block_contains_all(self):
        blocks = partition_into_blocks(cloud_of((0, 0, 0), (1, 2, 3), (3.9, 3.9, 3.9)), 4.0)
        assert len(blocks) == 1
        assert blocks[0].point_ids == (0, 1, 2)

    def test_boundary_point_goes_to_next_cell(self):
        # local coordinate exactly 4.0 with block_size 4: half-open cells
        blocks = partition_into_blocks(cloud_of((0, 0, 0), (4.0, 0, 0)), 4.0)
        assert [b.cell_index for b in blocks] == [(0, 0, 0), (1, 0, 0)]

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            partition_into_blocks(ColorPointCloud(), 4.0)

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

    def test_partition_deterministic(self):
        cloud = random_cloud(50, seed=3)
        assert partition_into_blocks(cloud, 2.5) == partition_into_blocks(cloud, 2.5)

    def test_cell_index_matches_floor_identity(self):
        cloud = random_cloud(60, seed=4)
        size = 3.0
        origin = cloud.positions().min(axis=0).tolist()
        for b in partition_into_blocks(cloud, size):
            for pid in b.point_ids:
                p = cloud.points[pid]
                expected = tuple(math.floor((c - o) / size) for c, o in zip(p.coords, origin))
                assert expected == b.cell_index


class TestNearestOriginal:
    def lattice_cloud(self, seed):
        # integer coordinates: exact distances and many exact ties
        rng = np.random.default_rng(seed)
        points = []
        for i, (x, y, z) in enumerate(rng.integers(0, 4, size=(60, 3)).tolist()):
            if rng.random() < 0.5:
                points.append(ColorPoint(x, y, z, color=(i, i, i)))
            else:
                points.append(ColorPoint(x, y, z, color=None, role=Role.RECONSTRUCT))
        return ColorPointCloud(points)

    @pytest.mark.parametrize("chunk_values", [1 << 14, 7, 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_seed_scan(self, seed, chunk_values, monkeypatch):
        monkeypatch.setattr(core, "_NEAREST_CHUNK_VALUES", chunk_values)
        cloud = self.lattice_cloud(seed)
        rng = np.random.default_rng(100 + seed)
        queries = np.concatenate([rng.integers(0, 8, size=(40, 3)) / 2, cloud.positions()])
        expected = [nearest_original_color_oracle(cloud, q) for q in queries.tolist()]
        assert nearest_original_color(cloud, queries) == expected

    def test_no_originals(self):
        cloud = ColorPointCloud([ColorPoint(0, 0, 0, color=None, role=Role.RECONSTRUCT)])
        with pytest.raises(EmptySamples):
            nearest_original_color(cloud, [[0, 0, 0]])
