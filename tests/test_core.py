import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcolor.core import (
    Aabb, ColorPoint, ColorPointCloud, Role, bounding_box, partition_into_blocks,
)
from cloudcolor.errors import EmptyCloud, InvalidConfig

from conftest import random_cloud


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


class TestBoundingBox:
    def test_single_point_degenerate_box(self):
        box = bounding_box(cloud_of((1, 2, 3)))
        assert box.min == (1, 2, 3)
        assert box.max == (1, 2, 3)

    def test_componentwise_min_max(self):
        box = bounding_box(cloud_of((0, 0, 0), (4, -1, 2)))
        assert box.min == (0, -1, 0)
        assert box.max == (4, 0, 2)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            bounding_box(ColorPointCloud())

    def test_aabb_rejects_inverted_bounds(self):
        with pytest.raises(InvalidConfig):
            Aabb((1, 0, 0), (0, 0, 0))


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
        origin = bounding_box(cloud).min
        for b in partition_into_blocks(cloud, size):
            for pid in b.point_ids:
                p = cloud.points[pid]
                expected = tuple(math.floor((c - o) / size) for c, o in zip(p.coords, origin))
                assert expected == b.cell_index
