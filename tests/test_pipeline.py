import math

import numpy as np
import pytest

from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import partition_into_blocks
from cloudcolor.errors import InvalidConfig
from cloudcolor.evaluation import random_downsample, sphere_cloud
from cloudcolor.pipeline import UpsampleConfig, block_colors, upsample_cloud
from cloudcolor.ply_io import write_ply


@pytest.fixture(scope="module")
def mixed_cloud():
    return random_downsample(sphere_cloud(400, seed=1), 0.5, seed=2)


class TestUpsampleConfig:
    @pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf])
    def test_bad_block_size(self, size):
        with pytest.raises(InvalidConfig, match="block_size"):
            UpsampleConfig(block_size=size)

    @pytest.mark.parametrize("power", [0.0, math.nan])
    def test_bad_idw_power(self, power):
        with pytest.raises(InvalidConfig, match="idw power"):
            UpsampleConfig(idw_power=power)

    @pytest.mark.parametrize("seed", [1.5, "5", np.float64(5.0)])
    def test_non_integer_root_seed(self, seed):
        with pytest.raises(InvalidConfig, match="root_seed"):
            UpsampleConfig(root_seed=seed)

    @pytest.mark.parametrize("method", [InterpolatorKind.FSMMR, InterpolatorKind.IDW2, InterpolatorKind.LIN2_DELAUNAY])
    def test_numpy_root_seed_picks_the_same_roots(self, mixed_cloud, method):
        outputs = {
            write_ply(upsample_cloud(mixed_cloud, method, UpsampleConfig(root_seed=seed)), include_roles=True)
            for seed in (5, np.int64(5), np.uint8(5))
        }
        assert len(outputs) == 1


@pytest.mark.parametrize("method", ["fsmmr", "nn3", None, 0])
def test_method_must_be_a_member(mixed_cloud, method):
    # a string used to fall through the block dispatch into LIN2
    with pytest.raises(InvalidConfig, match="InterpolatorKind"):
        upsample_cloud(mixed_cloud, method)


@pytest.mark.parametrize("method", [InterpolatorKind.NN3, InterpolatorKind.IDW3, "fsmmr"])
def test_block_colors_takes_only_the_block_methods(mixed_cloud, method):
    # NN3 and IDW3 run over the whole cloud in 3D; per block they used to fall through to LIN2
    for block in partition_into_blocks(mixed_cloud, UpsampleConfig.block_size):
        with pytest.raises(InvalidConfig, match="block_colors takes FSMMR, IDW2 or LIN2"):
            block_colors(block, mixed_cloud, method)
