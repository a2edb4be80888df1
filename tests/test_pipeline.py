import math
import os
from collections import Counter

import numpy as np
import pytest

from cloudcolor import parallel, pipeline
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks
from cloudcolor.errors import InvalidConfig, InvalidInput
from cloudcolor.evaluation import ExperimentSpec, random_downsample, run_experiment, sphere_cloud
from cloudcolor.pipeline import BlockGeometry, UpsampleConfig, block_colors, upsample_cloud
from cloudcolor.ply_io import write_ply
from cloudcolor.surface_transform import flatten_block

from conftest import far_pair_cloud


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
    geometry = BlockGeometry(mixed_cloud)
    for index in range(len(geometry.blocks)):
        with pytest.raises(InvalidConfig, match="block_colors takes FSMMR, IDW2 or LIN2"):
            block_colors(geometry, index, mixed_cloud, method)


class TestBlockGeometry:
    @pytest.mark.parametrize("method", list(InterpolatorKind))
    @pytest.mark.parametrize("other", [
        "positions", {"block_size": 2.0}, {"root_seed": 5}, {"block_size": 4.5, "root_seed": 0},
    ])
    def test_geometry_of_another_cloud_or_config_is_rejected(self, mixed_cloud, method, other):
        if other == "positions":
            moved = mixed_cloud.positions.copy()
            moved[7, 2] = np.nextafter(moved[7, 2], np.inf)
            geometry = BlockGeometry(ColorPointCloud(moved))
        else:
            geometry = BlockGeometry(mixed_cloud, UpsampleConfig(**other))
        with pytest.raises(InvalidConfig, match="block geometry"):
            upsample_cloud(mixed_cloud, method, UpsampleConfig(), geometry)

    @pytest.mark.parametrize("method", [InterpolatorKind.FSMMR, InterpolatorKind.IDW2, InterpolatorKind.LIN2_DELAUNAY])
    @pytest.mark.parametrize("root_seed", [None, 3])
    def test_shared_geometry_colors_as_its_own(self, mixed_cloud, method, root_seed):
        # built from a cloud with other roles and colors: only the positions matter
        config = UpsampleConfig(root_seed=root_seed)
        geometry = BlockGeometry(sphere_cloud(400, seed=1), config)
        shared = upsample_cloud(mixed_cloud, method, config, geometry)
        assert write_ply(shared, include_roles=True) == write_ply(upsample_cloud(mixed_cloud, method, config), include_roles=True)

    def test_each_block_is_flattened_at_most_once_per_sweep(self, monkeypatch, tmp_path):
        # every process of a 2-process sweep appends (pid, cell) per flattening; a
        # forked worker starts from the geometry as it was before the sweep
        log = tmp_path / "flattened"

        def recording_flatten(block, cloud, root_seed=None):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {block.cell_index}\n")
            return flatten_block(block, cloud, root_seed)

        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "flatten_block", recording_flatten)
        cloud = sphere_cloud(400)
        run_experiment(cloud, ExperimentSpec())
        calls = Counter(log.read_text().splitlines())
        assert max(calls.values()) == 1
        cells_by_pid = Counter(line.split(" ", 1)[0] for line in calls)
        assert str(os.getpid()) in cells_by_pid and len(cells_by_pid) == 2  # the worker flattened too
        assert max(cells_by_pid.values()) <= len(partition_into_blocks(cloud, UpsampleConfig.block_size))

    def test_partition_is_kept_once_built_and_not_when_it_raises(self, monkeypatch):
        calls = []

        def counting_partition(cloud, block_size):
            calls.append(block_size)
            return partition_into_blocks(cloud, block_size)

        monkeypatch.setattr(pipeline, "partition_into_blocks", counting_partition)
        geometry = BlockGeometry(sphere_cloud(100))
        assert geometry.blocks is geometry.blocks and len(calls) == 1
        too_wide = BlockGeometry(ColorPointCloud([(-1.7e308, 0, 0), (1.7e308, 0, 0)]))
        for _ in range(2):
            with pytest.raises(InvalidInput, match="too many cells"):
                too_wide.blocks
        assert len(calls) == 3


BLOCK_METHODS = [InterpolatorKind.FSMMR, InterpolatorKind.IDW2, InterpolatorKind.LIN2_DELAUNAY]


@pytest.mark.usefixtures("no_workers_left")
class TestBlockProcesses:
    """The blocks of FSMMR, IDW2 and LIN2 run on every usable core; the
    result must not depend on how many."""

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    def test_output_is_byte_identical_at_1_2_and_3_processes(self, method, monkeypatch):
        cloud = random_downsample(sphere_cloud(400, seed=1), 0.1, seed=2)
        # some blocks hold points to reconstruct and no original
        assert any(not cloud.original[block.point_ids].any() for block in BlockGeometry(cloud).blocks)
        outputs = set()
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
            upsampled = upsample_cloud(cloud, method)
            outputs.add(write_ply(upsampled, include_roles=True))
            assert upsampled.colored.all() == (method is not InterpolatorKind.LIN2_DELAUNAY)  # LIN2 leaves holes
        assert len(outputs) == 1

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    def test_a_block_that_cannot_be_flattened_raises_alike_at_every_process_count(self, method, monkeypatch):
        # two blocks: the sphere and the far pair, which holds an original and a point to reconstruct
        far = far_pair_cloud()
        cloud = ColorPointCloud(far.positions, far.colors, original=np.arange(len(far)) % 2 == 0)
        raised = set()
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
            with pytest.raises(InvalidInput) as error:
                upsample_cloud(cloud, method, UpsampleConfig(block_size=1e155))
            raised.add((type(error.value), str(error.value)))
        assert raised == {(InvalidInput, "the block is too wide to flatten: a 2D coordinate overflows float64")}

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_the_lowest_failing_block_gives_the_error(self, mixed_cloud, cores, monkeypatch):
        # at 2 processes block 3 fails in the worker and block 4 here; at 3 the other way round
        colors = pipeline.block_colors

        def failing_from_3(geometry, index, *args):
            if index >= 3:
                raise InvalidInput(f"block {index} fails")
            return colors(geometry, index, *args)

        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        monkeypatch.setattr(pipeline, "block_colors", failing_from_3)
        with pytest.raises(InvalidInput, match="^block 3 fails$"):
            upsample_cloud(mixed_cloud, InterpolatorKind.IDW2)

    @pytest.mark.parametrize("block_size", [8.0, 100.0])
    @pytest.mark.parametrize("cores", [1, 3, 10_000])
    def test_never_more_processes_than_blocks_or_cores(self, mixed_cloud, block_size, cores, monkeypatch, worker_pids):
        # this process is the one not in worker_pids
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        config = UpsampleConfig(block_size=block_size)
        blocks = len(BlockGeometry(mixed_cloud, config).blocks)
        upsample_cloud(mixed_cloud, InterpolatorKind.IDW2, config)
        workers = worker_pids()
        assert len(set(workers)) == len(workers) == min(blocks, cores) - 1

    @pytest.mark.parametrize("cores", [2, 3])
    def test_two_calls_on_one_geometry_flatten_each_block_once(self, mixed_cloud, cores, monkeypatch, tmp_path):
        # every process appends (pid, cell) per flattening; map_blocks keeps the workers' flattenings
        log = tmp_path / "flattened"

        def recording_flatten(block, cloud, root_seed=None):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {block.cell_index}\n")
            return flatten_block(block, cloud, root_seed)

        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        monkeypatch.setattr(pipeline, "flatten_block", recording_flatten)
        geometry = BlockGeometry(mixed_cloud)
        for method in (InterpolatorKind.FSMMR, InterpolatorKind.LIN2_DELAUNAY):
            upsample_cloud(mixed_cloud, method, UpsampleConfig(), geometry)
        pids, cells = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
        assert len(set(pids)) == cores  # every worker flattened too
        mixed = [block for block in geometry.blocks if 0 < mixed_cloud.original[block.point_ids].sum() < len(block.point_ids)]
        assert sorted(cells) == sorted(str(block.cell_index) for block in mixed)
