import math
import os
from collections import Counter

import numpy as np
import pytest

from cloudcolor import fsmmr, parallel, pipeline
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks
from cloudcolor.errors import EmptySamples, InvalidConfig, InvalidInput
from cloudcolor.evaluation import ExperimentSpec, random_downsample, run_experiment, sphere_cloud
from cloudcolor.fsmmr import _generate_models, _upsample_share
from cloudcolor.pipeline import UpsampleConfig, upsample_cloud, upsample_clouds
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


class TestUpsampleClouds:
    """Several role splits of one cloud's positions, by several methods, in
    one fork over the blocks."""

    @pytest.mark.parametrize("method", list(InterpolatorKind))
    def test_clouds_with_other_positions_are_rejected(self, mixed_cloud, method):
        moved = mixed_cloud.positions.copy()
        moved[7, 2] = np.nextafter(moved[7, 2], np.inf)
        other = ColorPointCloud(moved, mixed_cloud.colors, mixed_cloud.original, mixed_cloud.colored)
        with pytest.raises(InvalidConfig, match="share their positions"):
            upsample_clouds([mixed_cloud, other], [method])

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("root_seed", [None, 3])
    def test_each_entry_is_what_upsample_cloud_returns(self, cores, root_seed, monkeypatch):
        # three role splits, one with nothing to reconstruct and one without originals
        reference = sphere_cloud(400, seed=1)
        splits = [random_downsample(reference, 0.5, seed=2), reference, random_downsample(reference, 0.1, seed=3),
                  ColorPointCloud(reference.positions)]
        methods, config = list(InterpolatorKind), UpsampleConfig(root_seed=root_seed)
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        entries = upsample_clouds(splits, methods, config)
        assert [len(row) for row in entries] == [len(methods)] * len(splits)
        for cloud, row in zip(splits[:3], entries):
            for method, (upsampled, seconds) in zip(methods, row):
                expected = upsample_cloud(cloud, method, config)
                assert write_ply(upsampled, include_roles=True) == write_ply(expected, include_roles=True)
                assert seconds >= 0
        assert all(type(error) is EmptySamples for error, _ in entries[3])

    def test_a_sweep_fits_across_blocks_and_gives_the_same_bytes_at_1_2_and_3_processes(self, monkeypatch):
        reference = sphere_cloud(1500)
        splits = [random_downsample(reference, density, seed=run) for density in (0.1, 0.5) for run in (1, 2)]
        methods, outputs, groups = [InterpolatorKind.FSMMR, InterpolatorKind.IDW2], set(), []

        def recording(blocks, config):  # records only in this process
            groups.append(len(blocks))
            return _generate_models(blocks, config)

        monkeypatch.setattr(fsmmr, "_generate_models", recording)
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
            entries = upsample_clouds(splits, methods)
            outputs.add(tuple(write_ply(upsampled, include_roles=True) for row in entries for upsampled, _ in row))
            if cores == 1:
                assert max(groups) > len(splits)  # a group spans blocks, not only the splits of one block
        assert len(outputs) == 1

    def test_the_share_fit_gets_only_well_formed_problems_and_groups_of_one_n(self, mixed_cloud, monkeypatch):
        # the share fit and the lockstep check nothing, so every problem the pipeline hands them must be well formed
        problems, groups = [], []

        def recording_share(share, config):
            problems.extend(share)
            return _upsample_share(share, config)

        def recording_group(blocks, config):
            groups.append([len(samples.values) for channels in blocks for samples in channels])
            return _generate_models(blocks, config)

        monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
        monkeypatch.setattr(pipeline, "_upsample_share", recording_share)
        monkeypatch.setattr(fsmmr, "_generate_models", recording_group)
        run_experiment(sphere_cloud(1500), ExperimentSpec())
        upsample_cloud(mixed_cloud, InterpolatorKind.FSMMR)
        assert problems and groups
        for o_coords, o_colors, r_coords in problems:
            n, k = len(o_coords), len(r_coords)
            assert n >= 1 and (o_coords.shape, o_coords.dtype) == ((n, 2), np.float64)
            assert (o_colors.shape, o_colors.dtype) == ((n, 3), np.uint8)
            assert k >= 1 and (r_coords.shape, r_coords.dtype) == ((k, 2), np.float64)
        for sizes in groups:  # three channels per problem, all of one n
            assert len(sizes) >= 6 and len(sizes) % 3 == 0 and len(set(sizes)) == 1

    def test_each_block_is_flattened_at_most_once_per_sweep(self, monkeypatch, tmp_path):
        # every process of a 2-process sweep appends (pid, cell) per flattening
        log = tmp_path / "flattened"

        def recording_flatten(block, cloud, root_seed=None):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {block.cell_index}\n")
            return flatten_block(block, cloud, root_seed)

        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "flatten_block", recording_flatten)
        cloud = sphere_cloud(1500)
        run_experiment(cloud, ExperimentSpec())
        pids, cells = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
        blocks = partition_into_blocks(cloud, UpsampleConfig.block_size)
        assert sorted(cells) == sorted(str(block.cell_index) for block in blocks) and len(cells) == 56
        assert set(Counter(pids).values()) == {28}  # the calling process and the worker

    def test_partition_is_built_once_per_call_and_its_error_fills_the_2d_entries(self, monkeypatch):
        calls = []

        def counting_partition(cloud, block_size):
            calls.append(block_size)
            return partition_into_blocks(cloud, block_size)

        monkeypatch.setattr(pipeline, "partition_into_blocks", counting_partition)
        reference = sphere_cloud(100)
        splits = [random_downsample(reference, density, seed=1) for density in (0.2, 0.5)]
        upsample_clouds(splits, list(InterpolatorKind))
        assert len(calls) == 1
        # 1e-320 passes the config check, but the sphere spans too many such cells to index
        for entries in upsample_clouds(splits, list(InterpolatorKind), UpsampleConfig(block_size=1e-320)):
            for method, (upsampled, _) in zip(InterpolatorKind, entries):
                if method in (InterpolatorKind.NN3, InterpolatorKind.IDW3):
                    assert isinstance(upsampled, ColorPointCloud) and upsampled.colored.all()
                else:
                    assert type(upsampled) is InvalidInput and "too many cells" in str(upsampled)
        assert len(calls) == 2


BLOCK_METHODS = [InterpolatorKind.FSMMR, InterpolatorKind.IDW2, InterpolatorKind.LIN2_DELAUNAY]


class TestBlockProcesses:
    """The blocks of FSMMR, IDW2 and LIN2 run on every usable core; the
    result must not depend on how many."""

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    def test_output_is_byte_identical_at_1_2_and_3_processes(self, method, monkeypatch):
        cloud = random_downsample(sphere_cloud(400, seed=1), 0.1, seed=2)
        # some blocks hold points to reconstruct and no original
        assert any(not cloud.original[block.point_ids].any() for block in partition_into_blocks(cloud, 4.0))
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
        colors, cells = pipeline._block_colors, [block.cell_index for block in partition_into_blocks(mixed_cloud, 4.0)]

        def failing_from_3(block, *args):
            if cells.index(block.cell_index) >= 3:
                raise InvalidInput(f"block {cells.index(block.cell_index)} fails")
            return colors(block, *args)

        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        monkeypatch.setattr(pipeline, "_block_colors", failing_from_3)
        with pytest.raises(InvalidInput, match="^block 3 fails$"):
            upsample_cloud(mixed_cloud, InterpolatorKind.IDW2)

    @pytest.mark.parametrize("block_size", [8.0, 100.0])
    @pytest.mark.parametrize("cores", [1, 3, 10_000])
    def test_never_more_processes_than_blocks_or_cores(self, mixed_cloud, block_size, cores, monkeypatch, worker_pids):
        # this process is the one not in worker_pids
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        config = UpsampleConfig(block_size=block_size)
        blocks = len(partition_into_blocks(mixed_cloud, block_size))
        upsample_cloud(mixed_cloud, InterpolatorKind.IDW2, config)
        workers = worker_pids()
        assert len(set(workers)) == len(workers) == min(blocks, cores) - 1
