import math
import os

import numpy as np
import pytest

from cloudcolor import parallel, pipeline
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks
from cloudcolor.errors import CloudColorError, InvalidConfig, InvalidInput
from cloudcolor.evaluation import (
    CSV_HEADER, ExperimentSpec, derive_seed, dihedral_cloud, plane_cloud, psnr_channel,
    random_downsample, reconstruction_color_psnr, run_experiment, sphere_cloud,
)

from cloudcolor.fsmmr import FsmmrConfig
from cloudcolor.pipeline import UpsampleConfig, upsample_cloud

from conftest import far_pair_cloud, random_cloud


class TestRandomDownsample:
    def test_density_one_keeps_everything(self):
        cloud = random_cloud(10, seed=0)
        down = random_downsample(cloud, 1.0, seed=5)
        assert down.original.all()

    def test_half_density_counts(self):
        cloud = random_cloud(10, seed=0)
        down = random_downsample(cloud, 0.5, seed=5)
        assert down.original.sum() == 5
        assert (~down.original).sum() == 5

    def test_rounds_half_away_from_zero(self):
        cloud = random_cloud(5, seed=0)
        down = random_downsample(cloud, 0.5, seed=1)
        assert down.original.sum() == 3  # round(2.5) away from zero

    def test_deterministic(self):
        cloud = random_cloud(30, seed=2)
        a = random_downsample(cloud, 0.4, seed=77)
        b = random_downsample(cloud, 0.4, seed=77)
        assert a.original.tolist() == b.original.tolist()

    def test_reconstruct_points_lose_color_keep_coords(self):
        cloud = random_cloud(20, seed=3)
        down = random_downsample(cloud, 0.5, seed=9)
        assert down.positions.tolist() == cloud.positions.tolist()
        assert down.colored.tolist() == down.original.tolist()
        assert down.colors[down.original].tolist() == cloud.colors[down.original].tolist()

    def test_bad_density(self):
        cloud = random_cloud(5, seed=0)
        for density in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidConfig):
                random_downsample(cloud, density, seed=0)

    def test_partly_colored_cloud_is_invalid_input(self):
        cloud = random_cloud(6, seed=0)
        partly = ColorPointCloud(cloud.positions, cloud.colors, colored=np.arange(6) % 2 == 0)
        with pytest.raises(InvalidInput, match="^downsampling requires a fully colored cloud$"):
            random_downsample(partly, 0.5, seed=0)


class TestPsnrChannel:
    def test_identical_is_infinite(self):
        assert psnr_channel([1, 2, 3], [1, 2, 3]) == math.inf

    def test_single_pair_diff_16(self):
        expected = 10 * math.log10(255**2 / 256)
        assert psnr_channel([16], [32]) == pytest.approx(expected, abs=1e-9)

    def test_full_swing_is_zero_db(self):
        assert psnr_channel([0, 0], [255, 255]) == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidInput):
            psnr_channel([1], [1, 2])
        with pytest.raises(InvalidInput):
            psnr_channel([], [])


class TestReconstructionPsnr:
    def build_pair(self, reference_colors, upsampled_colors, original):
        """`original` flags the upsampled cloud's roles; None in
        `upsampled_colors` marks a point the method left uncolored."""
        positions = [(float(i), 0, 0) for i in range(len(reference_colors))]
        colored = [c is not None for c in upsampled_colors]
        up_colors = [c if c is not None else (0, 0, 0) for c in upsampled_colors]
        return (
            ColorPointCloud(positions, reference_colors),
            ColorPointCloud(positions, up_colors, original=original, colored=colored),
        )

    def test_perfect_reconstruction(self):
        ref, up = self.build_pair(
            [(10, 20, 30), (40, 50, 60)], [(10, 20, 30), (40, 50, 60)],
            [True, False],
        )
        result = reconstruction_color_psnr(ref, up)
        assert result.color_psnr == math.inf

    def test_original_points_do_not_influence_metric(self):
        ref, up = self.build_pair(
            [(10, 20, 30), (40, 50, 60)], [(99, 99, 99), (40, 50, 60)],
            [True, False],
        )
        assert reconstruction_color_psnr(ref, up).color_psnr == math.inf

    def test_two_point_closed_form(self):
        ref, up = self.build_pair(
            [(16, 5, 5), (0, 5, 5)], [(32, 5, 5), (0, 5, 5)],
            [False, False],
        )
        result = reconstruction_color_psnr(ref, up)
        assert result.psnr_r == pytest.approx(10 * math.log10(255**2 / 128), abs=1e-9)
        assert result.psnr_g == math.inf
        assert result.psnr_b == math.inf

    def test_uncolored_points_excluded_and_counted(self):
        ref, up = self.build_pair(
            [(1, 1, 1), (2, 2, 2)], [(1, 1, 1), None],
            [False, False],
        )
        result = reconstruction_color_psnr(ref, up)
        assert result.uncolored_count == 1
        assert result.color_psnr == math.inf

    def test_no_reconstructable_points(self):
        ref, up = self.build_pair([(1, 1, 1)], [(1, 1, 1)], [True])
        with pytest.raises(InvalidInput):
            reconstruction_color_psnr(ref, up)

    def test_clouds_of_different_lengths_are_invalid_input(self):
        ref, up = self.build_pair([(1, 1, 1), (2, 2, 2)], [(1, 1, 1), (2, 2, 2)], [True, False])
        shorter = ColorPointCloud(ref.positions[:1], ref.colors[:1])
        with pytest.raises(InvalidInput, match="^clouds must have identical point counts and order$"):
            reconstruction_color_psnr(shorter, up)

    def test_uncolored_reference_is_invalid_input(self):
        ref, up = self.build_pair([(1, 1, 1)], [(1, 1, 1)], [False])
        uncolored_ref = ColorPointCloud(ref.positions, original=[False])
        with pytest.raises(InvalidInput, match="reference"):
            reconstruction_color_psnr(uncolored_ref, up)


    def test_stale_input_colors_are_not_scored(self):
        """Points to reconstruct that the input marks colored: LIN2's holes
        still come out uncolored and are left out of the score."""
        reference = sphere_cloud(n_points=1500, seed=0)
        keep = random_downsample(reference, 0.1, seed=3).original
        stale = ColorPointCloud(reference.positions, reference.colors, original=keep)
        clean = ColorPointCloud(reference.positions, reference.colors, original=keep, colored=keep)
        assert stale.colored.all()
        stale_up = upsample_cloud(stale, InterpolatorKind.LIN2_DELAUNAY)
        clean_up = upsample_cloud(clean, InterpolatorKind.LIN2_DELAUNAY)
        holes = ~stale_up.colored
        assert holes.any() and not keep[holes].any()
        assert (stale_up.colors[holes] == 0).all()
        assert stale_up.colored.tolist() == clean_up.colored.tolist()
        assert reconstruction_color_psnr(reference, stale_up) == reconstruction_color_psnr(reference, clean_up)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, 0.5, 1) == derive_seed(7, 0.5, 1)

    def test_distinct_across_runs_and_densities(self):
        seeds = {derive_seed(0, d, r) for d in (0.1, 0.5) for r in (1, 2, 3)}
        assert len(seeds) == 6


class TestRunExperiment:
    def spec(self, **kwargs):
        defaults = dict(
            methods=(InterpolatorKind.NN3, InterpolatorKind.IDW3),
            densities=(0.5,), runs=2, base_seed=3, upsample=UpsampleConfig(block_size=6.0),
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    @pytest.mark.parametrize("methods", [("nn3",), (InterpolatorKind.NN3, "fsmmr")])
    def test_method_must_be_a_member(self, methods):
        with pytest.raises(InvalidConfig, match="InterpolatorKind"):
            self.spec(methods=methods)

    def test_density_one_marked_skipped(self):
        report = run_experiment(random_cloud(12, seed=0), self.spec(densities=(1.0,)))
        assert all(r.flags == "skipped" for r in report.records)

    def test_shared_split_rule(self):
        report = run_experiment(random_cloud(30, seed=1), self.spec())
        by_key = {}
        for r in report.records:
            by_key.setdefault((r.density, r.run), set()).add(r.seed)
        assert all(len(seeds) == 1 for seeds in by_key.values())

    def test_aggregate_is_mean_over_runs(self):
        report = run_experiment(random_cloud(40, seed=2), self.spec(runs=3))
        for method in ("nn3", "idw3"):
            values = [
                r.color_psnr for r in report.records
                if r.method == method and math.isfinite(r.color_psnr) and r.flags == ""
            ]
            assert report.aggregates[(method, 0.5)] == pytest.approx(sum(values) / len(values))

    def test_csv_header_and_reproducibility(self):
        cloud = random_cloud(30, seed=4)
        spec = self.spec()
        a = run_experiment(cloud, spec).to_csv()
        b = run_experiment(cloud, spec).to_csv()
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER
        assert len(a.splitlines()) == 1 + 2 * 2  # header + methods x runs

    def test_a_constant_color_sweep_scores_inf_and_flags_it(self):
        sphere = sphere_cloud(120)
        cloud = ColorPointCloud(sphere.positions, np.full((len(sphere), 3), 77))
        # one block, so LIN2 colors the points inside its triangulation too
        csv = run_experiment(cloud, ExperimentSpec(densities=(0.5,), runs=1, upsample=UpsampleConfig(block_size=100.0))).to_csv()
        rows = [row.split(",") for row in csv.splitlines()[1:]]
        assert [row[0] for row in rows] == [method.value for method in InterpolatorKind]
        assert all(row[4:8] == ["inf"] * 4 and row[-1] == "inf" for row in rows)

    def test_record_count_full_sweep(self):
        spec = self.spec(densities=(0.3, 0.6), runs=2)
        report = run_experiment(random_cloud(25, seed=5), spec)
        assert len(report.records) == 2 * 2 * 2

    def test_partition_error_flags_only_the_block_method_rows(self):
        # 1e-320 passes the config check, but the sphere spans too many such cells to index;
        # the partition error must flag each block method's row, not end the sweep
        spec = self.spec(methods=(InterpolatorKind.NN3, InterpolatorKind.FSMMR), runs=1, base_seed=0,
                         upsample=UpsampleConfig(block_size=1e-320))
        assert run_experiment(sphere_cloud(200), spec).to_csv() == (
            CSV_HEADER + "\n"
            "nn3,0.5,1,4990024255108911950,18.932547,22.311989,19.795763,20.346766,0,0,\n"
            "fsmmr,0.5,1,4990024255108911950,,,,,0,0,error:InvalidInput\n"
        )

    def test_block_too_wide_to_flatten_flags_every_row_that_reaches_it(self):
        # the two far points share a cell 5e154 wide, so their tree edge overflows when
        # flattened.  Run 1 splits them and every block method reaches that block; in runs 2
        # and 3 both are to be reconstructed (LIN2 leaves them, the others' nearest-original
        # lookup overflows), in run 4 both are originals.  The failure is not kept as a result.
        methods = (InterpolatorKind.FSMMR, InterpolatorKind.IDW2, InterpolatorKind.LIN2_DELAUNAY)
        spec = self.spec(methods=methods, runs=4, base_seed=0, upsample=UpsampleConfig(block_size=1e155))
        assert run_experiment(far_pair_cloud(), spec).to_csv() == CSV_HEADER + "\n" + "".join(f"{line}\n" for line in [
            "fsmmr,0.5,1,4990024255108911950,,,,,0,0,error:InvalidInput",
            "idw2,0.5,1,4990024255108911950,,,,,0,0,error:InvalidInput",
            "lin2,0.5,1,4990024255108911950,,,,,0,0,error:InvalidInput",
            "fsmmr,0.5,2,3940380131708572772,,,,,0,0,error:InvalidInput",
            "idw2,0.5,2,3940380131708572772,,,,,0,0,error:InvalidInput",
            "lin2,0.5,2,3940380131708572772,14.236166,20.485755,12.660100,15.794007,6,0,",
            "fsmmr,0.5,3,10570242129213089194,,,,,0,0,error:InvalidInput",
            "idw2,0.5,3,10570242129213089194,,,,,0,0,error:InvalidInput",
            "lin2,0.5,3,10570242129213089194,14.729699,19.939554,10.435084,15.034779,9,0,",
            "fsmmr,0.5,4,16568918784375547120,18.640841,16.002658,9.720905,14.788134,0,0,",
            "idw2,0.5,4,16568918784375547120,15.398251,16.793458,11.774053,14.655254,0,0,",
            "lin2,0.5,4,16568918784375547120,15.929723,17.274133,12.181724,15.128527,13,0,",
        ])


INTEGER_FIELDS = [
    (UpsampleConfig, "root_seed"), (ExperimentSpec, "runs"), (ExperimentSpec, "base_seed"),
    (FsmmrConfig, "model_size"), (FsmmrConfig, "max_iterations"),
]


class TestNumericSettings:
    """Integer settings take an int or a numpy integer and are stored as an
    int; densities take a real number and are stored as a float."""

    @pytest.mark.parametrize("config, name", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 16.0, np.float64(3.0), "3", True, np.bool_(True)])
    def test_non_integer_is_invalid_config_naming_the_field(self, config, name, value):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            config(**{name: value})

    @pytest.mark.parametrize("config, name", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [np.int64(7), np.uint8(7)])
    def test_numpy_integer_is_stored_as_an_int(self, config, name, value):
        stored = getattr(config(**{name: value}), name)
        assert type(stored) is int and stored == 7

    @pytest.mark.parametrize("density", ["0.5", True, np.bool_(True), None, 0.5j])
    def test_density_that_is_not_a_real_number(self, density):
        with pytest.raises(InvalidConfig, match="density must be a real number"):
            ExperimentSpec(densities=(0.8, density))

    @pytest.mark.parametrize("density, runs, base_seed", [
        (np.float64(0.5), 1, 7), (np.float32(0.5), 1, 7), (0.5, np.int64(1), 7), (0.5, 1, np.int64(7)),
        (np.int64(1), 1, 7), (1, 1, 7),
    ])
    def test_numpy_numbers_give_the_csv_of_the_equal_python_numbers(self, density, runs, base_seed):
        cloud, methods = sphere_cloud(200), (InterpolatorKind.NN3,)
        expected = run_experiment(cloud, ExperimentSpec(methods, (float(density),), 1, 7)).to_csv()
        assert run_experiment(cloud, ExperimentSpec(methods, (density,), runs, base_seed)).to_csv() == expected


def in_a_worker_only(action):
    """A `_block_colors` stand-in that runs `action` in a forked block
    worker and colors as usual in this process."""
    parent, colors = os.getpid(), pipeline._block_colors

    def stand_in(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return colors(*args, **kwargs)

    return stand_in


class TestSweepProcesses:
    """A sweep forks once, over the blocks, on every usable core; the
    report must not depend on how many."""

    ALL_METHODS = tuple(InterpolatorKind)

    @pytest.mark.parametrize("cloud, spec, flag", [
        # error: rows from a block that cannot be flattened, next to scored LIN2 rows
        (far_pair_cloud(), ExperimentSpec(ALL_METHODS, (0.5,), runs=4, upsample=UpsampleConfig(block_size=1e155)),
         "error:InvalidInput"),
        # skipped rows at density 1 between scored densities
        (sphere_cloud(120), ExperimentSpec(ALL_METHODS, (1.0, 0.3, 0.6), runs=2, base_seed=5), "skipped"),
        # one run per density
        (sphere_cloud(120), ExperimentSpec(ALL_METHODS, (0.2, 0.7, 1.0), runs=1, base_seed=9), "skipped"),
    ], ids=["error-rows", "skipped-rows", "one-run"])
    def test_report_is_byte_identical_at_1_2_and_3_processes(self, cloud, spec, flag, monkeypatch):
        reports = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
            report = run_experiment(cloud, spec)
            reports[cores] = (report.to_csv(), report.aggregates)
        assert reports[1] == reports[2] == reports[3]
        rows = reports[1][0]
        assert rows.count("\n") == 1 + len(spec.methods) * len(spec.densities) * spec.runs
        assert f",{flag}\n" in rows

    def test_an_error_raised_in_a_block_worker_propagates(self, monkeypatch):
        def fail():
            raise ValueError("raised in a block worker")

        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "_block_colors", in_a_worker_only(fail))
        spec = ExperimentSpec((InterpolatorKind.NN3, InterpolatorKind.IDW2), (0.5,), runs=2)
        with pytest.raises(ValueError, match="raised in a block worker"):
            run_experiment(sphere_cloud(60), spec)

    def test_a_block_worker_that_exits_is_a_cloudcolor_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        monkeypatch.setattr(pipeline, "_block_colors", in_a_worker_only(lambda: os._exit(3)))
        spec = ExperimentSpec((InterpolatorKind.IDW2,), (0.5,), runs=3)
        with pytest.raises(CloudColorError, match="worker process ended abruptly"):
            run_experiment(sphere_cloud(60), spec)

    @pytest.mark.parametrize("block_size", [4.0, 100.0])
    @pytest.mark.parametrize("cores", [1, 3, 10_000])
    def test_never_more_processes_than_blocks_or_cores(self, block_size, cores, monkeypatch, worker_pids):
        # this process is the one not in worker_pids
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        cloud, config = sphere_cloud(60), UpsampleConfig(block_size=block_size)
        spec = ExperimentSpec((InterpolatorKind.NN3, InterpolatorKind.IDW2), (0.2, 0.5, 0.8), runs=3, upsample=config)
        report = run_experiment(cloud, spec)
        workers = worker_pids()
        assert len(report.records) == 18
        assert len(set(workers)) == len(workers) == min(len(partition_into_blocks(cloud, block_size)), cores) - 1

    def test_a_sweep_of_only_nn3_and_idw3_forks_no_worker(self, monkeypatch, worker_pids):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        spec = ExperimentSpec((InterpolatorKind.NN3, InterpolatorKind.IDW3), (0.2, 0.5, 0.8), runs=3)
        assert len(run_experiment(sphere_cloud(60), spec).records) == 18 and worker_pids() == []

    def test_a_default_sweep_at_2_cores_forks_one_worker(self, monkeypatch, worker_pids):
        # the sweep forks once, for its blocks
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        report = run_experiment(sphere_cloud(200), ExperimentSpec())
        assert len(report.records) == 45 and len(worker_pids()) == 1


class TestSyntheticClouds:
    @pytest.mark.parametrize("factory", [sphere_cloud, plane_cloud, dihedral_cloud])
    def test_generators_are_seeded_and_colored(self, factory):
        a = factory(n_points=50, seed=9)
        b = factory(n_points=50, seed=9)
        assert a.positions.tolist() == b.positions.tolist()
        assert a.colors.tolist() == b.colors.tolist()
        assert a.colored.all() and a.original.all()

    def test_sphere_points_on_radius(self):
        cloud = sphere_cloud(n_points=40, radius=5.0, seed=1)
        for x, y, z in cloud.positions.tolist():
            assert np.hypot(np.hypot(x, y), z) == pytest.approx(5.0, rel=1e-9)

    def test_plane_sharp_edge_flag_changes_colors(self):
        smooth = plane_cloud(n_points=100, seed=2, sharp_edge=False)
        edged = plane_cloud(n_points=100, seed=2, sharp_edge=True)
        assert (smooth.colors != edged.colors).any(axis=1).any()
