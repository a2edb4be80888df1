import math

import numpy as np
import pytest

from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud
from cloudcolor.errors import InvalidConfig, InvalidInput
from cloudcolor.evaluation import (
    CSV_HEADER, ExperimentSpec, derive_seed, dihedral_cloud, plane_cloud, psnr_channel,
    random_downsample, reconstruction_color_psnr, run_experiment, sphere_cloud,
)

from conftest import random_cloud


class TestRandomDownsample:
    def test_density_one_keeps_everything(self):
        cloud = random_cloud(10, seed=0)
        down = random_downsample(cloud, 1.0, seed=5)
        assert down.original.all()

    def test_half_density_counts(self):
        cloud = random_cloud(10, seed=0)
        down = random_downsample(cloud, 0.5, seed=5)
        assert len(down.original_ids()) == 5
        assert len(down.reconstruct_ids()) == 5

    def test_rounds_half_away_from_zero(self):
        cloud = random_cloud(5, seed=0)
        down = random_downsample(cloud, 0.5, seed=1)
        assert len(down.original_ids()) == 3  # round(2.5) away from zero

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

    def test_uncolored_reference_is_invalid_input(self):
        ref, up = self.build_pair([(1, 1, 1)], [(1, 1, 1)], [False])
        uncolored_ref = ColorPointCloud(ref.positions, original=[False])
        with pytest.raises(InvalidInput, match="reference"):
            reconstruction_color_psnr(uncolored_ref, up)


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
            densities=(0.5,), runs=2, base_seed=3, block_size=6.0,
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

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

    def test_record_count_full_sweep(self):
        spec = self.spec(densities=(0.3, 0.6), runs=2)
        report = run_experiment(random_cloud(25, seed=5), spec)
        assert len(report.records) == 2 * 2 * 2


class TestSyntheticClouds:
    @pytest.mark.parametrize("factory", [sphere_cloud, plane_cloud, dihedral_cloud])
    def test_generators_are_seeded_and_colored(self, factory):
        a = factory(n_points=50, seed=9)
        b = factory(n_points=50, seed=9)
        assert a.positions.tolist() == b.positions.tolist()
        assert a.colors.tolist() == b.colors.tolist()
        assert a.fully_colored() and a.original.all()

    def test_sphere_points_on_radius(self):
        cloud = sphere_cloud(n_points=40, radius=5.0, seed=1)
        for x, y, z in cloud.positions.tolist():
            assert np.hypot(np.hypot(x, y), z) == pytest.approx(5.0, rel=1e-9)

    def test_plane_sharp_edge_flag_changes_colors(self):
        smooth = plane_cloud(n_points=100, seed=2, sharp_edge=False)
        edged = plane_cloud(n_points=100, seed=2, sharp_edge=True)
        assert (smooth.colors != edged.colors).any(axis=1).any()
