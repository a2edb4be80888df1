import math

import numpy as np
import pytest

from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks
from cloudcolor.errors import EmptySamples, InvalidConfig
from cloudcolor.fsmmr import (
    FsmmrConfig, ScatteredSamples, basis_value, evaluate_model, frequency_weight,
    generate_model, normalize_to_window, round_color_channel, round_half_away, spatial_weight,
)
from cloudcolor.pipeline import block_colors

from oracles import dct2_basis_oracle, grid_least_squares_projection


def uniform_samples(coords, values):
    coords = np.asarray(coords, dtype=float)
    return ScatteredSamples(coords=coords, values=values, weights=np.ones(len(coords)))


class TestBasisValue:
    def test_dc_is_one(self):
        for x, y in [(0.0, 0.0), (3.3, 7.7), (15.0, 2.0)]:
            assert basis_value(0, 0, x, y, (16, 16)) == 1.0

    def test_analytic_zero(self):
        assert basis_value(1, 0, 1.5, 0.0, (4, 4)) == pytest.approx(0.0, abs=1e-15)

    def test_against_direct_evaluation(self):
        expected = dct2_basis_oracle(1, 1, 0.0, 0.0, 8, 8)
        assert basis_value(1, 1, 0.0, 0.0, (8, 8)) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(math.cos(math.pi / 16) ** 2, abs=1e-15)


class TestWeights:
    def test_spatial_weight_center_is_one(self):
        assert spatial_weight(7.5, 7.5, (16, 16), 0.7) == 1.0

    def test_spatial_weight_distance_two(self):
        assert spatial_weight(7.5 + 2, 7.5, (16, 16), 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_spatial_weight_corner(self):
        expected = math.exp(math.hypot(3.5, 3.5) * math.log(0.7))
        assert spatial_weight(0.0, 0.0, (8, 8), 0.7) == pytest.approx(expected, rel=1e-12)

    def test_frequency_weight_dc(self):
        for sigma in (0.1, 0.5, 0.9):
            assert frequency_weight(0, 0, sigma) == 1.0

    def test_frequency_weight_345(self):
        assert frequency_weight(3, 4, 0.5) == pytest.approx(0.03125, abs=1e-15)

    def test_frequency_weight_diagonal(self):
        expected = math.exp(math.sqrt(2.0) * math.log(0.8))
        assert frequency_weight(1, 1, 0.8) == pytest.approx(expected, rel=1e-12)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0}, {"sigma": 1.0}, {"rho": 1.0}, {"gamma": 0.0},
        {"gamma": 1.5}, {"max_iterations": 0}, {"model_width": 0},
        {"energy_threshold": -1.0}, {"energy_threshold": math.nan},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            FsmmrConfig(**kwargs)

    def test_candidates_ordered_by_tie_break(self):
        order = FsmmrConfig(model_width=3, model_height=3).candidate_list()
        assert order[0] == (0, 0)
        radii = [k * k + l * l for k, l in order]
        assert radii == sorted(radii)


class TestGenerateModel:
    def test_dc_exact_recovery(self):
        samples = uniform_samples([[0.2, 3.0], [7.0, 7.0], [14.9, 0.1]], [137.0, 137.0, 137.0])
        model = generate_model(samples, FsmmrConfig(gamma=1.0))
        assert model.terms == ((0, 0, 137.0),)
        assert model.final_energy == pytest.approx(0.0, abs=1e-18)

    def test_empty_samples(self):
        with pytest.raises(EmptySamples):
            generate_model(
                ScatteredSamples(np.empty((0, 2)), np.empty(0), np.empty(0)),
                FsmmrConfig(),
            )

    def test_single_basis_grid_recovery(self):
        m = n = 8
        amplitude = 3.25
        xs, ys = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        coords = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(float)
        values = amplitude * np.array([dct2_basis_oracle(2, 1, x, y, m, n) for x, y in coords])
        config = FsmmrConfig(model_width=m, model_height=n, gamma=1.0, sigma=0.9,
                             max_iterations=1)
        model = generate_model(uniform_samples(coords, values), config)
        assert model.selection_history[0] == (2, 1)
        (u, v, c) = model.terms[0]
        assert (u, v) == (2, 1)
        assert c == pytest.approx(amplitude, abs=1e-9)
        assert model.final_energy == pytest.approx(0.0, abs=1e-9)
        # cross-check the coefficient against a full least-squares fit
        projected = grid_least_squares_projection(values.reshape(m, n), m, n)
        assert projected[(2, 1)] == pytest.approx(amplitude, abs=1e-9)

    def test_energy_monotone_and_selection_maximal(self):
        rng = np.random.default_rng(31)
        coords = rng.uniform(0, 7, size=(40, 2))
        values = rng.uniform(0, 255, size=40)
        weights = rng.uniform(0.1, 1.0, size=40)
        config = FsmmrConfig(model_width=8, model_height=8, gamma=0.5, max_iterations=30)
        samples = ScatteredSamples(coords, values, weights)
        model = generate_model(samples, config)

        energies = (float(weights @ (values**2)),) + model.energy_history
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1 + 1e-9)

        # replay the greedy scan and confirm each selection attains the max score
        candidates = config.candidate_list()
        phi = np.array([
            [basis_value(k, l, x, y, config.window) for x, y in coords]
            for k, l in candidates
        ])
        den = (phi * phi) @ weights
        model_at = np.zeros(len(values))
        coeff_acc = {t[:2]: 0.0 for t in model.terms}
        for chosen in model.selection_history:
            residual = values - model_at
            num = phi @ (weights * residual)
            scores = np.where(den > 0, (num / np.where(den > 0, den, 1)) ** 2 * den, -1)
            scores = scores * np.array([frequency_weight(k, l, config.sigma) for k, l in candidates])
            best = max(scores)
            idx = candidates.index(chosen)
            assert scores[idx] == pytest.approx(best, rel=1e-9)
            c = num[idx] / den[idx]
            model_at = model_at + config.gamma * c * phi[idx]

    def test_repeat_selection_accumulates_single_term(self):
        samples = uniform_samples([[1.0, 1.0], [5.0, 2.0]], [10.0, 10.0])
        model = generate_model(samples, FsmmrConfig(gamma=0.5, max_iterations=50))
        pairs = [t[:2] for t in model.terms]
        assert len(pairs) == len(set(pairs))

    def test_stops_on_energy_threshold(self):
        samples = uniform_samples([[0.0, 0.0], [3.0, 3.0]], [50.0, 50.0])
        model = generate_model(samples, FsmmrConfig(gamma=1.0, energy_threshold=1e-6))
        assert model.iterations_run == 1


class TestEvaluateModel:
    def test_empty_model_is_zero(self):
        from cloudcolor.fsmmr import SparseModel
        model = SparseModel(terms=(), window=(16, 16), iterations_run=0, final_energy=0.0)
        assert list(evaluate_model(model, [[1.0, 2.0], [3.0, 4.0]])) == [0.0, 0.0]

    def test_dc_model_constant(self):
        from cloudcolor.fsmmr import SparseModel
        model = SparseModel(terms=((0, 0, 42.0),), window=(16, 16), iterations_run=1, final_energy=0.0)
        out = evaluate_model(model, [[0.0, 0.0], [9.0, 13.5]])
        assert np.allclose(out, 42.0)

    def test_reproduces_single_basis_signal(self):
        m = n = 8
        xs, ys = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        coords = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(float)
        values = 2.0 * np.array([dct2_basis_oracle(2, 1, x, y, m, n) for x, y in coords])
        config = FsmmrConfig(model_width=m, model_height=n, gamma=1.0, sigma=0.9, max_iterations=4)
        model = generate_model(uniform_samples(coords, values), config)
        out = evaluate_model(model, coords)
        assert np.abs(out - values).max() < 1e-6


class TestNormalizeToWindow:
    def test_corners(self):
        out = normalize_to_window(np.array([(0, 0), (10, 20)]), (8, 8))
        assert np.allclose(out, [[0, 0], [7, 7]])

    def test_degenerate_axis_maps_to_center(self):
        out = normalize_to_window(np.array([(5, 1), (5, 2)]), (16, 16))
        assert np.allclose(out[:, 0], 7.5)

    def test_affine_interior(self):
        out = normalize_to_window(np.array([(0, 0), (5, 0), (10, 0)]), (8, 8))
        assert np.allclose(out[:, 0], [0.0, 3.5, 7.0])
        assert np.allclose(out[:, 1], 3.5)


def mixed_cloud(positions, colors):
    """None in `colors` marks a point to reconstruct."""
    original = [c is not None for c in colors]
    colors = [c if c is not None else (0, 0, 0) for c in colors]
    return ColorPointCloud(positions, colors, original=original, colored=original)


class TestUpsampleBlock:
    def build(self, positions, colors):
        cloud = mixed_cloud(positions, colors)
        blocks = partition_into_blocks(cloud, 1e9)
        return blocks[0], cloud

    def test_constant_color_block(self):
        rng = np.random.default_rng(17)
        positions = rng.uniform(0, 4, size=(20, 3))
        colors = [None if i % 3 == 0 else (100, 150, 200) for i in range(20)]
        block, cloud = self.build(positions, colors)
        ids, colors = block_colors(block, cloud, InterpolatorKind.FSMMR, FsmmrConfig())
        assert ids.tolist() == list(range(0, 20, 3))
        assert all(tuple(c) == (100, 150, 200) for c in colors.tolist())

    @pytest.mark.parametrize("method, expected", [
        (InterpolatorKind.FSMMR, (9, 9, 9)), (InterpolatorKind.IDW2, (9, 9, 9)),
        (InterpolatorKind.LIN2_DELAUNAY, None),
    ])
    def test_zero_original_block_falls_back_to_nearest(self, method, expected):
        cloud = mixed_cloud([(100.0, 0, 0), (0.0, 0, 0), (0.5, 0, 0)], [(9, 9, 9), None, None])
        blocks = partition_into_blocks(cloud, 4.0)
        lonely = next(b for b in blocks if 1 in b.point_ids)
        ids, colors = block_colors(lonely, cloud, method, FsmmrConfig())
        # LIN2 leaves both points uncolored, and uncolored points are left out
        colored = {pid: tuple(c) for pid, c in zip(ids.tolist(), colors.tolist())}
        assert colored == ({} if expected is None else {1: expected, 2: expected})

    def test_no_reconstruct_points_returns_empty(self):
        block, cloud = self.build([(0, 0, 0), (1, 1, 1)], [(1, 2, 3), (4, 5, 6)])
        ids, colors = block_colors(block, cloud, InterpolatorKind.FSMMR, FsmmrConfig())
        assert ids.size == 0 and colors.shape == (0, 3)

    def test_linear_ramp_midpoint(self):
        # colors ramp along x; the reconstructed midpoint should sit near the
        # ramp value, checked against a dense least-squares fit on the same basis
        rng = np.random.default_rng(23)
        xs = np.linspace(0, 4, 17)
        positions = [(float(x), 0.0, 0.0) for x in xs] + [(2.07, 0.0, 0.0)]
        colors = [(int(round(40 + 40 * x)),) * 3 for x in xs] + [None]
        block, cloud = self.build(positions, colors)
        ids, colors = block_colors(block, cloud, InterpolatorKind.FSMMR, FsmmrConfig())
        expected = 40 + 40 * 2.07
        assert ids.tolist() == [len(positions) - 1]
        got = colors[0].tolist()
        assert abs(got[0] - expected) <= 8
        assert got[0] == got[1] == got[2]


def test_round_color_channel_matches_scalar_rounding():
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.uniform(-300, 300, 2000), np.arange(-3, 260) + 0.5, [-1e300, -0.0, 1e300, np.inf, -np.inf],
    ])
    got = round_color_channel(values)
    assert got.dtype == np.uint8
    assert got.tolist() == [min(255, max(0, round_half_away(v))) if math.isfinite(v) else (255 if v > 0 else 0)
                            for v in values.tolist()]


def test_round_color_channel():
    assert round_color_channel(0.5) == 1
    assert round_color_channel(-0.5) == 0  # -1 clamped up to 0
    assert round_color_channel(254.4) == 254
    assert round_color_channel(270.0) == 255
    assert round_color_channel(-3.0) == 0
