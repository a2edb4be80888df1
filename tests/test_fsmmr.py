import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcolor import fsmmr
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks, round_color_channel
from cloudcolor.errors import EmptySamples, InvalidConfig, InvalidInput
from cloudcolor.fsmmr import (
    FsmmrConfig, ScatteredSamples, _cosine_tables, _generate_models, _upsample_share, evaluate_model, fit_basis,
    frequency_weight, generate_model, normalize_to_window, query_table, spatial_weight, upsample_block,
)
from cloudcolor.pipeline import UpsampleConfig, _block_colors
from cloudcolor.surface_transform import flatten_block

from oracles import (
    _round_channel_oracle, dct2_basis_oracle, evaluate_model_oracle, generate_model_oracle,
    grid_least_squares_projection, normalize_to_window_oracle,
)


def uniform_samples(coords, values):
    coords = np.asarray(coords, dtype=float)
    return ScatteredSamples(coords=coords, values=values, weights=np.ones(len(coords)))


class TestBasisValue:
    """The DCT-II basis functions as products of `_cosine_tables` rows."""

    def test_dc_is_one(self):
        cos_x, cos_y = _cosine_tables(np.array([(0.0, 0.0), (3.3, 7.7), (15.0, 2.0)]), 16)
        assert (cos_x[0] * cos_y[0]).tolist() == [1.0, 1.0, 1.0]

    def test_analytic_zero(self):
        cos_x, cos_y = _cosine_tables(np.array([(1.5, 0.0)]), 4)
        assert cos_x[1, 0] * cos_y[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_against_direct_evaluation(self):
        cos_x, cos_y = _cosine_tables(np.array([(0.0, 0.0)]), 8)
        expected = dct2_basis_oracle(1, 1, 0.0, 0.0, 8, 8)
        assert cos_x[1, 0] * cos_y[1, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(math.cos(math.pi / 16) ** 2, abs=1e-15)

    @pytest.mark.parametrize("window", [(5, 5), (16, 16), (1, 1), (3, 3), (7, 7), (11, 11)])
    def test_every_basis_function_matches_the_oracle(self, window):
        m, _ = window
        # x and y differ at every point, so a swap of the x and y tables fails
        coords = np.random.default_rng(m).uniform(0, 1, size=(25, 2)) * (m - 1)
        tables = _cosine_tables(coords, m)
        assert tables.shape == (2, m, len(coords))
        cos_x, cos_y = tables
        for k in range(m):
            for l in range(m):
                expected = [dct2_basis_oracle(k, l, x, y, m, m) for x, y in coords]
                assert cos_x[k] * cos_y[l] == pytest.approx(expected, abs=1e-15)


class TestWeights:
    def test_spatial_weight_center_is_one(self):
        assert spatial_weight(7.5, 7.5, 16, 0.7) == 1.0

    def test_spatial_weight_distance_two(self):
        assert spatial_weight(7.5 + 2, 7.5, 16, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_spatial_weight_corner(self):
        expected = math.exp(math.hypot(3.5, 3.5) * math.log(0.7))
        assert spatial_weight(0.0, 0.0, 8, 0.7) == pytest.approx(expected, rel=1e-12)

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
        {"gamma": 1.5}, {"max_iterations": 0}, {"model_size": 0},
        {"energy_threshold": -1.0}, {"energy_threshold": math.nan},
        # a window corner's spatial weight underflows to 0
        {"model_size": 2956},
        # a window whose M^2 candidates numpy cannot hold as 8-byte values
        {"model_size": 2 ** 64, "rho": 1 - 2 ** -53}, {"model_size": 10 ** 400},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            FsmmrConfig(**kwargs)

    def test_the_largest_window_builds(self):
        # its 2^60 candidates are built on first use, where their 8 EiB end in MemoryError
        assert FsmmrConfig(model_size=2 ** 30 - 1, rho=1 - 2 ** -53).model_size == 2 ** 30 - 1

    def test_candidates_ordered_by_tie_break(self):
        kl, wf = FsmmrConfig(model_size=5, sigma=0.6).frequencies
        order = [tuple(pair) for pair in kl.tolist()]
        assert order == sorted(((k, l) for k in range(5) for l in range(5)), key=lambda p: (p[0] ** 2 + p[1] ** 2, *p))
        assert wf.tolist() == [frequency_weight(k, l, 0.6) for k, l in order]

    def test_frequencies_built_once_per_config(self):
        config = FsmmrConfig()
        assert config.frequencies is config.frequencies


class TestScatteredSamplesValidation:
    @pytest.mark.parametrize("field, index, bad, message", [
        ("weights", 1, math.nan, "finite"), ("weights", 0, math.inf, "finite"), ("weights", 2, -math.inf, "finite"),
        ("coords", (0, 0), math.nan, "finite"), ("coords", (2, 1), math.inf, "finite"),
        ("coords", (1, 1), -math.inf, "finite"),
        ("values", 0, math.nan, "finite"), ("values", 2, math.inf, "finite"), ("values", 1, -math.inf, "finite"),
        ("weights", 1, 0.0, "positive"), ("weights", 2, -1.0, "positive"),
    ])
    def test_rejects_bad_input(self, field, index, bad, message):
        arrays = {"coords": np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
                  "values": np.array([10.0, 20.0, 30.0]), "weights": np.array([0.5, 1.0, 0.25])}
        arrays[field][index] = bad
        with pytest.raises(InvalidConfig, match=message):
            ScatteredSamples(**arrays)


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
        # k != l: a swap of the x and y tables selects (1, 2) instead
        m = 8
        amplitude = 3.25
        xs, ys = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        coords = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(float)
        values = amplitude * np.array([dct2_basis_oracle(2, 1, x, y, m, m) for x, y in coords])
        config = FsmmrConfig(model_size=m, gamma=1.0, sigma=0.9, max_iterations=1)
        model = generate_model(uniform_samples(coords, values), config)
        assert model.selection_history[0] == (2, 1)
        (u, v, c) = model.terms[0]
        assert (u, v) == (2, 1)
        assert c == pytest.approx(amplitude, abs=1e-9)
        assert model.final_energy == pytest.approx(0.0, abs=1e-9)
        # cross-check the coefficient against a full least-squares fit
        projected = grid_least_squares_projection(values.reshape(m, m), m, m)
        assert projected[(2, 1)] == pytest.approx(amplitude, abs=1e-9)

    def test_energy_monotone_and_selection_maximal(self):
        rng = np.random.default_rng(31)
        coords = rng.uniform(0, 7, size=(40, 2))
        values = rng.uniform(0, 255, size=40)
        weights = rng.uniform(0.1, 1.0, size=40)
        config = FsmmrConfig(model_size=8, gamma=0.5, max_iterations=30)
        samples = ScatteredSamples(coords, values, weights)
        model = generate_model(samples, config)

        energies = (float(weights @ (values**2)),) + model.energy_history
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1 + 1e-9)

        # replay the greedy scan and confirm each selection attains the max score
        candidates = [tuple(kl) for kl in config.frequencies[0].tolist()]
        phi = np.array([
            [dct2_basis_oracle(k, l, x, y, 8, 8) for x, y in coords]
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
        model = SparseModel(terms=(), size=16, iterations_run=0, final_energy=0.0)
        assert list(evaluate_model(model, [[1.0, 2.0], [3.0, 4.0]])) == [0.0, 0.0]

    def test_dc_model_constant(self):
        from cloudcolor.fsmmr import SparseModel
        model = SparseModel(terms=((0, 0, 42.0),), size=16, iterations_run=1, final_energy=0.0)
        out = evaluate_model(model, [[0.0, 0.0], [9.0, 13.5]])
        assert np.allclose(out, 42.0)

    @pytest.mark.parametrize("u, v", [(16, 0), (0, 4), (-1, 0), (0, -1)])
    def test_term_outside_the_window_is_rejected(self, u, v):
        from cloudcolor.fsmmr import SparseModel
        with pytest.raises(InvalidConfig, match="inside the window"):
            SparseModel(terms=((0, 0, 1.0), (u, v, 2.0)), size=4, iterations_run=2, final_energy=0.0)

    def test_reproduces_single_basis_signal(self):
        m = 8
        xs, ys = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        coords = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(float)
        values = 2.0 * np.array([dct2_basis_oracle(2, 1, x, y, m, m) for x, y in coords])
        config = FsmmrConfig(model_size=m, gamma=1.0, sigma=0.9, max_iterations=4)
        model = generate_model(uniform_samples(coords, values), config)
        out = evaluate_model(model, coords)
        assert np.abs(out - values).max() < 1e-6


def float_bits(values):
    """Floats as hex strings, so a comparison tells -0.0 from 0.0 and any ulp apart."""
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def model_bits(model):
    return (
        [(u, v, c.hex()) for u, v, c in model.terms], model.size, model.iterations_run,
        model.final_energy.hex(), float_bits(model.energy_history), model.selection_history,
    )


def scattered_case(m, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 60))
    coords = rng.uniform(0, 1, size=(size, 2)) * (m - 1)
    return coords, rng.uniform(0, 255, size), rng.uniform(0.05, 1.0, size)


def grid_case(m, seed):
    """Every integer point of the window, some duplicated: exact zeros of the
    basis and equal scores, so the tie-break decides."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    coords = np.column_stack([xs.reshape(-1), ys.reshape(-1)]).astype(float)
    coords = np.concatenate([coords, coords[rng.integers(0, len(coords), 3)]])
    values = rng.integers(0, 4, len(coords)) * 64.0
    return coords, values, np.ones(len(coords))


class TestFitMatchesSeedOracle:
    """The table-backed fit and evaluation against the seed's per-candidate
    basis and per-term evaluation, bit for bit.  The samples and queries
    are not symmetric in x and y, so a swap of the x and y tables fails."""

    @pytest.mark.parametrize("window", [(5, 5), (11, 11), (1, 1), (7, 7), (16, 16), (3, 3)])
    @pytest.mark.parametrize("make_case", [scattered_case, grid_case])
    @pytest.mark.parametrize("seed", range(3))
    def test_fit_and_evaluation(self, window, make_case, seed):
        m, _ = window
        coords, values, weights = make_case(m, seed)
        config = FsmmrConfig(model_size=m, gamma=0.5 + 0.25 * seed, sigma=0.8, max_iterations=60)
        samples = ScatteredSamples(coords, values, weights)
        model = generate_model(samples, config)
        assert model_bits(model) == model_bits(generate_model_oracle(samples, config))
        # one basis shared by fits of other values at the same points, as upsample_block's R, G and B
        basis = fit_basis(samples, config)
        for shared in (samples, ScatteredSamples(coords, values[::-1], weights)):
            assert model_bits(generate_model(shared, config, basis)) == model_bits(generate_model_oracle(shared, config))

        # queries inside the window, on its grid and just outside it (clipped)
        rng = np.random.default_rng(seed + 100)
        queries = np.concatenate([
            rng.uniform(0, 1, size=(40, 2)) * (m - 1), coords,
            [[-0.5, -0.5], [m - 1 + 1e-9, m - 1 + 0.5]],
        ])
        assert float_bits(evaluate_model(model, queries)) == float_bits(evaluate_model_oracle(model, queries))
        # one query table shared by the models of other values, as upsample_block's R, G and B
        table = query_table(queries, m)
        for shared in (model, generate_model(ScatteredSamples(coords, values[::-1], weights), config, basis)):
            assert float_bits(evaluate_model(shared, queries, table)) == float_bits(evaluate_model_oracle(shared, queries))

    @pytest.mark.parametrize("stop", ["energy threshold", "zero decrease at once", "constant signal"])
    def test_early_stops(self, stop):
        coords, values, weights = scattered_case(11, 7)
        config = FsmmrConfig(model_size=11, gamma=1.0)
        if stop == "energy threshold":
            unstopped = generate_model_oracle(ScatteredSamples(coords, values, weights), config)
            config = dataclasses.replace(config, energy_threshold=unstopped.energy_history[9])
        elif stop == "zero decrease at once":
            values = np.zeros_like(values)
        else:
            values = np.full_like(values, 42.0)
        samples = ScatteredSamples(coords, values, weights)
        model = generate_model(samples, config)
        if stop == "constant signal":
            assert model.final_energy == 0.0 and model.iterations_run < config.max_iterations
        else:
            assert model.iterations_run == {"energy threshold": 10, "zero decrease at once": 0}[stop]
        assert model_bits(model) == model_bits(generate_model_oracle(samples, config))

    @pytest.mark.parametrize("window, x", [((2, 2), 0.5), ((6, 6), 1.0)])
    @pytest.mark.parametrize("seed", range(3))
    def test_vanishing_candidates(self, window, x, seed):
        # cos_x[k] is about 6e-17 at this x (k = 1 for M = 2, k = 2 for M = 6),
        # so with weights near 1e-300 those rows' phi^2 . w underflow to 0
        m, _ = window
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 40))
        coords = np.column_stack([np.full(size, x), rng.uniform(0, m - 1, size)])
        samples = ScatteredSamples(coords, rng.uniform(0, 255, size), rng.uniform(0.5, 2.0, size) * 1e-300)
        config = FsmmrConfig(model_size=m, gamma=0.5 + 0.25 * seed, max_iterations=60)
        kl, _ = config.frequencies
        cos_x, cos_y = _cosine_tables(samples.coords, m)
        assert (((cos_x[kl[:, 0]] * cos_y[kl[:, 1]]) ** 2) @ samples.weights == 0).any()
        expected = model_bits(generate_model_oracle(samples, config))
        assert model_bits(generate_model(samples, config)) == expected
        assert model_bits(generate_model(samples, config, fit_basis(samples, config))) == expected


def lockstep_case(kind, blocks, n, m, seed):
    """`blocks` lists of R, G and B samples, n each, and a config:
    - scattered: random points, values and weights;
    - threshold: the same with an energy threshold that one fit crosses
      mid-way, so fits stop at different iterations;
    - grid: integer points of the window, duplicated at random, with
      weights near 1e-300 so that candidate rows vanish, quantised values
      and all-zero channels, which stop at once on a zero decrease."""
    rng = np.random.default_rng(seed)
    config = FsmmrConfig(model_size=m, gamma=float(rng.choice([0.5, 0.75, 1.0])), max_iterations=int(rng.integers(1, 60)))
    cases = []
    for _ in range(blocks):
        if kind == "grid":
            coords = rng.integers(0, m, size=(n, 2)).astype(float)
            weights = rng.uniform(0.5, 2.0, n) * (1e-300 if rng.random() < 0.5 else 1.0)
            channels = [rng.integers(0, 4, n) * 64.0 * (rng.random() < 0.7) for _ in range(3)]
        else:
            coords, weights = rng.uniform(0, 1, size=(n, 2)) * (m - 1), rng.uniform(0.05, 1.0, n)
            channels = [rng.uniform(0, 255, n) for _ in range(3)]
        cases.append([ScatteredSamples(coords, values, weights) for values in channels])
    if kind == "threshold":
        history = generate_model(cases[0][0], config).energy_history
        config = dataclasses.replace(config, energy_threshold=history[len(history) // 2])
    return cases, config


class TestLockstepFit:
    """`_generate_models` fits blocks of equal n in lockstep; every fit must
    be `generate_model`'s and the seed oracle's, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["scattered", "threshold", "grid"]), blocks=st.integers(2, 6), n=st.integers(1, 60),
           m=st.sampled_from([1, 2, 5, 6, 16]), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_fit_is_generate_model_bit_for_bit(self, kind, blocks, n, m, seed):
        cases, config = lockstep_case(kind, blocks, n, m, seed)
        fitted = list(_generate_models(cases, config))
        assert [len(models) for models in fitted] == [3] * blocks
        for channels, models in zip(cases, fitted):
            for samples, model in zip(channels, models):
                assert model_bits(model) == model_bits(generate_model(samples, config))
                assert model_bits(model) == model_bits(generate_model_oracle(samples, config))

    @pytest.mark.parametrize("kind", ["threshold", "grid"])
    def test_fits_that_stop_early_leave_the_others_running(self, kind):
        cases, config = lockstep_case(kind, 4, 20, 6, 3)
        runs = [model.iterations_run for models in _generate_models(cases, config) for model in models]
        assert min(runs) < max(runs)  # some fits stopped mid-group
        assert runs == [generate_model(samples, config).iterations_run for channels in cases for samples in channels]


class TestShareFit:
    """`_upsample_share` gives each problem `upsample_block`'s colors or
    error, whether it ran in a group or on its own."""

    def problems(self, sizes, seed=0):
        rng = np.random.default_rng(seed)
        return [(rng.uniform(0, 3, size=(n, 2)), rng.integers(0, 256, size=(n, 3), dtype=np.uint8),
                 rng.uniform(0, 3, size=(5, 2))) for n in sizes]

    def test_groups_by_sample_count_and_matches_upsample_block(self, monkeypatch):
        groups = []

        def recording(blocks, config):
            groups.append(len(blocks))
            return _generate_models(blocks, config)

        monkeypatch.setattr(fsmmr, "_generate_models", recording)
        problems = self.problems([7, 3, 7, 12, 7, 3])
        done = _upsample_share(problems, FsmmrConfig())
        assert sorted(groups) == [2, 3]  # n = 12 runs on its own
        for problem, (colors, seconds) in zip(problems, done):
            assert colors.tolist() == upsample_block(*problem).tolist() and seconds >= 0
        assert done[0][1] == done[2][1] == done[4][1]  # the group's seconds, split evenly

    def test_a_problem_whose_span_fails_gets_its_error_and_the_rest_of_its_group_their_colors(self):
        # a flattened x span of 5e-324: normalize_to_window cannot scale it, so the group raises and reruns
        problems = self.problems([2, 2, 2])
        problems[1] = (np.array([(0.0, 0.0), (5e-324, 1.0)]), problems[1][1], np.array([(0.0, 0.5)]))
        done = _upsample_share(problems, FsmmrConfig())
        assert type(done[1][0]) is InvalidInput and "span" in str(done[1][0])
        for i in (0, 2):
            assert done[i][0].tolist() == upsample_block(*problems[i]).tolist()

    def test_an_unbounded_cap_returns_once_every_fit_reaches_zero_energy(self):
        # one sample at the window center: weight 1, so a full step (gamma 1) leaves zero energy
        config = FsmmrConfig(max_iterations=10 ** 12, gamma=1.0)
        samples = ScatteredSamples([(7.5, 7.5)], [200.0], [1.0])
        assert generate_model(samples, config).iterations_run == 1
        assert [model.iterations_run for [model] in _generate_models([[samples]] * 2, config)] == [1, 1]
        problems = [([(0.0, 0.0)], [(10, 20, 30)], [(0.0, 0.0)]), ([(5.0, 1.0)], [(40, 50, 60)], [(5.0, 1.0)])]
        problems = [(np.array(o, dtype=float), np.array(c, dtype=np.uint8), np.array(q, dtype=float)) for o, c, q in problems]
        assert upsample_block(*problems[0], config).tolist() == [[10, 20, 30]]
        assert [colors.tolist() for colors, _ in _upsample_share(problems, config)] == [[[10, 20, 30]], [[40, 50, 60]]]


class TestNormalizeToWindow:
    def test_corners(self):
        out = normalize_to_window(np.array([(0, 0), (10, 20)]), 8)
        assert np.allclose(out, [[0, 0], [7, 7]])

    def test_degenerate_axis_maps_to_center(self):
        out = normalize_to_window(np.array([(5, 1), (5, 2)]), 16)
        assert np.allclose(out[:, 0], 7.5)

    # a subnormal span's inverse overflows, and so does the span of +-1.7e308:
    # both used to map a coordinate to inf or nan
    @pytest.mark.parametrize("coords", [[(0, 0), (5e-324, 1)], [(-1.7e308, 0), (1.7e308, 1)]])
    def test_a_span_float64_cannot_scale_is_invalid_input(self, coords):
        with pytest.raises(InvalidInput, match="span"):
            normalize_to_window(coords, 16)

    def test_affine_interior(self):
        out = normalize_to_window(np.array([(0, 0), (5, 0), (10, 0)]), 8)
        assert np.allclose(out[:, 0], [0.0, 3.5, 7.0])
        assert np.allclose(out[:, 1], 3.5)

    @pytest.mark.parametrize("m", [1, 2, 16])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("degenerate", ["none", "x", "y", "both"])
    def test_matches_the_per_axis_oracle(self, m, scale, degenerate):
        rng = np.random.default_rng(m)
        coords = (rng.uniform(-1, 1, size=(30, 2)) + rng.uniform(-5, 5, 2)) * scale
        for axis in {"x": [0], "y": [1], "both": [0, 1]}.get(degenerate, []):
            coords[:, axis] = coords[0, axis]
        assert float_bits(normalize_to_window(coords, m)) == float_bits(normalize_to_window_oracle(coords, m))


def mixed_cloud(positions, colors):
    """None in `colors` marks a point to reconstruct."""
    original = [c is not None for c in colors]
    colors = [c if c is not None else (0, 0, 0) for c in colors]
    return ColorPointCloud(positions, colors, original=original, colored=original)


class TestUpsampleBlock:
    def colors_of_one_block(self, positions, colors):
        """FSMMR's `_block_colors` over a cloud that is one block."""
        cloud = mixed_cloud(positions, colors)
        [block] = partition_into_blocks(cloud, 1e9)
        return _block_colors(block, partial(flatten_block, block, cloud), cloud, InterpolatorKind.FSMMR,
                             UpsampleConfig(), upsample_block)

    def test_constant_color_block(self):
        rng = np.random.default_rng(17)
        positions = rng.uniform(0, 4, size=(20, 3))
        colors = [None if i % 3 == 0 else (100, 150, 200) for i in range(20)]
        ids, colors = self.colors_of_one_block(positions, colors)
        assert ids.tolist() == list(range(0, 20, 3))
        assert all(tuple(c) == (100, 150, 200) for c in colors.tolist())

    @pytest.mark.parametrize("method, expected", [
        (InterpolatorKind.FSMMR, (9, 9, 9)), (InterpolatorKind.IDW2, (9, 9, 9)),
        (InterpolatorKind.LIN2_DELAUNAY, None),
    ])
    def test_zero_original_block_falls_back_to_nearest(self, method, expected):
        cloud = mixed_cloud([(100.0, 0, 0), (0.0, 0, 0), (0.5, 0, 0)], [(9, 9, 9), None, None])
        lonely = next(b for b in partition_into_blocks(cloud, 4.0) if 1 in b.point_ids)
        ids, colors = _block_colors(lonely, partial(flatten_block, lonely, cloud), cloud, method, UpsampleConfig(), upsample_block)
        # LIN2 leaves both points uncolored, and uncolored points are left out
        colored = {pid: tuple(c) for pid, c in zip(ids.tolist(), colors.tolist())}
        assert colored == ({} if expected is None else {1: expected, 2: expected})

    @pytest.mark.parametrize("far", [1e300, -1e300])
    def test_colors_whose_fit_overflows_are_invalid_input(self, far):
        # used to emit hundreds of overflow warnings and return clamped colors
        with pytest.raises(InvalidInput, match="outside 8 bits"):
            upsample_block([[0, 0], [1, 1]], [[far, 0, 0], [0, far, 0]], [[0.5, 0.5]])

    def test_no_reconstruct_points_returns_empty(self):
        ids, colors = self.colors_of_one_block([(0, 0, 0), (1, 1, 1)], [(1, 2, 3), (4, 5, 6)])
        assert ids.size == 0 and colors.shape == (0, 3)

    def test_linear_ramp_midpoint(self):
        # colors ramp along x; the reconstructed midpoint should sit near the
        # ramp value, checked against a dense least-squares fit on the same basis
        rng = np.random.default_rng(23)
        xs = np.linspace(0, 4, 17)
        positions = [(float(x), 0.0, 0.0) for x in xs] + [(2.07, 0.0, 0.0)]
        colors = [(int(round(40 + 40 * x)),) * 3 for x in xs] + [None]
        ids, colors = self.colors_of_one_block(positions, colors)
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
    assert got.tolist() == [_round_channel_oracle(v) if math.isfinite(v) else (255 if v > 0 else 0)
                            for v in values.tolist()]


def test_round_color_channel():
    assert round_color_channel(0.5) == 1
    assert round_color_channel(-0.5) == 0  # -1 clamped up to 0
    assert round_color_channel(254.4) == 254
    assert round_color_channel(270.0) == 255
    assert round_color_channel(-3.0) == 0
