import dataclasses
import inspect
import math
from functools import cache, partial
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcolor import fsmmr
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks, round_color_channel
from cloudcolor.errors import EmptySamples, InvalidConfig, InvalidInput
from cloudcolor.fsmmr import (
    FsmmrConfig, ScatteredSamples, SparseModel, _cosine_tables, _Fit, _fit_basis, _generate_models, _query_table, _term_sum,
    _upsample_share, _Window, evaluate_model, frequency_weight, generate_model,
    normalize_to_window, spatial_weight, upsample_block,
)
from cloudcolor.pipeline import UpsampleConfig, _block_colors, _timed
from cloudcolor.surface_transform import flatten_block

from oracles import (
    _round_channel_oracle, block_samples_oracle, dct2_basis_oracle, evaluate_model_oracle, generate_model_oracle,
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

    def test_the_sum_starts_from_positive_zero(self):
        # the one product is -0.0 (a zero coefficient times cos(5 pi / 8) < 0); added to +0.0 it
        # reads +0.0, as in the oracle, where a cumulative sum of the products alone reads -0.0
        from cloudcolor.fsmmr import SparseModel
        model = SparseModel(((1, 0, 0.0),), 4, 1, 0.0)
        assert float_bits(evaluate_model(model, [(2.0, 0.0)])) == float_bits(evaluate_model_oracle(model, [(2.0, 0.0)])) == ["0x0.0p+0"]

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
        basis = _fit_basis(_cosine_tables(samples.coords, m), samples.weights, config)
        for shared in (samples, ScatteredSamples(coords, values[::-1], weights)):
            assert model_bits(generate_model(shared, config, _basis=basis)) == model_bits(generate_model_oracle(shared, config))

        # queries inside the window, on its grid and just outside it (clipped)
        rng = np.random.default_rng(seed + 100)
        queries = np.concatenate([
            rng.uniform(0, 1, size=(40, 2)) * (m - 1), coords,
            [[-0.5, -0.5], [m - 1 + 1e-9, m - 1 + 0.5]],
        ])
        assert float_bits(evaluate_model(model, queries)) == float_bits(evaluate_model_oracle(model, queries))
        # one query table shared by the models of other values, as upsample_block's R, G and B
        table = _query_table(queries, m)
        for shared in (model, generate_model(ScatteredSamples(coords, values[::-1], weights), config, _basis=basis)):
            assert float_bits(evaluate_model(shared, queries, _table=table)) == float_bits(evaluate_model_oracle(shared, queries))

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
        assert model_bits(generate_model(samples, config, _basis=_fit_basis(_cosine_tables(samples.coords, m), samples.weights, config))) == expected


def sample_set(channels, m):
    """The R, G and B `channels` of one block in an m x m window, which share
    their coordinates and weights, as a ``_generate_models`` set: the
    samples' cosine tables, their weights and their colors."""
    return _cosine_tables(channels[0].coords, m), channels[0].weights, np.array([samples.values for samples in channels])


def fit_bits(fit, config):
    """`model_bits` of the model that a `_Fit` record stands for."""
    kl, _ = config.frequencies
    return (
        [(u, v, c.hex()) for (u, v), c in zip(fit.frequencies.tolist(), fit.coefficients.tolist())], config.model_size,
        fit.iterations_run, fit.final_energy.hex(), float_bits(fit.energy_history), tuple(map(tuple, kl[fit.selections].tolist())),
    )


def share_problem(positions, colors, queries, config=FsmmrConfig(), seed=0):
    """An FSMMR problem as the pipeline defers it to ``_upsample_share``:
    the originals, their colors and the queries, then the block's cached
    `_Window` call and the originals' mask, the block being the originals
    and the queries interleaved at random."""
    positions, queries = np.asarray(positions, dtype=float), np.asarray(queries, dtype=float)
    is_original = np.random.default_rng(seed).permutation(len(positions) + len(queries)) < len(positions)
    flat = np.empty((len(is_original), 2))
    flat[is_original], flat[~is_original] = positions, queries
    return positions, np.asarray(colors, dtype=np.uint8), queries, cache(lambda: _timed(_Window, flat, config)[0]), is_original


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
    """`_generate_models` fits blocks of equal n in lockstep; every fit's
    record must be `generate_model`'s model and the seed oracle's, bit for
    bit, and evaluate as the model does."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["scattered", "threshold", "grid"]), blocks=st.integers(2, 6), n=st.integers(1, 60),
           m=st.sampled_from([1, 2, 5, 6, 16]), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_fit_is_generate_model_bit_for_bit(self, kind, blocks, n, m, seed):
        cases, config = lockstep_case(kind, blocks, n, m, seed)
        fitted = list(_generate_models([sample_set(channels, m) for channels in cases], config))
        assert [len(fits) for fits in fitted] == [3] * blocks
        for channels, fits in zip(cases, fitted):
            for samples, fit in zip(channels, fits):
                assert fit_bits(fit, config) == model_bits(generate_model(samples, config))
                assert fit_bits(fit, config) == model_bits(generate_model_oracle(samples, config))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["scattered", "threshold", "grid"]), n=st.integers(1, 40),
           m=st.sampled_from([1, 2, 5, 6, 16]), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_record_evaluates_as_evaluate_model_bit_for_bit(self, kind, n, m, seed):
        cases, config = lockstep_case(kind, 2, n, m, seed)
        # queries inside the window, on its grid and just outside it (clipped)
        rng = np.random.default_rng(seed)
        queries = np.concatenate([rng.uniform(0, 1, size=(30, 2)) * (m - 1), cases[0][0].coords, [[-0.5, m - 0.5]]])
        for channels, fits in zip(cases, _generate_models([sample_set(channels, m) for channels in cases], config)):
            for samples, fit in zip(channels, fits):
                model = generate_model(samples, config)
                for at in (queries, queries[:1]):  # one query: numpy sums a column of terms pairwise, not in order
                    record = _term_sum(*fit.frequencies.T, fit.coefficients, _query_table(at, m))
                    assert float_bits(record) == float_bits(evaluate_model(model, at)) == float_bits(evaluate_model_oracle(model, at))

    def test_a_record_sum_starts_from_positive_zero(self):
        # TestEvaluateModel's -0.0 product: the record's sum must read +0.0 too
        model = SparseModel(((1, 0, 0.0),), 4, 1, 0.0)
        fit = _Fit(np.array([[1, 0]]), np.array([0.0]), 1, 0.0, np.array([2]), np.array([0.0]))
        queries = np.array([(2.0, 0.0)])
        assert float_bits(_term_sum(*fit.frequencies.T, fit.coefficients, _query_table(queries, 4))) == float_bits(evaluate_model(model, queries)) == ["0x0.0p+0"]

    @pytest.mark.parametrize("kind", ["threshold", "grid"])
    def test_fits_that_stop_early_leave_the_others_running(self, kind):
        cases, config = lockstep_case(kind, 4, 20, 6, 3)
        runs = [fit.iterations_run for fits in _generate_models([sample_set(channels, 6) for channels in cases], config) for fit in fits]
        assert min(runs) < max(runs)  # some fits stopped mid-group
        assert runs == [generate_model(samples, config).iterations_run for channels in cases for samples in channels]


class TestShareFit:
    """`_upsample_share` gives each problem `upsample_block`'s colors or
    error, whether it ran in a group or on its own."""

    def problems(self, sizes, seed=0):
        rng = np.random.default_rng(seed)
        return [share_problem(rng.uniform(0, 3, size=(n, 2)), rng.integers(0, 256, size=(n, 3), dtype=np.uint8),
                              rng.uniform(0, 3, size=(5, 2)), seed=n) for n in sizes]

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
            assert colors.tolist() == upsample_block(*problem[:3]).tolist() and seconds >= 0
        assert done[0][1] == done[2][1] == done[4][1]  # the group's seconds, split evenly

    def test_the_channels_of_a_block_share_one_basis_and_one_query_table(self, monkeypatch):
        # without the sharing every color stays the same, only the time grows; a block's window
        # builds its cosine table and the clipped columns of its query table, 2 calls
        fit, tables = Mock(wraps=fsmmr._fit_basis), Mock(wraps=fsmmr._cosine_tables)
        monkeypatch.setattr(fsmmr, "_fit_basis", fit)
        monkeypatch.setattr(fsmmr, "_cosine_tables", tables)
        upsample_block(*self.problems([7])[0][:3])
        assert (fit.call_count, tables.call_count) == (1, 2)
        _upsample_share(self.problems([7, 7, 7, 12]), FsmmrConfig())  # one group of three blocks and a lone block
        assert (fit.call_count, tables.call_count) == (5, 10)

    def test_only_the_lone_block_builds_scattered_samples(self, monkeypatch):
        # a grouped block's channels are the rows of its one sample set; the lone block's
        # generate_model calls are the only readers of ScatteredSamples
        built = []

        class Counted(ScatteredSamples):  # a subclass, not a Mock: generate_model checks its samples by class
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(fsmmr, "ScatteredSamples", Counted)
        _upsample_share(self.problems([7, 7, 7, 12]), FsmmrConfig())
        assert len(built) == 3

    @pytest.mark.parametrize("function, public, private", [
        (generate_model, ["samples", "config"], "_basis"), (evaluate_model, ["model", "queries"], "_table"),
    ])
    def test_the_shared_basis_and_table_are_only_private_keyword_arguments(self, function, public, private):
        parameters = inspect.signature(function).parameters
        assert [name for name, p in parameters.items() if p.kind is p.POSITIONAL_OR_KEYWORD] == public
        assert [name for name, p in parameters.items() if p.kind is p.KEYWORD_ONLY] == [private]
        with pytest.raises(TypeError):
            function(None, None, None)  # a third positional argument is no cache

    def test_a_problem_whose_span_fails_gets_its_error_and_the_rest_of_its_group_their_colors(self, monkeypatch):
        # a flattened x span of 5e-324: normalize_to_window cannot scale it; the other four still fit in lockstep
        problems = self.problems([2, 2, 2, 2, 2])
        problems[1] = share_problem([(0.0, 0.0), (5e-324, 1.0)], problems[1][1], [(0.0, 0.5)])
        one_block, groups = Mock(wraps=upsample_block), Mock(wraps=_generate_models)
        monkeypatch.setattr(fsmmr, "upsample_block", one_block)
        monkeypatch.setattr(fsmmr, "_generate_models", groups)
        done = _upsample_share(problems, FsmmrConfig())
        assert one_block.call_count == 0 and [len(call.args[0]) for call in groups.call_args_list] == [4]
        assert done[1][0] is problems[1][3]()  # the cached window's error, as it is
        assert type(done[1][0]) is InvalidInput and "span" in str(done[1][0])
        for i in (0, 2, 3, 4):
            assert done[i][0].tolist() == upsample_block(*problems[i][:3]).tolist()

    def test_a_lone_problem_whose_span_fails_gets_its_error_and_the_other_groups_their_colors(self, monkeypatch):
        # the only problem with n = 2 takes upsample_block, which raises on its 5e-324 x span
        problems = self.problems([7, 3, 7, 3])
        problems.insert(2, share_problem([(0.0, 0.0), (5e-324, 1.0)], [(1, 2, 3), (4, 5, 6)], [(0.0, 0.5)]))
        one_block = Mock(wraps=upsample_block)
        monkeypatch.setattr(fsmmr, "upsample_block", one_block)
        done = _upsample_share(problems, FsmmrConfig())
        assert one_block.call_count == 1 and len(one_block.call_args.args[0]) == 2
        assert type(done[2][0]) is InvalidInput and "span" in str(done[2][0])
        for i in (0, 1, 3, 4):
            assert done[i][0].tolist() == upsample_block(*problems[i][:3]).tolist()

    def test_an_unbounded_cap_returns_once_every_fit_reaches_zero_energy(self):
        # one sample at the window center: weight 1, so a full step (gamma 1) leaves zero energy
        config = FsmmrConfig(max_iterations=10 ** 12, gamma=1.0)
        samples = ScatteredSamples([(7.5, 7.5)], [200.0], [1.0])
        assert generate_model(samples, config).iterations_run == 1
        assert [fit.iterations_run for [fit] in _generate_models([sample_set([samples], 16)] * 2, config)] == [1, 1]
        problems = [share_problem([(0.0, 0.0)], [(10, 20, 30)], [(0.0, 0.0)], config),
                    share_problem([(5.0, 1.0)], [(40, 50, 60)], [(5.0, 1.0)], config)]
        assert upsample_block(*problems[0][:3], config).tolist() == [[10, 20, 30]]
        assert [colors.tolist() for colors, _ in _upsample_share(problems, config)] == [[[10, 20, 30]], [[40, 50, 60]]]


def array_bits(array):
    """An array's shape and bytes: equal only bit for bit, -0.0 apart from 0.0."""
    array = np.asarray(array)
    return array.shape, array.dtype, array.tobytes()


class TestBlockWindow:
    """A block's `_Window` is built once for all its role splits; sliced by a
    split's original mask, it must be that split's own geometry bit for bit.
    That rests on np.cos giving an element the same value wherever it sits
    in the array, which this pins for the numpy at hand."""

    @settings(max_examples=150, deadline=None)
    @given(points=st.integers(2, 120), m=st.sampled_from([1, 2, 5, 16]), scale=st.sampled_from([1e-9, 1.0, 37.5, 1e12]),
           degenerate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_a_split_of_the_window_is_the_split_geometry_bit_for_bit(self, points, m, scale, degenerate, seed, data):
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=(points, 2)) * scale  # a flattened block: the root need not sit at the origin here
        if degenerate:
            flat[:, 1] = flat[0, 1]  # an axis without span maps to the window center
        is_original = np.array(data.draw(st.lists(st.booleans(), min_size=points, max_size=points)
                                         .filter(lambda mask: any(mask) and not all(mask))))
        colors = rng.integers(0, 256, size=(points, 3), dtype=np.uint8)
        config = FsmmrConfig(model_size=m, rho=0.9)
        split = flat[is_original], colors[is_original], flat[~is_original]
        window = _Window(flat, config)
        (cosines, weights, channels), clipped = window.split(split[1], is_original)
        (o_coords, o_weights, o_channels), r_coords = block_samples_oracle(*split, config)
        assert array_bits(window.coords[is_original]) == array_bits(o_coords)
        assert array_bits(window.coords[~is_original]) == array_bits(r_coords)
        assert array_bits(weights) == array_bits(o_weights) and array_bits(channels) == array_bits(o_channels)
        assert array_bits(cosines) == array_bits(_cosine_tables(o_coords, m))
        assert array_bits(clipped) == array_bits(_query_table(r_coords, m))
        for shared, own in zip(_fit_basis(cosines, weights, config), _fit_basis(_cosine_tables(o_coords, m), o_weights, config)):
            assert array_bits(shared) == array_bits(own)

    def test_a_query_past_the_window_edge_reads_its_clipped_cosines(self):
        # normalize_to_window maps the second point's x to 15.000000000000002, one ulp past the
        # window: its query column is the cosine at 15.0, which differs from the unclipped one
        flat = np.array([(-11.993484665370788, -35.63998744379695), (0.24431197011558162, -42.144983533711375),
                         (-40.98353884857161, 54.63606807394708), (-1.994408261450303, -2.0213259552016107)])
        is_original, config = np.array([True, False, True, True]), FsmmrConfig()
        window = _Window(flat, config)
        assert window.coords[1, 0] > 15.0
        _, clipped = window.split(np.zeros((3, 3)), is_original)
        _, r_coords = block_samples_oracle(flat[is_original], np.zeros((3, 3)), flat[~is_original], config)
        assert array_bits(clipped) == array_bits(_query_table(r_coords, 16)) != array_bits(window.tables[0][:, :, 1:2])

    def test_the_tables_are_built_once_per_block(self, monkeypatch):
        tables = Mock(wraps=fsmmr._cosine_tables)
        monkeypatch.setattr(fsmmr, "_cosine_tables", tables)
        flat = np.random.default_rng(0).uniform(0, 3, size=(9, 2))
        window = _Window(flat, FsmmrConfig())
        for k in range(1, 8):
            window.split(np.zeros((k, 3)), np.arange(9) < k)
        assert tables.call_count == 2  # at the points, and clipped to the window

    def test_a_window_too_large_for_its_candidates_raises_before_any_table(self, monkeypatch):
        # 10^16 candidates: numpy refuses them without allocating; a (2, 10^8, n) table would be allocated
        tables = Mock(wraps=fsmmr._cosine_tables)
        monkeypatch.setattr(fsmmr, "_cosine_tables", tables)
        flat, config = np.array([(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]), FsmmrConfig(model_size=10 ** 8, rho=0.9999999)
        with pytest.raises(MemoryError):
            _Window(flat, config)
        with pytest.raises(MemoryError):
            upsample_block(flat[:2], np.zeros((2, 3)), flat[2:], config)
        assert tables.call_count == 0


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
