"""Frequency-selective resampling of scattered 2D samples.

A sparse model over continuous DCT-II basis functions is grown greedily:
each iteration picks the frequency pair whose energy-optimal coefficient
update, biased by a low-frequency weighting, removes the most weighted
residual energy.  The model is then evaluated at arbitrary query
coordinates inside the same window.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Tuple

import numpy as np

from .core import as_instance, as_kernel_rows, as_number, as_rows, as_values, nearest_original_color, round_color_channel, shown  # noqa: F401  perfbench's tracer lists fsmmr.nearest_original_color
from .errors import CloudColorError, EmptySamples, InvalidConfig, InvalidInput

_MAX_WINDOW_SIZE = math.isqrt(np.iinfo(np.intp).max // 8)  # the largest side M whose M^2 candidates numpy can hold as 8-byte values: 2^30 - 1 on 64 bits


@dataclass(frozen=True)
class FsmmrConfig:
    model_size: int = 16    # basis period length M of the M x M window
    sigma: float = 0.8      # frequency-weight decay
    rho: float = 0.7        # spatial-weight decay
    gamma: float = 0.5      # damping of each coefficient update
    max_iterations: int = 100
    energy_threshold: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "model_size", _window_size(self.model_size, "model_size"))
        kinds = {"sigma": float, "rho": float, "gamma": float, "max_iterations": int, "energy_threshold": float}
        for name, kind in kinds.items():
            object.__setattr__(self, name, as_number(getattr(self, name), name, kind))
        if not (0.0 < self.sigma < 1.0):
            raise InvalidConfig("sigma must lie in (0, 1)")
        if not (0.0 < self.rho < 1.0):
            raise InvalidConfig("rho must lie in (0, 1)")
        if spatial_weight(0, 0, self.model_size, self.rho) == 0:  # a window corner gets the least spatial weight
            raise InvalidConfig(f"rho {self.rho} and model_size {shown(self.model_size)} give a window corner a spatial weight of 0")
        if not (0.0 < self.gamma <= 1.0):
            raise InvalidConfig("gamma must lie in (0, 1]")
        if self.max_iterations < 1:
            raise InvalidConfig("max_iterations must be >= 1")
        if not self.energy_threshold >= 0:  # NaN fails too
            raise InvalidConfig("energy_threshold must be non-negative")

    @cached_property
    def frequencies(self) -> Tuple[np.ndarray, np.ndarray]:
        """The M*M candidate frequencies as (k, l) rows of an int array,
        ordered by the selection tie-break (k^2 + l^2, then k, then l), and
        their frequency weights; built once per config."""
        k, l = np.divmod(np.arange(self.model_size ** 2), self.model_size)
        kl = np.column_stack([k, l])[np.lexsort((l, k, k * k + l * l))]
        wf = np.array([frequency_weight(k, l, self.sigma) for k, l in kl.tolist()])
        kl.flags.writeable = wf.flags.writeable = False  # shared by every fit with this config
        return kl, wf


@dataclass
class ScatteredSamples:
    coords: np.ndarray   # (n, 2), inside [0, M-1]^2
    values: np.ndarray   # (n,)
    weights: np.ndarray  # (n,), positive

    def __post_init__(self):
        self.coords = as_rows(self.coords, "coords", 2)
        self.values, self.weights = as_values(self.values, "values"), as_values(self.weights, "weights")
        if not (len(self.coords) == len(self.values) == len(self.weights)):
            raise InvalidConfig("coords, values and weights must have equal lengths")
        if len(self.weights) and self.weights.min() <= 0:
            raise InvalidConfig("sample weights must be positive")


@dataclass(frozen=True)
class SparseModel:
    terms: Tuple[Tuple[int, int, float], ...]  # (u, v, accumulated coefficient)
    size: int                                  # the window is size x size
    iterations_run: int
    final_energy: float
    energy_history: Tuple[float, ...] = ()     # energy after each iteration
    selection_history: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        size = _window_size(self.size)
        try:
            terms = tuple((as_number(u, "terms", int), as_number(v, "terms", int), as_number(c, "terms"))
                          for u, v, c in self.terms)
        except (TypeError, ValueError):  # not a sequence of triples
            raise InvalidConfig(f"terms must be (u, v, coefficient) triples, got {shown(self.terms)}") from None
        # evaluate_model reads row u of the x table and row v of the y table
        if not all(0 <= u < size and 0 <= v < size and math.isfinite(c) for u, v, c in terms):
            raise InvalidConfig("terms must have frequencies inside the window and finite coefficients")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class _Fit:
    """``generate_model``'s model of one channel as unchecked arrays: (u, v) `frequencies`
    in first-selection order, their summed `coefficients`, `selections` as candidate indices."""
    frequencies: np.ndarray
    coefficients: np.ndarray
    iterations_run: int
    final_energy: float
    selections: np.ndarray
    energy_history: np.ndarray


def _window_size(size, name: str = "size") -> int:
    """`size`, the setting `name`, the side M of an M x M model window, as
    an int in [1, _MAX_WINDOW_SIZE]; InvalidConfig naming it otherwise."""
    size = as_number(size, name, int)
    if not 1 <= size <= _MAX_WINDOW_SIZE:
        raise InvalidConfig(f"{name} must lie in [1, {_MAX_WINDOW_SIZE}], got {shown(size)}")
    return size


def spatial_weight(x: float, y: float, size: int, rho: float) -> float:
    center = (size - 1) / 2
    return rho ** math.hypot(x - center, y - center)


def frequency_weight(k: int, l: int, sigma: float) -> float:
    return sigma ** math.hypot(k, l)


def _cosine_tables(coords: np.ndarray, size: int) -> np.ndarray:
    """The DCT-II axis cosines of an M x M window at (n, 2) coordinates, as
    a (2, M, n) array: row k of the x table is cos(pi k (2x + 1) / 2M), row
    l of the y table is cos(pi l (2y + 1) / 2M).  Basis function (k, l) is
    the product of x row k and y row l."""
    return np.cos(np.pi * np.arange(size, dtype=float)[:, None] * (2 * coords.T[:, None] + 1) / (2 * size))


def _fit_basis(cosines: np.ndarray, weights: np.ndarray, config: FsmmrConfig) -> tuple[np.ndarray, np.ndarray]:
    """The basis of a fit to samples with the (2, M, n) ``_cosine_tables``
    `cosines` and the (n,) spatial `weights` under `config`: the (C, n)
    candidate rows `phi` at the samples and their (C,) denominators
    phi^2 . w.  It reads no values, so the fits of a block's R, G and B
    share one."""
    kl, _ = config.frequencies
    cos_x, cos_y = cosines
    phi = cos_x[kl[:, 0]] * cos_y[kl[:, 1]]  # (C, n), one row per candidate
    denominators = (phi * phi) @ weights
    vanishing = denominators == 0
    # zeroed with denominator 1, a vanishing row scores 0 and never beats the DC row (first,
    # never vanishing); kept, not dropped: a gemv over fewer rows rounds the others differently
    phi[vanishing] = 0.0
    denominators[vanishing] = 1.0
    phi.flags.writeable = denominators.flags.writeable = False  # shared by the fits of every channel
    return phi, denominators


def generate_model(samples: ScatteredSamples, config: FsmmrConfig, *, _basis=None) -> SparseModel:
    """The greedy sparse model of `samples` under `config`.  Within the
    package, `_basis` is ``_fit_basis`` of samples at the same coordinates
    and weights under the same config, shared by the fits of R, G and B."""
    samples, config = as_instance(samples, "samples", ScatteredSamples), as_instance(config, "config", FsmmrConfig)
    if len(samples.values) == 0:
        raise EmptySamples("cannot generate a model from zero samples")

    kl, wf = config.frequencies
    phi, denominators = _fit_basis(_cosine_tables(samples.coords, config.model_size), samples.weights, config) if _basis is None else _basis
    w = samples.weights

    coefficients = np.zeros(len(kl))  # per candidate, summed in selection order
    selections: list[int] = []
    energies: list[float] = []
    model_at_samples = np.zeros_like(samples.values)
    residual = samples.values - model_at_samples

    for _ in range(config.max_iterations):
        coeff = (phi @ (w * residual)) / denominators
        decrease = coeff * coeff * denominators
        best = int((decrease * wf).argmax())  # first max wins: candidates are tie-break ordered
        if decrease[best] == 0.0:
            break
        step = config.gamma * coeff[best]
        coefficients[best] += step
        model_at_samples = model_at_samples + step * phi[best]
        selections.append(best)
        residual = samples.values - model_at_samples
        energies.append(float(w @ (residual * residual)))
        if energies[-1] <= config.energy_threshold:
            break

    _, first = np.unique(selections, return_index=True)
    terms = np.asarray(selections, dtype=int)[np.sort(first)]  # in first-selection order
    return SparseModel(
        terms=tuple(zip(*kl[terms].T.tolist(), coefficients[terms].tolist())),
        size=config.model_size,
        iterations_run=len(selections),
        final_energy=float(w @ (residual * residual)),
        energy_history=tuple(energies),
        selection_history=tuple(map(tuple, kl[selections].tolist())),
    )


def _generate_models(blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], config: FsmmrConfig) -> Iterator[list[_Fit]]:
    """``generate_model`` of each color row of each block's sample set, bit
    for bit, as `_Fit` records, with all fits in lockstep: each iteration is
    one stacked gemv, one argmax and one update for every fit still running,
    and a fit that stops leaves the arrays.  A set is the samples' (2, M, n)
    ``_cosine_tables``, their (n,) spatial weights and their (3, n) float
    colors, one row per channel, with n >= 1 equal over the sets, so every
    row of a block is fitted on the block's one ``_fit_basis``.  The fits
    run in this call; the iterator builds each block's records as the
    caller reads them.

    A stacked gemv rounds each slice as ``phi @ x`` does, and so does a
    stacked (1, n) @ (n, 1) product as ``w @ x``; an element-wise step does
    not depend on its batch.  So the fits need not share a process, a
    group or an order to give the same models.
    """
    width, n = blocks[0][2].shape
    kl, wf = config.frequencies
    phi, denominators = map(np.stack, zip(*(_fit_basis(cosines, weights, config) for cosines, weights, _ in blocks)))  # (B, C, n), (B, C)
    fits = len(blocks) * width
    live, owner = np.arange(fits), np.arange(fits) // width  # the running fits and the block of each
    values = np.concatenate([colors for _, _, colors in blocks])
    w, denominators = np.array([weights for _, weights, _ in blocks])[owner], denominators[owner]
    model, residual = np.zeros_like(values), values.copy()
    basis = phi[:, None]  # (B, 1, C, n): each block's basis, broadcast over its channels, until a fit stops
    coefficients = np.zeros((fits, len(kl)))  # in candidate order; summed in selection order
    final = np.matmul(w[:, None], (residual * residual)[:, :, None])[:, 0, 0]
    history = []  # per iteration: the fits that took a step, their selections and their energies
    running = np.ones(fits, dtype=bool)
    for _ in range(config.max_iterations):
        coeff = np.matmul(basis, (w * residual).reshape(len(basis), -1, n, 1)).reshape(len(live), -1) / denominators
        decrease = coeff * coeff * denominators
        best = (decrease * wf).argmax(axis=1)  # first max wins: candidates are tie-break ordered
        running &= decrease[np.arange(len(live)), best] != 0.0
        if not running.all():  # past the energy threshold last iteration, or no decrease now
            live, owner, values, w, denominators, model, coeff, best = (
                array[running] for array in (live, owner, values, w, denominators, model, coeff, best))
            if not len(live):
                break
            basis = phi[owner][:, None]  # one basis per fit from here on
        step = config.gamma * coeff[np.arange(len(live)), best]
        coefficients[live, best] += step
        model = model + step[:, None] * phi[owner, best]
        residual = values - model
        energies = np.matmul(w[:, None], (residual * residual)[:, :, None])[:, 0, 0]
        final[live] = energies
        history.append((live, best, energies))
        running = ~(energies <= config.energy_threshold)
        if not running.any():
            break

    steps = len(history)
    selections, energy_history = np.full((fits, steps), -1), np.zeros((fits, steps))
    first = np.full((fits, len(kl)), steps)  # the first step that selected each candidate, or `steps`
    for t, (ids, best, energies) in reversed(list(enumerate(history))):
        selections[ids, t], energy_history[ids, t], first[ids, best] = best, energies, t
    runs, terms = (selections >= 0).sum(axis=1), (first < steps).sum(axis=1)  # a fit steps in a prefix of the iterations
    order = np.argsort(first, axis=1, kind="stable")  # each fit's terms first, in first-selection order
    return ([_Fit(kl[order[f, :terms[f]]], coefficients[f, order[f, :terms[f]]], int(runs[f]), float(final[f]),
                  selections[f, :runs[f]], energy_history[f, :runs[f]])
             for f in range(b * width, (b + 1) * width)] for b in range(len(blocks)))


def _query_table(queries: np.ndarray, size: int) -> np.ndarray:
    """The (2, M, k) cosine table of an M x M window at the (k, 2)
    `queries`, as ``_cosine_tables`` builds it; it reads no model, so the
    models of R, G and B at the same queries share one."""
    # tolerate normalization round-off marginally outside the window
    return _cosine_tables(np.clip(queries, 0.0, size - 1), size)


def evaluate_model(model: SparseModel, queries: np.ndarray, *, _table=None) -> np.ndarray:
    """The model's values at the (k, 2) `queries`.  Within the package,
    `_table` is ``_query_table`` of the same queries for the model's size,
    shared by the models of R, G and B."""
    model, queries = as_instance(model, "model", SparseModel), as_rows(queries, "queries", 2)
    u, v, c = np.array(model.terms, dtype=float).reshape(-1, 3).T
    return _term_sum(u.astype(int), v.astype(int), c, _query_table(queries, model.size) if _table is None else _table)


def _term_sum(u: np.ndarray, v: np.ndarray, coefficients: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The sum of the terms c * cos_x[u] * cos_y[v] of a model on a
    ``_query_table``, adding them one by one in term order from +0.0: a
    cumulative sum over a leading zero row (``.sum(axis=0)`` adds from the
    first term, and pairwise down a column of one query)."""
    cos_x, cos_y = table
    terms = (coefficients[:, None] * cos_x[u]) * cos_y[v]
    return np.cumsum(np.concatenate([np.zeros((1, cos_x.shape[1])), terms]), axis=0)[-1]


def normalize_to_window(coords: np.ndarray, size: int) -> np.ndarray:
    """Affinely map flattened (n, 2) coordinates onto [0, M-1]^2, each axis
    on its own; a degenerate axis (all coordinates equal) maps to the window
    center.  InvalidInput when an axis's span or its inverse overflows."""
    raw, size = as_rows(coords, "coords", 2), _window_size(size)
    if len(raw) == 0:
        raise EmptySamples("cannot normalize zero coordinates")
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # np.where drops a degenerate axis; the check below catches overflow
        window = np.where(hi > lo, (raw - lo) * ((size - 1) / (hi - lo)), (size - 1) / 2)
    if not np.isfinite(window).all():
        raise InvalidInput("the coordinates span too little or too much of float64 to map onto the window")
    return window


class _Window:
    """A flattened block's (N, 2) points in the model window, for all its
    role splits: a split maps all the block's points together, so a point's
    window coordinates, spatial weight and cosine columns, unclipped for a
    sample and clipped for a query, do not depend on its role."""

    def __init__(self, flat: np.ndarray, config: FsmmrConfig):
        self.coords = normalize_to_window(flat, config.model_size)
        self.weights = np.array([spatial_weight(x, y, config.model_size, config.rho) for x, y in self.coords.tolist()])
        config.frequencies  # a window too large to hold its candidates raises MemoryError before any table
        cosines, clipped = _cosine_tables(self.coords, config.model_size), np.clip(self.coords, 0.0, config.model_size - 1)
        moved = np.flatnonzero((clipped != self.coords).any(axis=1))  # ``_query_table``'s clip moves only round-off past an edge
        self.tables = cosines, cosines.copy()
        self.tables[1][:, :, moved] = _cosine_tables(clipped[moved], config.model_size)

    def split(self, colors: np.ndarray, is_original: np.ndarray) -> tuple[tuple, np.ndarray]:
        """The ``_generate_models`` set and the queries' ``_query_table`` of the
        split whose originals `is_original` masks, with the originals' (n, 3) `colors`."""
        cosines, clipped = self.tables
        return (cosines[:, :, is_original], self.weights[is_original], np.asarray(colors, dtype=float).T), clipped[:, :, ~is_original]


def upsample_block(
    positions: np.ndarray, colors: np.ndarray, queries: np.ndarray, config: FsmmrConfig = FsmmrConfig(),
) -> np.ndarray:
    """FSMMR on one flattened block, as (k, 3) uint8 colors at the (k, 2)
    `queries`, the arrays read by ``as_kernel_rows``.

    The originals' (n, 2) `positions` and the queries are normalised to the
    model window together.  Each channel of `colors` is fitted on the one
    basis of the block's sample set and evaluated at the queries on one
    query table.  Colors so far outside 8 bits that the fit or its
    evaluation overflows float64 (1e300, say) raise InvalidInput.
    """
    as_instance(config, "config", FsmmrConfig)
    positions, colors, queries = as_kernel_rows(positions, colors, queries, width=2)
    window, is_original = _Window(np.concatenate([positions, queries]), config), np.arange(len(positions) + len(queries)) < len(positions)
    (cosines, weights, channels), table = window.split(colors, is_original)
    basis, o_coords, r_coords = _fit_basis(cosines, weights, config), window.coords[is_original], window.coords[~is_original]
    try:
        with np.errstate(over="raise", invalid="raise"):
            models = [generate_model(ScatteredSamples(o_coords, values, weights), config, _basis=basis) for values in channels]
            return round_color_channel(np.column_stack([evaluate_model(model, r_coords, _table=table) for model in models]))
    except FloatingPointError:
        raise InvalidInput("the colors lie too far outside 8 bits to fit in float64") from None


def _fit_colors(fits: Sequence[_Fit], table: np.ndarray) -> np.ndarray:
    """A block's R, G and B `fits` on its queries' ``_query_table``, as
    (k, 3) uint8 colors: ``evaluate_model`` of their models, bit for bit."""
    return round_color_channel(np.column_stack([_term_sum(*fit.frequencies.T, fit.coefficients, table) for fit in fits]))


def _upsample_share(problems: Sequence[tuple], config: FsmmrConfig) -> list[tuple[np.ndarray | CloudColorError, float]]:
    """``upsample_block(*problem[:3], config)`` for each problem of a
    process's share of FSMMR blocks, or the CloudColorError it raises, and
    the seconds spent on it.  A problem is a block's (n >= 1, 2) float64
    originals, their (n, 3) uint8 colors and its (k >= 1, 2) float64
    queries, as ``pipeline._block_colors`` defers them, then a cached call
    that gives the block's `_Window` or its error, and the split's mask of
    originals among the block's points.

    The problems with equal n form a group, visited once.  A group of one
    runs ``upsample_block``.  In a larger group, a problem whose window is
    an error (a span that ``normalize_to_window`` rejects, say) takes it,
    and the others fit together in ``_generate_models`` on rows of their
    windows, bit for bit as ``upsample_block`` would; the group's seconds
    are split evenly over its problems.
    """
    groups: dict[int, list[int]] = defaultdict(list)
    for index, (positions, *_) in enumerate(problems):
        groups[len(positions)].append(index)
    done, seconds = {}, {}  # by problem index: the colors or error of each, and its seconds
    for indices in groups.values():
        started = time.perf_counter()
        samples = {}  # by problem index: the sample set of each problem of the group left to fit
        for index in indices:
            positions, colors, queries, window, is_original = problems[index]
            if len(indices) == 1:
                # a lone block takes the one-block path: a lockstep of its three channels measured no faster,
                # and perfbench's span test needs generate_model and upsample_block on the pipeline's path
                try:
                    done[index] = upsample_block(positions, colors, queries, config)
                except CloudColorError as error:
                    done[index] = error
            elif isinstance(window := window(), CloudColorError):
                done[index] = window
            else:
                samples[index] = window.split(colors, is_original)
        if samples:
            blocks, tables = zip(*samples.values())
            done.update(zip(samples, map(_fit_colors, _generate_models(blocks, config), tables)))
        seconds.update(dict.fromkeys(indices, (time.perf_counter() - started) / len(indices)))
    return [(done[index], seconds[index]) for index in range(len(problems))]
