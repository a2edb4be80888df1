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

from .core import as_kernel_rows, as_number, as_rows, as_values, nearest_original_color, round_color_channel, shown  # noqa: F401  perfbench's tracer lists fsmmr.nearest_original_color
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


def _window_size(size, name: str = "size") -> int:
    """`size`, the setting `name`, the side M of an M x M model window, as
    an int in [1, _MAX_WINDOW_SIZE]; InvalidConfig naming it otherwise."""
    size = as_number(size, name, int)
    if not 1 <= size <= _MAX_WINDOW_SIZE:
        raise InvalidConfig(f"{name} must lie in [1, {_MAX_WINDOW_SIZE}], got {shown(size)}")
    return size


def _as_built(value, name: str, *shapes: tuple) -> list[np.ndarray]:
    """The parts of `value`, the argument `name`, as float64 arrays of
    `shapes` in turn, the form its function would build itself; a value of
    any other form raises InvalidConfig naming it."""
    try:
        parts = [np.asarray(part, dtype=float) for part in value]
    except (TypeError, ValueError, OverflowError):
        parts = []
    if [part.shape for part in parts] != list(shapes):
        raise InvalidConfig(f"{name} must be float arrays of shapes {' and '.join(map(str, shapes))}")
    return parts


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


def fit_basis(samples: ScatteredSamples, config: FsmmrConfig) -> tuple[np.ndarray, np.ndarray]:
    """The basis of a fit to `samples` under `config`: the (C, n) candidate
    rows `phi` at the samples and their (C,) denominators phi^2 . w.  It
    reads only the samples' coordinates and weights, so the fits of R, G and
    B at the same points share one."""
    kl, _ = config.frequencies
    cos_x, cos_y = _cosine_tables(samples.coords, config.model_size)
    phi = cos_x[kl[:, 0]] * cos_y[kl[:, 1]]  # (C, n), one row per candidate
    denominators = (phi * phi) @ samples.weights
    vanishing = denominators == 0
    # zeroed with denominator 1, a vanishing row scores 0 and never beats the DC row (first,
    # never vanishing); kept, not dropped: a gemv over fewer rows rounds the others differently
    phi[vanishing] = 0.0
    denominators[vanishing] = 1.0
    phi.flags.writeable = denominators.flags.writeable = False  # shared by the fits of every channel
    return phi, denominators


def generate_model(
    samples: ScatteredSamples, config: FsmmrConfig, basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> SparseModel:
    """The greedy sparse model of `samples` under `config`, on `basis`:
    ``fit_basis`` of samples at the same coordinates and weights under the
    same config, built here by default; InvalidConfig for a basis of other
    shapes."""
    if len(samples.values) == 0:
        raise EmptySamples("cannot generate a model from zero samples")

    kl, wf = config.frequencies
    phi, denominators = (fit_basis(samples, config) if basis is None
                         else _as_built(basis, "basis", (len(kl), len(samples.values)), (len(kl),)))
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

    return _sparse_model(config, selections, coefficients, energies, w @ (residual * residual))


def _generate_models(blocks: Sequence[Sequence[ScatteredSamples]], config: FsmmrConfig) -> Iterator[list[SparseModel]]:
    """``generate_model(samples, config)`` for every samples of `blocks`, bit
    for bit, with all fits in lockstep: each iteration is one stacked gemv,
    one argmax and one update for every fit still running, and a fit that
    stops leaves the arrays.  The blocks are ``_block_samples``' of equal
    n >= 1, so the R, G and B samples of a block share their coordinates
    and weights, and so one ``fit_basis``.  The fits run in this call; the
    iterator builds each block's models as the caller reads them, so a
    caller that uses them block by block never holds the whole group's.

    A stacked gemv rounds each slice as ``phi @ x`` does, and so does a
    stacked (1, n) @ (n, 1) product as ``w @ x``; an element-wise step does
    not depend on its batch.  So the fits need not share a process, a
    group or an order to give the same models.
    """
    width, n = len(blocks[0]), len(blocks[0][0].values)
    kl, wf = config.frequencies
    phi, denominators = map(np.stack, zip(*(fit_basis(channels[0], config) for channels in blocks)))  # (B, C, n), (B, C)
    fits = len(blocks) * width
    live, owner = np.arange(fits), np.arange(fits) // width  # the running fits and the block of each
    values = np.array([samples.values for channels in blocks for samples in channels])
    w, denominators = np.array([channels[0].weights for channels in blocks])[owner], denominators[owner]
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

    selections, energy_history = np.full((fits, len(history)), -1), np.zeros((fits, len(history)))
    for t, (ids, best, energies) in enumerate(history):
        selections[ids, t], energy_history[ids, t] = best, energies
    runs = (selections >= 0).sum(axis=1)  # a fit steps in a prefix of the iterations
    return ([_sparse_model(config, selections[f, :runs[f]], coefficients[f], energy_history[f, :runs[f]], final[f])
             for f in range(b * width, (b + 1) * width)] for b in range(len(blocks)))


def _sparse_model(config: FsmmrConfig, selections, coefficients: np.ndarray, energies, final_energy) -> SparseModel:
    """The model of a fit that stepped on the candidates `selections` in
    turn: its terms in first-selection order with their summed
    `coefficients` (one per candidate), its energy after each step and its
    final energy."""
    kl, _ = config.frequencies
    _, first = np.unique(selections, return_index=True)
    terms = np.asarray(selections, dtype=int)[np.sort(first)]
    return SparseModel(
        terms=tuple(zip(*kl[terms].T.tolist(), coefficients[terms].tolist())),
        size=config.model_size,
        iterations_run=len(selections),
        final_energy=float(final_energy),
        energy_history=tuple(map(float, energies)),
        selection_history=tuple(map(tuple, kl[selections].tolist())),
    )


def query_table(queries: np.ndarray, size: int) -> np.ndarray:
    """The (2, M, k) cosine table of an M x M window at the (k, 2)
    `queries`, as ``_cosine_tables`` builds it; it reads no model, so the
    models of R, G and B at the same queries share one."""
    queries, size = as_rows(queries, "queries", 2), _window_size(size)
    # tolerate normalization round-off marginally outside the window
    return _cosine_tables(np.clip(queries, 0.0, size - 1), size)


def evaluate_model(model: SparseModel, queries: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """The model's values at the (k, 2) `queries`, on `table`:
    ``query_table`` of the same queries for the model's size, built here by
    default; InvalidConfig for a table of another shape."""
    queries = as_rows(queries, "queries", 2)
    shape = model.size, len(queries)
    cos_x, cos_y = query_table(queries, model.size) if table is None else _as_built(table, "table", shape, shape)
    out = np.zeros(cos_x.shape[1])
    for u, v, c in model.terms:
        out += c * cos_x[u] * cos_y[v]
    return out


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


def _block_samples(positions, colors, queries, config: FsmmrConfig) -> tuple[list[ScatteredSamples], np.ndarray]:
    """One flattened block in the model window: the R, G and B samples of
    its originals, which share their coordinates and weights, and the
    queries' coordinates.  The arrays are read by ``as_kernel_rows``, and
    the originals and the queries are normalised to the window together."""
    positions, o_colors, queries = as_kernel_rows(positions, colors, queries, width=2)
    coords = normalize_to_window(np.concatenate([positions, queries]), config.model_size)
    o_coords, r_coords = coords[:len(positions)], coords[len(positions):]
    weights = np.array([spatial_weight(x, y, config.model_size, config.rho) for x, y in o_coords])
    return [ScatteredSamples(coords=o_coords, values=o_colors[:, ch], weights=weights) for ch in range(3)], r_coords


def upsample_block(
    positions: np.ndarray, colors: np.ndarray, queries: np.ndarray, config: FsmmrConfig = FsmmrConfig(),
) -> np.ndarray:
    """FSMMR on one flattened block, as (k, 3) uint8 colors at the (k, 2)
    `queries`, the arrays read by ``as_kernel_rows``.

    The originals' (n, 2) `positions` and the queries are normalised to the
    model window together.  One model per channel is fitted to the
    originals' `colors`, all three on one basis, and evaluated at the
    queries on one query table.  Colors so far outside 8 bits that the fit
    or its evaluation overflows float64 (1e300, say) raise InvalidInput.
    """
    channels, r_coords = _block_samples(positions, colors, queries, config)
    basis = fit_basis(channels[0], config)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _colors_at([generate_model(samples, config, basis) for samples in channels], r_coords)
    except FloatingPointError:
        raise InvalidInput("the colors lie too far outside 8 bits to fit in float64") from None


def _colors_at(models: Sequence[SparseModel], r_coords: np.ndarray) -> np.ndarray:
    """A block's R, G and B `models` at its queries' window coordinates
    `r_coords`, evaluated on one query table, as (k, 3) uint8 colors."""
    table = query_table(r_coords, models[0].size)
    return round_color_channel(np.column_stack([evaluate_model(model, r_coords, table) for model in models]))


def _upsample_share(problems: Sequence[tuple], config: FsmmrConfig) -> list[tuple[np.ndarray | CloudColorError, float]]:
    """``upsample_block(*problem, config)`` for each problem of a process's
    share of FSMMR blocks, or the CloudColorError it raises, and the seconds
    spent on it.  A problem is a block's (n >= 1, 2) float64 originals,
    their (n, 3) uint8 colors and its (k >= 1, 2) float64 queries, as
    ``pipeline._block_colors`` defers them.

    The problems with equal n form a group, whose fits run together in
    ``_generate_models``, bit for bit as ``upsample_block`` would run them;
    the group's seconds are split evenly over its problems.  A group that
    raises (a span that ``normalize_to_window`` rejects, say) reruns each
    of its problems through ``upsample_block``, so every error stays with
    its own problem.
    """
    groups: dict[int, list[int]] = defaultdict(list)
    for index, (positions, _, _) in enumerate(problems):
        groups[len(positions)].append(index)
    done: list = [None] * len(problems)
    for indices in groups.values():
        started = time.perf_counter()
        group, fitted = [problems[i] for i in indices], []
        # a lone block takes the one-block path below: a lockstep of its three channels measured no faster,
        # and perfbench's span test needs generate_model and upsample_block on the pipeline's path
        if len(group) > 1:
            try:
                blocks, queries = zip(*(_block_samples(*problem, config) for problem in group))
                fitted = [_colors_at(models, r_coords) for models, r_coords in zip(_generate_models(blocks, config), queries)]
            except CloudColorError:
                pass
        for problem in group[len(fitted):]:  # a lone block, or every block of a group that raised
            try:
                fitted.append(upsample_block(*problem, config))
            except CloudColorError as error:
                fitted.append(error)
        seconds = (time.perf_counter() - started) / len(group)
        for index, colors in zip(indices, fitted):
            done[index] = colors, seconds
    return done
