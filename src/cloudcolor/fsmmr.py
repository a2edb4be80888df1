"""Frequency-selective resampling of scattered 2D samples.

A sparse model over continuous DCT-II basis functions is grown greedily:
each iteration picks the frequency pair whose energy-optimal coefficient
update, biased by a low-frequency weighting, removes the most weighted
residual energy.  The model is then evaluated at arbitrary query
coordinates inside the same window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .core import as_number, nearest_original_color, round_color_channel, shown  # noqa: F401  perfbench's tracer lists fsmmr.nearest_original_color
from .errors import EmptySamples, InvalidConfig


@dataclass(frozen=True)
class FsmmrConfig:
    model_size: int = 16    # basis period length M of the M x M window
    sigma: float = 0.8      # frequency-weight decay
    rho: float = 0.7        # spatial-weight decay
    gamma: float = 0.5      # damping of each coefficient update
    max_iterations: int = 100
    energy_threshold: float = 0.0

    def __post_init__(self):
        kinds = {"model_size": int, "sigma": float, "rho": float, "gamma": float, "max_iterations": int, "energy_threshold": float}
        for name, kind in kinds.items():
            object.__setattr__(self, name, as_number(getattr(self, name), name, kind))
        if self.model_size < 1:
            raise InvalidConfig("model_size must be >= 1")
        if not (0.0 < self.sigma < 1.0):
            raise InvalidConfig("sigma must lie in (0, 1)")
        if not (0.0 < self.rho < 1.0):
            raise InvalidConfig("rho must lie in (0, 1)")
        # a window corner gets the least spatial weight; past 2^64 it underflows for every rho
        if self.model_size >= 2 ** 64 or spatial_weight(0, 0, self.model_size, self.rho) == 0:
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
        self.coords = np.asarray(self.coords, dtype=float).reshape(-1, 2)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if not (len(self.coords) == len(self.values) == len(self.weights)):
            raise InvalidConfig("coords, values and weights must have equal lengths")
        if not all(np.isfinite(a).all() for a in (self.coords, self.values, self.weights)):
            raise InvalidConfig("sample coordinates, values and weights must be finite")
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
        # evaluate_model reads row u of the x table and row v of the y table
        if not all(0 <= u < self.size and 0 <= v < self.size for u, v, _ in self.terms):
            raise InvalidConfig("model term frequencies must lie inside the window")


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
    same config, built here by default."""
    if len(samples.values) == 0:
        raise EmptySamples("cannot generate a model from zero samples")

    kl, wf = config.frequencies
    phi, denominators = fit_basis(samples, config) if basis is None else basis
    w = samples.weights

    coefficients: dict[int, float] = {}  # candidate index -> coefficient, in first-selection order
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
        coefficients[best] = coefficients.get(best, 0.0) + step
        model_at_samples = model_at_samples + step * phi[best]
        selections.append(best)
        residual = samples.values - model_at_samples
        energies.append(float(w @ (residual * residual)))
        if energies[-1] <= config.energy_threshold:
            break

    terms = zip(kl[list(coefficients)].tolist(), coefficients.values())
    return SparseModel(
        terms=tuple((k, l, c) for (k, l), c in terms),
        size=config.model_size,
        iterations_run=len(selections),
        final_energy=float(w @ (residual * residual)),
        energy_history=tuple(energies),
        selection_history=tuple(map(tuple, kl[selections].tolist())),
    )


def query_table(queries: np.ndarray, size: int) -> np.ndarray:
    """The (2, M, k) cosine table of an M x M window at the (k, 2)
    `queries`, as ``_cosine_tables`` builds it; it reads no model, so the
    models of R, G and B at the same queries share one."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    # tolerate normalization round-off marginally outside the window
    return _cosine_tables(np.clip(queries, 0.0, size - 1), size)


def evaluate_model(model: SparseModel, queries: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """The model's values at the (k, 2) `queries`, on `table`:
    ``query_table`` of the same queries for the model's size, built here by
    default."""
    cos_x, cos_y = query_table(queries, model.size) if table is None else table
    out = np.zeros(cos_x.shape[1])
    for u, v, c in model.terms:
        out += c * cos_x[u] * cos_y[v]
    return out


def normalize_to_window(coords: np.ndarray, size: int) -> np.ndarray:
    """Affinely map flattened (n, 2) coordinates onto [0, M-1]^2, each axis
    on its own.

    A degenerate axis (all coordinates equal) maps to the window center on
    that axis.
    """
    raw = np.asarray(coords, dtype=float).reshape(-1, 2)
    if len(raw) == 0:
        raise EmptySamples("cannot normalize zero coordinates")
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate axis divides by 0; np.where drops it
        return np.where(hi > lo, (raw - lo) * ((size - 1) / (hi - lo)), (size - 1) / 2)


def upsample_block(
    positions: np.ndarray, colors: np.ndarray, queries: np.ndarray, config: FsmmrConfig = FsmmrConfig(),
) -> np.ndarray:
    """FSMMR on one flattened block, as (k, 3) uint8 colors at the k 2D
    `queries`.

    The originals' 2D `positions` and the queries are normalised to the
    model window together.  One model per channel is fitted to the
    originals' `colors`, all three on one basis, and evaluated at the
    queries on one query table.
    """
    coords = normalize_to_window(np.concatenate([positions, queries]), config.model_size)
    o_coords, r_coords = coords[:len(positions)], coords[len(positions):]
    weights = np.array([spatial_weight(x, y, config.model_size, config.rho) for x, y in o_coords])
    o_colors = np.asarray(colors, dtype=float)

    channels = [ScatteredSamples(coords=o_coords, values=o_colors[:, ch], weights=weights) for ch in range(3)]
    basis, table = fit_basis(channels[0], config), query_table(r_coords, config.model_size)
    return round_color_channel(np.column_stack([
        evaluate_model(generate_model(samples, config, basis), r_coords, table) for samples in channels
    ]))
