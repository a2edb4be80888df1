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

from .core import nearest_original_color, round_color_channel  # noqa: F401  perfbench's tracer lists fsmmr.nearest_original_color
from .errors import EmptySamples, InvalidConfig


@dataclass(frozen=True)
class FsmmrConfig:
    model_width: int = 16   # basis period length M (x direction)
    model_height: int = 16  # basis period length N (y direction)
    sigma: float = 0.8      # frequency-weight decay
    rho: float = 0.7        # spatial-weight decay
    gamma: float = 0.5      # damping of each coefficient update
    max_iterations: int = 100
    energy_threshold: float = 0.0

    def __post_init__(self):
        if self.model_width < 1 or self.model_height < 1:
            raise InvalidConfig("model window sides must be >= 1")
        if not (0.0 < self.sigma < 1.0):
            raise InvalidConfig("sigma must lie in (0, 1)")
        if not (0.0 < self.rho < 1.0):
            raise InvalidConfig("rho must lie in (0, 1)")
        if not (0.0 < self.gamma <= 1.0):
            raise InvalidConfig("gamma must lie in (0, 1]")
        if self.max_iterations < 1:
            raise InvalidConfig("max_iterations must be >= 1")
        if not self.energy_threshold >= 0:  # NaN fails too
            raise InvalidConfig("energy_threshold must be non-negative")

    @property
    def window(self) -> Tuple[int, int]:
        return (self.model_width, self.model_height)

    @cached_property
    def frequencies(self) -> Tuple[np.ndarray, np.ndarray]:
        """The M*N candidate frequencies as (k, l) rows of an int array,
        ordered by the selection tie-break (k^2 + l^2, then k, then l), and
        their frequency weights; built once per config."""
        k, l = np.divmod(np.arange(self.model_width * self.model_height), self.model_height)
        kl = np.column_stack([k, l])[np.lexsort((l, k, k * k + l * l))]
        wf = np.array([frequency_weight(k, l, self.sigma) for k, l in kl.tolist()])
        kl.flags.writeable = wf.flags.writeable = False  # shared by every fit with this config
        return kl, wf


@dataclass
class ScatteredSamples:
    coords: np.ndarray   # (n, 2), inside [0, M-1] x [0, N-1]
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
    window: Tuple[int, int]
    iterations_run: int
    final_energy: float
    energy_history: Tuple[float, ...] = ()     # energy after each iteration
    selection_history: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        # evaluate_model reads row u of the x table and row v of the y table
        if not all(0 <= u < self.window[0] and 0 <= v < self.window[1] for u, v, _ in self.terms):
            raise InvalidConfig("model term frequencies must lie inside the window")


def spatial_weight(x: float, y: float, window: Tuple[int, int], rho: float) -> float:
    m, n = window
    return rho ** math.hypot(x - (m - 1) / 2, y - (n - 1) / 2)


def frequency_weight(k: int, l: int, sigma: float) -> float:
    return sigma ** math.hypot(k, l)


def _cosine_tables(coords: np.ndarray, window: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """The DCT-II axis cosines of an M x N window at (n, 2) coordinates:
    row k of the (M, n) x table is cos(pi k (2x + 1) / 2M), row l of the
    (N, n) y table is cos(pi l (2y + 1) / 2N).  Basis function (k, l) is the
    product of x row k and y row l."""
    return tuple(
        np.cos(np.pi * np.arange(side, dtype=float)[:, None] * (2 * coords[:, axis] + 1) / (2 * side))
        for axis, side in enumerate(window)
    )


def generate_model(samples: ScatteredSamples, config: FsmmrConfig) -> SparseModel:
    if len(samples.values) == 0:
        raise EmptySamples("cannot generate a model from zero samples")

    kl, wf = config.frequencies
    cos_x, cos_y = _cosine_tables(samples.coords, config.window)
    phi = cos_x[kl[:, 0]] * cos_y[kl[:, 1]]  # (C, n), one row per candidate
    w = samples.weights
    denominators = (phi * phi) @ w
    vanishing = denominators == 0
    # zeroed with denominator 1, a vanishing row scores 0 and never beats the DC row (first,
    # never vanishing); kept, not dropped: a gemv over fewer rows rounds the others differently
    phi[vanishing] = 0.0
    denominators[vanishing] = 1.0

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
        window=config.window,
        iterations_run=len(selections),
        final_energy=float(w @ (residual * residual)),
        energy_history=tuple(energies),
        selection_history=tuple(map(tuple, kl[selections].tolist())),
    )


def evaluate_model(model: SparseModel, queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    m, n = model.window
    # tolerate normalization round-off marginally outside the window
    cos_x, cos_y = _cosine_tables(np.clip(queries, 0.0, [m - 1, n - 1]), model.window)
    out = np.zeros(len(queries))
    for u, v, c in model.terms:
        out += c * cos_x[u] * cos_y[v]
    return out


def normalize_to_window(coords: np.ndarray, window: Tuple[int, int]) -> np.ndarray:
    """Affinely map flattened (n, 2) coordinates onto [0, M-1] x [0, N-1].

    A degenerate axis (all coordinates equal) maps to the window center on
    that axis.
    """
    raw = np.asarray(coords, dtype=float).reshape(-1, 2)
    if len(raw) == 0:
        raise EmptySamples("cannot normalize zero coordinates")
    out = np.empty_like(raw)
    for axis, side in enumerate(window):
        lo, hi = raw[:, axis].min(), raw[:, axis].max()
        if hi > lo:
            out[:, axis] = (raw[:, axis] - lo) * ((side - 1) / (hi - lo))
        else:
            out[:, axis] = (side - 1) / 2
    return out


def upsample_block(
    coords: np.ndarray,
    is_original: np.ndarray,
    colors: np.ndarray,
    config: FsmmrConfig = FsmmrConfig(),
) -> np.ndarray:
    """FSMMR on one flattened block: (k, 3) uint8 colors for the points that
    are not original, in block order.

    `coords` holds the 2D coordinates of all of the block's points, which
    are normalised to the model window together; `is_original` marks the
    originals and `colors` gives their colors in block order.  One model
    per channel is fitted to the originals and evaluated at the others.
    """
    coords = normalize_to_window(coords, config.window)
    is_original = np.asarray(is_original, dtype=bool)
    o_coords = coords[is_original]
    r_coords = coords[~is_original]
    weights = np.array([spatial_weight(x, y, config.window, config.rho) for x, y in o_coords])
    o_colors = np.asarray(colors, dtype=float)

    channels = []
    for ch in range(3):
        samples = ScatteredSamples(coords=o_coords, values=o_colors[:, ch], weights=weights)
        model = generate_model(samples, config)
        channels.append(evaluate_model(model, r_coords))

    return round_color_channel(np.column_stack(channels))
