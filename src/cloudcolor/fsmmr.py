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
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import nearest_original_color  # noqa: F401  (kept importable from fsmmr)
from .errors import DegenerateBasis, EmptySamples, InvalidConfig


@dataclass(frozen=True)
class FsmmrConfig:
    model_width: int = 16   # basis period length M (x direction)
    model_height: int = 16  # basis period length N (y direction)
    sigma: float = 0.8      # frequency-weight decay
    rho: float = 0.7        # spatial-weight decay
    gamma: float = 0.5      # damping of each coefficient update
    max_iterations: int = 100
    energy_threshold: float = 0.0
    candidates: Optional[Tuple[Tuple[int, int], ...]] = None  # default: full MxN grid

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

    def candidate_list(self) -> list[Tuple[int, int]]:
        """Candidate frequencies ordered by the selection tie-break."""
        if self.candidates is not None:
            pairs = list(self.candidates)
        else:
            pairs = [(k, l) for k in range(self.model_width) for l in range(self.model_height)]
        pairs.sort(key=lambda kl: (kl[0] * kl[0] + kl[1] * kl[1], kl[0], kl[1]))
        return pairs


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


def basis_value(k: int, l: int, x: float, y: float, window: Tuple[int, int]) -> float:
    m, n = window
    return math.cos(math.pi * k * (2 * x + 1) / (2 * m)) * math.cos(math.pi * l * (2 * y + 1) / (2 * n))


def spatial_weight(x: float, y: float, window: Tuple[int, int], rho: float) -> float:
    m, n = window
    return rho ** math.hypot(x - (m - 1) / 2, y - (n - 1) / 2)


def frequency_weight(k: int, l: int, sigma: float) -> float:
    return sigma ** math.hypot(k, l)


def _axis_cosine(freq, coord: np.ndarray, side: int) -> np.ndarray:
    """One axis of the DCT-II basis, elementwise: cos(pi k (2x + 1) / 2M)."""
    return np.cos(np.pi * freq * (2 * coord + 1) / (2 * side))


def _basis_matrix(candidates: Sequence[Tuple[int, int]], coords: np.ndarray, window: Tuple[int, int]) -> np.ndarray:
    m, n = window
    ks = np.array([k for k, _ in candidates], dtype=float)[:, None]
    ls = np.array([l for _, l in candidates], dtype=float)[:, None]
    x = coords[:, 0][None, :]
    y = coords[:, 1][None, :]
    return _axis_cosine(ks, x, m) * _axis_cosine(ls, y, n)


def generate_model(samples: ScatteredSamples, config: FsmmrConfig) -> SparseModel:
    if len(samples.values) == 0:
        raise EmptySamples("cannot generate a model from zero samples")

    candidates = config.candidate_list()
    phi = _basis_matrix(candidates, samples.coords, config.window)  # (C, n)
    w = samples.weights
    denominators = (phi * phi) @ w
    usable = denominators > 0
    if not usable.any():
        raise DegenerateBasis("every candidate basis function vanishes on the samples")
    wf = np.array([frequency_weight(k, l, config.sigma) for k, l in candidates])

    coefficients: dict[int, float] = {}
    order: list[int] = []
    selections: list[Tuple[int, int]] = []
    energies: list[float] = []
    model_at_samples = np.zeros_like(samples.values)
    safe_den = np.where(usable, denominators, 1.0)

    iterations = 0
    for _ in range(config.max_iterations):
        residual = samples.values - model_at_samples
        numerators = phi @ (w * residual)
        coeff = np.where(usable, numerators / safe_den, 0.0)
        decrease = coeff * coeff * denominators
        scores = np.where(usable, decrease * wf, -1.0)
        best = int(np.argmax(scores))  # first max wins: candidates are tie-break ordered
        if decrease[best] == 0.0:
            break
        step = config.gamma * coeff[best]
        if best not in coefficients:
            coefficients[best] = 0.0
            order.append(best)
        coefficients[best] += step
        model_at_samples = model_at_samples + step * phi[best]
        iterations += 1
        selections.append(candidates[best])
        residual = samples.values - model_at_samples
        energy = float(w @ (residual * residual))
        energies.append(energy)
        if energy <= config.energy_threshold:
            break

    final_residual = samples.values - model_at_samples
    final_energy = float(w @ (final_residual * final_residual))
    terms = tuple((candidates[i][0], candidates[i][1], coefficients[i]) for i in order)
    return SparseModel(
        terms=terms,
        window=config.window,
        iterations_run=iterations,
        final_energy=final_energy,
        energy_history=tuple(energies),
        selection_history=tuple(selections),
    )


def evaluate_model(model: SparseModel, queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    m, n = model.window
    # tolerate normalization round-off marginally outside the window
    x = np.clip(queries[:, 0], 0.0, m - 1)
    y = np.clip(queries[:, 1], 0.0, n - 1)
    out = np.zeros(len(queries))
    for u, v, c in model.terms:
        out += c * _axis_cosine(u, x, m) * _axis_cosine(v, y, n)
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


def round_half_away(v: float) -> int:
    """Nearest integer, ties away from zero."""
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def round_color_channel(values) -> np.ndarray:
    """`round_half_away`, clamped to [0, 255], elementwise as uint8: both
    round v >= 0 to floor(v + 0.5) and clamp every negative v to 0."""
    return np.clip(np.floor(np.asarray(values, dtype=float) + 0.5), 0, 255).astype(np.uint8)


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
