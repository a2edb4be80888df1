"""Experiment protocol: seeded random downsampling, reconstruction-only
color PSNR, multi-run density sweeps, CSV reports, and synthetic test
clouds.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Tuple

import numpy as np

from .baselines import InterpolatorKind
from .core import ColorPointCloud, as_bool, as_number, as_values, round_color_channel, shown
from .errors import CloudColorError, InvalidConfig, InvalidInput
from .pipeline import UpsampleConfig, upsample_clouds

PEAK = 255.0

CSV_HEADER = "method,density,run,seed,psnr_r,psnr_g,psnr_b,color_psnr,uncolored_count,wall_time_ms,flags"


@dataclass(frozen=True)
class ExperimentSpec:
    methods: Tuple[InterpolatorKind, ...] = tuple(InterpolatorKind)
    densities: Tuple[float, ...] = (0.1, 0.5, 0.8)
    runs: int = 3
    base_seed: int = 0
    upsample: UpsampleConfig = UpsampleConfig()
    measure_time: bool = False  # real timings break byte-identical reports

    def __post_init__(self):
        for name in ("methods", "densities"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise InvalidConfig(f"{name} must be a tuple or a list, got {shown(getattr(self, name))}")
        if not isinstance(self.upsample, UpsampleConfig):
            raise InvalidConfig(f"upsample must be an UpsampleConfig, got {shown(self.upsample)}")
        if not (self.methods and self.densities):
            raise InvalidConfig("the method and density lists must not be empty")
        if not all(isinstance(method, InterpolatorKind) for method in self.methods):
            raise InvalidConfig("each method must be an InterpolatorKind")
        if len(set(self.methods)) < len(self.methods):
            raise InvalidConfig("each method may be listed only once")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "densities", tuple(as_number(d, "density") for d in self.densities))  # a numpy float's repr derives other seeds
        for name in ("runs", "base_seed"):
            object.__setattr__(self, name, as_number(getattr(self, name), name, int))
        object.__setattr__(self, "measure_time", as_bool(self.measure_time, "measure_time"))
        if len(set(map(_fmt_density, self.densities))) < len(self.densities):
            raise InvalidConfig("each density may be listed only once, and no two may share a report label")
        if any(not (0.0 < d <= 1.0) for d in self.densities):
            raise InvalidConfig("densities must lie in (0, 1]")
        if self.runs < 1:
            raise InvalidConfig("runs must be >= 1")
        if not 0 <= self.base_seed < 2 ** 64:  # random_downsample's range; derive_seed would fold any other seed into it
            raise InvalidConfig(f"base_seed must lie in [0, 2**64), got {shown(self.base_seed)}")


@dataclass(frozen=True)
class ExperimentRecord:
    method: str
    density: float
    run: int
    seed: int
    psnr_r: float = math.nan
    psnr_g: float = math.nan
    psnr_b: float = math.nan
    color_psnr: float = math.nan
    uncolored_count: int = 0
    wall_time_ms: int = 0
    flags: str = ""


@dataclass
class ExperimentReport:
    records: list[ExperimentRecord] = field(default_factory=list)
    aggregates: dict[Tuple[str, float], float] = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.method},{_fmt_density(r.density)},{r.run},{r.seed},"
                f"{_fmt_db(r.psnr_r)},{_fmt_db(r.psnr_g)},{_fmt_db(r.psnr_b)},"
                f"{_fmt_db(r.color_psnr)},{r.uncolored_count},{r.wall_time_ms},{r.flags}"
            )
        return "\n".join(lines) + "\n"


def _fmt_density(d: float) -> str:
    return f"{d:g}"


def _fmt_db(v: float) -> str:
    if math.isnan(v):
        return ""
    if math.isinf(v):
        return "inf"
    return f"{v:.6f}"


def derive_seed(base_seed: int, density: float, run: int) -> int:
    """Stable cross-platform per-record seed."""
    digest = hashlib.sha256(f"{density!r}|{run}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & 0xFFFFFFFFFFFFFFFF


def random_downsample(cloud: ColorPointCloud, density: float, seed: int) -> ColorPointCloud:
    """Keep round(density*N) points, halves rounded up, as Original; the rest
    lose their color but keep their coordinates as Reconstruct points.
    The seed is an integer in [0, 2**64)."""
    density, seed = as_number(density, "density"), as_number(seed, "seed", int)
    if not (0.0 < density <= 1.0):
        raise InvalidConfig(f"density must lie in (0, 1], got {density}")
    if not 0 <= seed < 2 ** 64:
        raise InvalidConfig(f"seed must lie in [0, 2**64), got {shown(seed)}")
    if not cloud.colored.all():
        raise InvalidInput("downsampling requires a fully colored cloud")
    n = len(cloud)
    n_keep = math.floor(density * n + 0.5)
    rng = np.random.default_rng(seed)
    keep = np.zeros(n, dtype=bool)
    keep[rng.permutation(n)[:n_keep]] = True
    return ColorPointCloud(cloud.positions, cloud.colors, original=keep, colored=keep)


def psnr_channel(reference, reconstructed) -> float:
    """The PSNR of (n,) `reconstructed` values against `reference` ones, both read by `core.as_values`."""
    reference, reconstructed = as_values(reference, "reference"), as_values(reconstructed, "reconstructed")
    if len(reference) != len(reconstructed):
        raise InvalidInput("psnr requires equally long sequences")
    if len(reference) == 0:
        raise InvalidInput("psnr over an empty sequence is undefined")
    mse = float(((reference - reconstructed) ** 2).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


@dataclass(frozen=True)
class PsnrResult:
    psnr_r: float
    psnr_g: float
    psnr_b: float
    color_psnr: float
    uncolored_count: int


def reconstruction_color_psnr(original: ColorPointCloud, upsampled: ColorPointCloud) -> PsnrResult:
    """PSNR solely over the points that were reconstructed; per channel,
    averaged.  Points the method left uncolored are excluded and counted."""
    if len(original) != len(upsampled):
        raise InvalidInput("clouds must have identical point counts and order")
    reconstructed = ~upsampled.original
    if not reconstructed.any():
        raise InvalidInput("no reconstructed points to score")
    scored = reconstructed & upsampled.colored
    uncolored = int(reconstructed.sum() - scored.sum())
    if not scored.any():
        return PsnrResult(math.nan, math.nan, math.nan, math.nan, uncolored)
    if not original.colored[scored].all():
        raise InvalidInput("the reference cloud lacks a color to score against")

    per_channel = [psnr_channel(original.colors[scored, ch], upsampled.colors[scored, ch]) for ch in range(3)]
    return PsnrResult(*per_channel, sum(per_channel) / 3.0, uncolored)


def run_experiment(cloud: ColorPointCloud, spec: ExperimentSpec) -> ExperimentReport:
    """Sweep densities x runs x methods; per (density, run) every method
    receives the same downsampled cloud.  Downsampling changes only the
    roles, so one `pipeline.upsample_clouds` call colors every split by
    every method: it forks once for the blocks, on every usable core, and
    flattens each block once.  The rows are scored in (density, run,
    method) order, so the report is the same for any number of processes.
    With `spec.measure_time`, a row's `wall_time_ms` is the time spent
    coloring it, summed over its blocks wherever they ran."""
    if not cloud.colored.all():
        raise InvalidInput("the experiment needs a fully colored reference cloud")
    jobs = [(density, run, derive_seed(spec.base_seed, density, run))
            for density in sorted(spec.densities) for run in range(1, spec.runs + 1)]
    splits = [random_downsample(cloud, density, seed) for density, _, seed in jobs]
    report = ExperimentReport()
    for (density, run, seed), split, row in zip(jobs, splits, upsample_clouds(splits, spec.methods, spec.upsample)):
        for method, (upsampled, seconds) in zip(spec.methods, row):
            record = ExperimentRecord(method=method.value, density=density, run=run, seed=seed)
            if split.original.all():  # nothing to reconstruct
                report.records.append(replace(record, flags="skipped"))
            else:
                report.records.append(_scored(record, cloud, upsampled, seconds if spec.measure_time else 0.0))
    for method, density in product(spec.methods, sorted(spec.densities)):
        values = [r.color_psnr for r in report.records if (r.method, r.density, r.flags) == (method.value, density, "")
                  and math.isfinite(r.color_psnr)]
        if values:
            report.aggregates[(method.value, density)] = sum(values) / len(values)
    return report


def _scored(record: ExperimentRecord, reference: ColorPointCloud, upsampled, seconds: float) -> ExperimentRecord:
    """`record` scored on the cloud that `upsample_clouds` returned, or
    flagged with the error it returned instead."""
    if isinstance(upsampled, CloudColorError):
        return replace(record, flags=f"error:{type(upsampled).__name__}")
    result = reconstruction_color_psnr(reference, upsampled)
    flags = "inf" if any(math.isinf(v) for v in (result.psnr_r, result.psnr_g, result.psnr_b)) else ""
    return replace(record, **vars(result), wall_time_ms=int(seconds * 1000), flags=flags)


# --- synthetic clouds -------------------------------------------------------

def _cosine_colors(positions: np.ndarray, extent: float) -> np.ndarray:
    # smooth low-frequency field; one half-period across the extent.
    # math.cos per point: numpy's vectorised cos may round differently
    cosines = [(math.cos(math.pi * x / extent), math.cos(math.pi * y / extent + 1.0), math.cos(math.pi * z / extent + 2.0))
               for x, y, z in positions.tolist()]
    return round_color_channel(127.5 + 100.0 * np.array(cosines).reshape(-1, 3))


def sphere_cloud(n_points: int = 1500, radius: float = 8.0, seed: int = 0) -> ColorPointCloud:
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_points, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    positions = directions * radius
    return ColorPointCloud(positions, _cosine_colors(positions, radius))


def plane_cloud(
    n_points: int = 800, size: float = 12.0, seed: int = 0, sharp_edge: bool = False
) -> ColorPointCloud:
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, size, size=(n_points, 2))
    positions = np.column_stack([xy, np.zeros(n_points)])
    colors = _cosine_colors(positions, size)
    if sharp_edge:
        red_blue_right = np.ix_(xy[:, 0] > size / 2, [0, 2])
        colors[red_blue_right] = 255 - colors[red_blue_right]
    return ColorPointCloud(positions, colors)


def dihedral_cloud(n_points: int = 800, size: float = 12.0, seed: int = 0) -> ColorPointCloud:
    """Two half-planes meeting at a right angle along the y axis."""
    rng = np.random.default_rng(seed)
    uv = rng.uniform(0.0, size, size=(n_points, 2))
    positions = np.column_stack([uv, np.zeros(n_points)])
    odd = np.arange(n_points) % 2 == 1
    positions[odd] = np.column_stack([np.zeros(odd.sum()), uv[odd, 1], uv[odd, 0]])
    return ColorPointCloud(positions, _cosine_colors(positions, size))
