"""Experiment protocol: seeded random downsampling, reconstruction-only
color PSNR, multi-run density sweeps, CSV reports, and synthetic test
clouds.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence, Tuple

import numpy as np

from .baselines import InterpolatorKind, load_delaunay
from .core import ColorPointCloud, as_bool, as_number, round_color_channel, shown
from .errors import CloudColorError, InvalidConfig, InvalidInput
from .parallel import map_on_cores
from .pipeline import BlockGeometry, UpsampleConfig, upsample_cloud

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


def psnr_channel(reference: Sequence[int], reconstructed: Sequence[int]) -> float:
    if len(reference) != len(reconstructed):
        raise InvalidInput("psnr requires equally long sequences")
    if len(reference) == 0:
        raise InvalidInput("psnr over an empty sequence is undefined")
    mse = float(((np.asarray(reference, dtype=float) - np.asarray(reconstructed, dtype=float)) ** 2).mean())
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
    roles, so every run shares one block partition and flattening.

    The (density, run) jobs run on every usable core through
    `parallel.map_on_cores`: this process takes jobs 0, W, 2W, … and forked
    workers the rest, and the rows come back in job order, so the report is
    the same for any W.  Each job's upsamples run in its own process: they
    split no blocks of their own."""
    if not cloud.colored.all():
        raise InvalidInput("the experiment needs a fully colored reference cloud")
    if InterpolatorKind.LIN2_DELAUNAY in spec.methods:
        load_delaunay()  # before any fork, so that every process shares one single-threaded scipy

    geometry = BlockGeometry(cloud, spec.upsample)  # lazy: its errors flag the rows that reach them
    jobs = [(density, run) for density in sorted(spec.densities) for run in range(1, spec.runs + 1)]
    report = ExperimentReport()
    for rows in map_on_cores(partial(_score_job, cloud, geometry, spec), jobs):
        report.records += rows
    for method in spec.methods:
        for density in sorted(spec.densities):
            values = [
                r.color_psnr for r in report.records
                if r.method == method.value and r.density == density
                and r.flags == "" and math.isfinite(r.color_psnr)
            ]
            if values:
                report.aggregates[(method.value, density)] = sum(values) / len(values)
    return report


def _score_job(
    cloud: ColorPointCloud, geometry: BlockGeometry, spec: ExperimentSpec, job: Tuple[float, int],
) -> list[ExperimentRecord]:
    """The records of one (density, run) job, one row per method."""
    density, run = job
    seed = derive_seed(spec.base_seed, density, run)
    downsampled = random_downsample(cloud, density, seed)
    if downsampled.original.all():  # nothing to reconstruct
        return [ExperimentRecord(method=method.value, density=density, run=run, seed=seed, flags="skipped")
                for method in spec.methods]
    return [_score_method(cloud, downsampled, geometry, method, density, run, seed, spec) for method in spec.methods]


def _score_method(
    reference: ColorPointCloud, downsampled: ColorPointCloud, geometry: BlockGeometry,
    method: InterpolatorKind, density: float, run: int, seed: int, spec: ExperimentSpec,
) -> ExperimentRecord:
    try:
        started = time.perf_counter()
        upsampled = upsample_cloud(downsampled, method, spec.upsample, geometry)
        elapsed_ms = int((time.perf_counter() - started) * 1000) if spec.measure_time else 0
        result = reconstruction_color_psnr(reference, upsampled)
    except CloudColorError as exc:
        return ExperimentRecord(
            method=method.value, density=density, run=run, seed=seed,
            flags=f"error:{type(exc).__name__}",
        )
    flags = ""
    if any(math.isinf(v) for v in (result.psnr_r, result.psnr_g, result.psnr_b)):
        flags = "inf"
    return ExperimentRecord(
        method=method.value, density=density, run=run, seed=seed,
        psnr_r=result.psnr_r, psnr_g=result.psnr_g, psnr_b=result.psnr_b,
        color_psnr=result.color_psnr, uncolored_count=result.uncolored_count,
        wall_time_ms=elapsed_ms, flags=flags,
    )


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
