"""Experiment protocol: seeded random downsampling, reconstruction-only
color PSNR, multi-run density sweeps, CSV reports, and synthetic test
clouds.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .baselines import InterpolatorKind
from .core import ColorPointCloud, check_block_size
from .errors import CloudColorError, InvalidConfig, InvalidInput
from .fsmmr import FsmmrConfig, round_color_channel, round_half_away
from .pipeline import upsample_cloud
from .surface_transform import RootPolicy

PEAK = 255.0

CSV_HEADER = "method,density,run,seed,psnr_r,psnr_g,psnr_b,color_psnr,uncolored_count,wall_time_ms,flags"


@dataclass(frozen=True)
class ExperimentSpec:
    methods: Tuple[InterpolatorKind, ...] = tuple(InterpolatorKind)
    densities: Tuple[float, ...] = (0.1, 0.5, 0.8)
    runs: int = 3
    base_seed: int = 0
    fsmmr_config: FsmmrConfig = FsmmrConfig()
    block_size: float = 4.0
    root_policy: RootPolicy = RootPolicy.deterministic()
    idw_power: float = 2.0
    measure_time: bool = False  # real timings break byte-identical reports

    def __post_init__(self):
        if any(not (0.0 < d <= 1.0) for d in self.densities):
            raise InvalidConfig("densities must lie in (0, 1]")
        if self.runs < 1:
            raise InvalidConfig("runs must be >= 1")
        check_block_size(self.block_size)


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
    """Keep round(density*N) points as Original; the rest lose their color
    but keep their coordinates as Reconstruct points."""
    if not (0.0 < density <= 1.0):
        raise InvalidConfig(f"density must lie in (0, 1], got {density}")
    if not cloud.fully_colored():
        raise InvalidInput("downsampling requires a fully colored cloud")
    n = len(cloud)
    n_keep = min(n, round_half_away(density * n))
    rng = np.random.default_rng(seed)
    keep = np.zeros(n, dtype=bool)
    keep[rng.permutation(n)[:n_keep]] = True
    return ColorPointCloud(cloud.positions, cloud.colors, original=keep, colored=keep)


def psnr_channel(reference: Sequence[int], reconstructed: Sequence[int]) -> float:
    if len(reference) != len(reconstructed):
        raise InvalidInput("psnr requires equally long sequences")
    if len(reference) == 0:
        raise InvalidInput("psnr over an empty sequence is undefined")
    ref = np.asarray(reference, dtype=float)
    rec = np.asarray(reconstructed, dtype=float)
    mse = float(((ref - rec) ** 2).mean())
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

    ref_arr = original.colors[scored]
    rec_arr = upsampled.colors[scored]
    per_channel = [psnr_channel(ref_arr[:, ch], rec_arr[:, ch]) for ch in range(3)]
    color = sum(per_channel) / 3.0
    return PsnrResult(per_channel[0], per_channel[1], per_channel[2], color, uncolored)


def run_experiment(cloud: ColorPointCloud, spec: ExperimentSpec) -> ExperimentReport:
    """Sweep densities x runs x methods; per (density, run) every method
    receives the same downsampled cloud."""
    if not cloud.fully_colored():
        raise InvalidInput("the experiment needs a fully colored reference cloud")

    report = ExperimentReport()
    for density in sorted(spec.densities):
        for run in range(1, spec.runs + 1):
            seed = derive_seed(spec.base_seed, density, run)
            if round_half_away(density * len(cloud)) >= len(cloud):
                for method in spec.methods:
                    report.records.append(ExperimentRecord(
                        method=method.value, density=density, run=run, seed=seed,
                        flags="skipped",
                    ))
                continue
            downsampled = random_downsample(cloud, density, seed)
            for method in spec.methods:
                report.records.append(_score_method(cloud, downsampled, method, density, run, seed, spec))

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


def _score_method(
    reference: ColorPointCloud, downsampled: ColorPointCloud,
    method: InterpolatorKind, density: float, run: int, seed: int, spec: ExperimentSpec,
) -> ExperimentRecord:
    try:
        started = time.perf_counter()
        upsampled, uncolored = upsample_cloud(
            downsampled, method,
            block_size=spec.block_size,
            fsmmr_config=spec.fsmmr_config,
            root_policy=spec.root_policy,
            idw_power=spec.idw_power,
        )
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

def _cosine_color(x: float, y: float, z: float, extent: float) -> Tuple[int, int, int]:
    # smooth low-frequency field; one half-period across the extent
    r = 127.5 + 100.0 * math.cos(math.pi * x / extent)
    g = 127.5 + 100.0 * math.cos(math.pi * y / extent + 1.0)
    b = 127.5 + 100.0 * math.cos(math.pi * z / extent + 2.0)
    return tuple(round_color_channel(v) for v in (r, g, b))


def _cosine_colors(positions: np.ndarray, extent: float) -> np.ndarray:
    # math.cos per point: numpy's vectorised cos may round differently
    colors = [_cosine_color(x, y, z, extent) for x, y, z in positions.tolist()]
    return np.array(colors, dtype=np.int64).reshape(-1, 3)


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
