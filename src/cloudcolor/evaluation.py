"""Experiment protocol: seeded random downsampling, reconstruction-only
color PSNR, multi-run density sweeps, CSV reports, and synthetic test
clouds.
"""
from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .baselines import InterpolatorKind, load_delaunay
from .core import ColorPointCloud, round_color_channel
from .errors import CloudColorError, InvalidConfig, InvalidInput
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
        if not (self.methods and self.densities):
            raise InvalidConfig("the method and density lists must not be empty")
        if not all(isinstance(method, InterpolatorKind) for method in self.methods):
            raise InvalidConfig("each method must be an InterpolatorKind")
        if len(set(self.methods)) < len(self.methods):
            raise InvalidConfig("each method may be listed only once")
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
    lose their color but keep their coordinates as Reconstruct points."""
    if not (0.0 < density <= 1.0):
        raise InvalidConfig(f"density must lie in (0, 1], got {density}")
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
    receives the same downsampled cloud.  Downsampling changes only the
    roles, so every run shares one block partition and flattening.

    The (density, run) jobs run on every usable core: job i goes to process
    i % W, this one being process 0, and the rows come back in job order,
    so the report is the same for any W."""
    if not cloud.colored.all():
        raise InvalidInput("the experiment needs a fully colored reference cloud")
    if InterpolatorKind.LIN2_DELAUNAY in spec.methods:
        load_delaunay()  # before any fork, so that every process shares one single-threaded scipy

    geometry = BlockGeometry(cloud, spec.upsample)  # lazy: its errors flag the rows that reach them
    jobs = [(density, run) for density in sorted(spec.densities) for run in range(1, spec.runs + 1)]
    workers = _worker_count(len(jobs), _usable_cores())
    if workers == 1:
        done = [_run_share(cloud, geometry, spec, jobs)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        shares = [jobs[w::workers] for w in range(workers)]
        # forked workers inherit the cloud and the geometry: nothing is pickled on the way in
        with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_enter_sweep, initargs=(cloud, geometry, spec)) as pool:
            futures = [pool.submit(_run_forked_share, share) for share in shares[1:]]
            done = [_run_share(cloud, geometry, spec, shares[0])]
            try:
                done += [future.result() for future in futures]
            except BrokenProcessPool as exc:
                raise CloudColorError(f"a sweep worker process ended abruptly: {exc}") from None

    report = ExperimentReport()
    for i in range(len(jobs)):
        report.records += done[i % workers][i // workers]
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


def _usable_cores() -> int:
    """The cores this process may run on; 1 where it cannot fork or tell."""
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _worker_count(jobs: int, cores: int) -> int:
    """The processes, this one included, that a sweep of `jobs` jobs runs on."""
    return min(jobs, cores)


def _run_share(
    cloud: ColorPointCloud, geometry: BlockGeometry, spec: ExperimentSpec, jobs: Sequence[Tuple[float, int]],
) -> list[list[ExperimentRecord]]:
    """The records of each (density, run) job in `jobs`, one row per method."""
    done = []
    for density, run in jobs:
        seed = derive_seed(spec.base_seed, density, run)
        downsampled = random_downsample(cloud, density, seed)
        if downsampled.original.all():  # nothing to reconstruct
            done.append([ExperimentRecord(method=method.value, density=density, run=run, seed=seed, flags="skipped")
                         for method in spec.methods])
        else:
            done.append([_score_method(cloud, downsampled, geometry, method, density, run, seed, spec)
                         for method in spec.methods])
    return done


_forked_sweep: tuple = ()  # (cloud, geometry, spec), set only in a forked sweep worker


def _enter_sweep(*sweep) -> None:
    global _forked_sweep
    _forked_sweep = sweep


def _run_forked_share(jobs: Sequence[Tuple[float, int]]) -> list[list[ExperimentRecord]]:
    return _run_share(*_forked_sweep, jobs)


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
