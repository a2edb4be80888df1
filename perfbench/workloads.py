"""The benchmark's workloads: seeded inputs, CLI jobs and output checks.

Each workload is a list of jobs; a job is one `cloudcolor` CLI call on a
generated input file plus a check of the file it writes. A check returns
the job's mean color PSNR in dB or raises `CheckFailed`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import Cloud, make_cloud, ply_bytes, read_ply_arrays


class CheckFailed(Exception):
    """An output broke one of the invariants the benchmark checks."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    output: Path
    check: Callable[[bytes], float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable[[int, Path], list[Job]]


def color_psnr(truth: np.ndarray, got: np.ndarray) -> float:
    """PSNR of the squared error pooled over R, G and B.

    Pooled rather than averaged per channel because the plane's blue
    channel is constant and reconstructed exactly, which makes its own PSNR
    infinite. An exact reconstruction of all channels reads as 100 dB.
    """
    if len(truth) == 0:
        raise CheckFailed("no reconstructed points to score")
    mse = float(((truth.astype(float) - got.astype(float)) ** 2).mean())
    return 10.0 * math.log10(255.0 ** 2 / mse) if mse else 100.0


def check_upsampled(cloud: Cloud, binary: bool, data: bytes) -> float:
    """Point count, coordinates and original colors are preserved and every
    point carries a color; score the reconstructed points against the truth."""
    try:
        xyz, rgb = read_ply_arrays(data)
    except ValueError as exc:
        raise CheckFailed(f"output PLY: {exc}") from None
    # a binary input stores float32, which is what the program reads back
    expected_xyz = cloud.xyz.astype(np.float32).astype(float) if binary else cloud.xyz
    if len(xyz) != len(expected_xyz):
        raise CheckFailed(f"output has {len(xyz)} points, input has {len(expected_xyz)}")
    if not np.array_equal(xyz, expected_xyz):
        raise CheckFailed("output coordinates differ from the input's")
    if not np.array_equal(rgb[cloud.original], cloud.rgb[cloud.original]):
        raise CheckFailed("an original color changed")
    return color_psnr(cloud.rgb[~cloud.original], rgb[~cloud.original])


CSV_HEADER = "method,density,run,seed,psnr_r,psnr_g,psnr_b,color_psnr,uncolored_count,wall_time_ms,flags"
SWEEP_METHODS = ("fsmmr", "nn3", "idw3", "idw2", "lin2")
SWEEP_DENSITIES = ("0.1", "0.5", "0.8")
SWEEP_RUNS = 3


def check_sweep_csv(data: bytes) -> float:
    """The default sweep's CSV has one scored row per (method, density, run);
    only LIN2 may leave points uncolored. Returns the mean color PSNR."""
    lines = data.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise CheckFailed("CSV header or trailing newline differs")
    expected = {(m, d, str(r)) for m in SWEEP_METHODS for d in SWEEP_DENSITIES for r in range(1, SWEEP_RUNS + 1)}
    seen, scores = set(), []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 11:
            raise CheckFailed(f"CSV row has {len(fields)} fields: {line!r}")
        method, density, run, flags = fields[0], fields[1], fields[2], fields[10]
        score, uncolored = float(fields[7] or "nan"), int(fields[8])
        if flags or not math.isfinite(score):
            raise CheckFailed(f"CSV row not scored: {line!r}")
        if uncolored and method != "lin2":
            raise CheckFailed(f"{method} left {uncolored} points uncolored")
        seen.add((method, density, run))
        scores.append(score)
    if seen != expected or len(scores) != len(expected):
        raise CheckFailed(f"CSV rows do not cover the sweep exactly ({len(scores)} rows)")
    return float(np.mean(scores))


def _upsample_job(workdir: Path, name: str, cloud: Cloud, ascii: bool, flags: tuple[str, ...]) -> Job:
    src, out = workdir / f"{name}.in.ply", workdir / f"{name}.out.ply"
    src.write_bytes(ply_bytes(cloud, ascii=ascii, role_flag=True))
    return Job(name, ("upsample", *flags, str(src), str(out)), out, partial(check_upsampled, cloud, not ascii))


def mst_large_blocks(seed: int, workdir: Path) -> list[Job]:
    cloud = make_cloud("sphere", 20_000, 8.0, 0.5, seed, salt=1)
    return [_upsample_job(workdir, "sphere20k", cloud, False, ("--method", "fsmmr", "--block-size", "4"))]


def eval_sweep(seed: int, workdir: Path) -> list[Job]:
    cloud = make_cloud("sphere", 1_500, 8.0, 1.0, seed, salt=4)
    src, out = workdir / "sphere1500.in.ply", workdir / "sphere1500.csv"
    src.write_bytes(ply_bytes(cloud, ascii=False, role_flag=False))
    return [Job("sphere1500", ("evaluate", str(src), str(out)), out, check_sweep_csv)]


def scan_fill(seed: int, workdir: Path) -> list[Job]:
    cloud = make_cloud("sphere", 50_000, 8.0, 0.995, seed, salt=5)
    return [_upsample_job(workdir, "scan50k", cloud, True, ("--method", "nn3", "--ascii"))]


WORKLOADS = {w.name: w for w in (
    Workload(
        "mst-large-blocks",
        "20k-point sphere, block size 4: 56 blocks of ~357 points, so the O(n^2 log n) MST build dominates",
        mst_large_blocks,
    ),
    Workload(
        "eval-sweep",
        "the paper's protocol: default evaluate sweep (5 methods x 3 densities x 3 runs) on a 1.5k sphere; "
        "the sparse-DCT fit dominates; the only workload running evaluation and the nearest-original fallback",
        eval_sweep,
    ),
    Workload(
        "scan-fill",
        "NN3 recoloring of 0.5% holes in a 50k-point ASCII scan: PLY I/O and per-point cloud handling dominate; "
        "no partition, MST or fit",
        scan_fill,
    ),
)}
