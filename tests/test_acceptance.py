"""Acceptance suite: one test per release criterion, each printing a
PASS line with its stated tolerance once the assertions hold.

Settings are stated explicitly per test; they are not always the library
defaults.
"""
import math

import numpy as np
import pytest

from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import ColorPointCloud, partition_into_blocks
from cloudcolor.evaluation import (
    ExperimentSpec, derive_seed, dihedral_cloud, plane_cloud, psnr_channel,
    random_downsample, run_experiment, sphere_cloud,
)
from cloudcolor.fsmmr import (
    FsmmrConfig, ScatteredSamples, evaluate_model, generate_model,
)
from cloudcolor.pipeline import BlockGeometry, UpsampleConfig, block_colors, upsample_cloud
from cloudcolor.ply_io import PlyFormat, read_ply, write_ply
from cloudcolor.surface_transform import build_mst, flatten_block

from conftest import random_cloud
from oracles import brute_force_mst_weight, dct2_basis_oracle, fold_2d_oracle

# the stated sweep configuration for the trend criteria
SWEEP_CONFIG = FsmmrConfig(model_size=8, sigma=0.5, rho=0.7, max_iterations=50)


def test_energy_monotonicity():
    """E is non-increasing at every iteration over >= 1000 random sample
    sets (5-200 samples, gamma in {0.5, 1.0}); tolerance 1e-9 relative."""
    rng = np.random.default_rng(2024)
    checked_iterations = 0
    for trial in range(1000):
        n = int(rng.integers(5, 201))
        m = int(rng.integers(4, 11))
        gamma = float(rng.choice([0.5, 1.0]))
        config = FsmmrConfig(
            model_size=m,
            sigma=float(rng.uniform(0.3, 0.95)), rho=float(rng.uniform(0.3, 0.95)),
            gamma=gamma, max_iterations=12,
        )
        coords = np.column_stack([rng.uniform(0, m - 1, n), rng.uniform(0, m - 1, n)])
        values = rng.uniform(0, 255, n)
        weights = rng.uniform(0.05, 1.0, n)
        samples = ScatteredSamples(coords, values, weights)
        model = generate_model(samples, config)
        energies = (float(weights @ (values**2)),) + model.energy_history
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1 + 1e-9), f"energy rose in trial {trial}"
            checked_iterations += 1
    assert checked_iterations > 0
    print(f"\nPASS: energy monotonicity over 1000 random instances "
          f"({checked_iterations} iterations, 1e-9 relative tolerance)")


def test_dc_exactness():
    """Constant-color blocks reconstruct integer-exactly for 100 random
    block geometries."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 30))
        color = tuple(int(v) for v in rng.integers(0, 256, 3))
        positions = rng.uniform(0, 4, size=(n, 3))
        original = np.ones(n, dtype=bool)
        has_r = False
        for i in range(n):
            if i == n - 1 and not has_r:
                original[i] = False
            elif i > 0 and rng.random() < 0.4:
                has_r = True
                original[i] = False
        cloud = ColorPointCloud(positions, [color] * n, original=original, colored=original)
        geometry = BlockGeometry(cloud, UpsampleConfig(block_size=1e9))
        ids, colors = block_colors(geometry, 0, cloud, InterpolatorKind.FSMMR)
        assert ids.tolist() == np.flatnonzero(~cloud.original).tolist(), f"trial {trial} left points uncolored"
        assert all(tuple(c) == color for c in colors.tolist()), f"trial {trial} not exact"
    print("\nPASS: DC exactness on 100 constant-color random blocks (integer exact)")


def test_grid_orthogonality_recovery():
    """Full 16x16 grid samples from random 5-term sparse signals, gamma=1,
    uniform weights: max abs error < 1e-6 within the candidate count of
    iterations, and the 5 planted frequencies are selected first
    (sigma = 0.999)."""
    m = n = 16
    xs, ys = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    coords = np.column_stack([xs.reshape(-1), ys.reshape(-1)]).astype(float)
    rng = np.random.default_rng(99)
    all_pairs = [(k, l) for k in range(m) for l in range(n)]

    for trial in range(20):
        planted = {all_pairs[i] for i in rng.choice(len(all_pairs), size=5, replace=False)}
        amplitudes = {
            kl: float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])) for kl in planted
        }
        values = np.zeros(len(coords))
        for (k, l), a in amplitudes.items():
            values += a * np.array([dct2_basis_oracle(k, l, x, y, m, n) for x, y in coords])

        config = FsmmrConfig(
            model_size=m, sigma=0.999, rho=0.7, gamma=1.0,
            max_iterations=m * n, energy_threshold=1e-18,
        )
        samples = ScatteredSamples(coords, values, np.ones(len(coords)))
        model = generate_model(samples, config)
        assert model.iterations_run <= m * n
        first_five = set(model.selection_history[:5])
        assert first_five == planted, f"trial {trial}: selected {first_five}, planted {planted}"
        error = np.abs(evaluate_model(model, coords) - values).max()
        assert error < 1e-6, f"trial {trial}: max abs error {error}"
    print("\nPASS: grid-orthogonality recovery (20 random 5-term signals, "
          "max abs error < 1e-6, planted frequencies selected first)")


def test_mst_brute_force_oracle():
    """200 random point sets of size <= 7: Kruskal total weight equals the
    enumeration minimum over all spanning trees."""
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        points = [tuple(map(float, c)) for c in rng.uniform(0, 5, size=(n, 3))]
        weight = sum(math.dist(points[p], points[c]) for p, c in build_mst(points))
        oracle = brute_force_mst_weight(points)
        assert weight == pytest.approx(oracle, rel=1e-12), f"trial {trial}"
    print("\nPASS: MST weight equals brute-force enumeration on 200 random sets (n <= 7)")


def test_flatten_consistency():
    """200 random blocks: every MST edge satisfies the fold identity
    exactly; all-equal-z flattening reproduces the (x,y) layout to 1e-12."""
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(2, 15))
        planar = trial % 2 == 0
        coords = rng.uniform(0, 4, size=(n, 3))
        if planar:
            coords[:, 2] = coords[0, 2]
        cloud = ColorPointCloud(coords, np.zeros((n, 3), dtype=int))
        block = partition_into_blocks(cloud, 1e9)[0]
        flat = dict(zip(block.point_ids.tolist(), map(tuple, flatten_block(block, cloud).tolist())))
        local_coords = [tuple(c) for c in cloud.positions[block.point_ids].tolist()]
        for p, c in build_mst(local_coords, root=0):
            dx, dy = fold_2d_oracle(local_coords[p], local_coords[c])
            parent = flat[block.point_ids[p]]
            child = flat[block.point_ids[c]]
            assert child == (parent[0] + dx, parent[1] + dy), f"trial {trial}: fold identity broken"
        if planar:
            rx, ry, _ = local_coords[0]
            for pid, (fx, fy) in flat.items():
                x, y, _ = cloud.positions[pid].tolist()
                assert abs(fx - (x - rx)) <= 1e-12 and abs(fy - (y - ry)) <= 1e-12
    print("\nPASS: flatten fold identity exact and equal-z fixpoint within 1e-12 (200 blocks)")


def _synthetic_suite():
    return [
        ("sphere", sphere_cloud(n_points=700, radius=8.0, seed=0)),
        ("plane-edge", plane_cloud(n_points=500, size=12.0, seed=1, sharp_edge=True)),
        ("dihedral", dihedral_cloud(n_points=500, size=12.0, seed=2)),
    ]


def test_totality():
    """FSMMR colors every reconstruct point of every synthetic cloud at
    every density in {10..80}%; LIN2 leaves holes on at least one cloud."""
    lin2_holes = 0
    for name, cloud in _synthetic_suite():
        for percent in range(10, 90, 10):
            density = percent / 100.0
            down = random_downsample(cloud, density, derive_seed(1, density, 1))
            upsampled = upsample_cloud(down, InterpolatorKind.FSMMR, UpsampleConfig(block_size=4.0, fsmmr=SWEEP_CONFIG))
            uncolored = (~upsampled.colored).sum()
            assert uncolored == 0, f"{name}@{percent}%: FSMMR left {uncolored} holes"
            if percent == 50:
                lin2 = upsample_cloud(down, InterpolatorKind.LIN2_DELAUNAY, UpsampleConfig(block_size=4.0))
                lin2_holes += (~lin2.colored).sum()
    assert lin2_holes > 0, "LIN2 unexpectedly colored everything"
    print(f"\nPASS: FSMMR total on 3 clouds x 8 densities; LIN2 left {lin2_holes} hull-exterior holes")


def test_qualitative_ordering():
    """Synthetic sphere, low-frequency color, density 50%, 3 runs: FSMMR
    mean color PSNR >= IDW2 and >= NN3 + 0.5 dB."""
    cloud = sphere_cloud(n_points=1500, radius=8.0, seed=0)
    spec = ExperimentSpec(
        methods=(InterpolatorKind.FSMMR, InterpolatorKind.IDW2, InterpolatorKind.NN3),
        densities=(0.5,), runs=3, base_seed=11, upsample=UpsampleConfig(block_size=4.0, fsmmr=SWEEP_CONFIG),
    )
    agg = run_experiment(cloud, spec).aggregates
    fsmmr, idw2, nn3 = agg[("fsmmr", 0.5)], agg[("idw2", 0.5)], agg[("nn3", 0.5)]
    assert fsmmr >= idw2 + 0.5, f"fsmmr {fsmmr:.2f} vs idw2 {idw2:.2f}"
    assert fsmmr >= nn3 + 0.5, f"fsmmr {fsmmr:.2f} vs nn3 {nn3:.2f}"
    print(f"\nPASS: qualitative ordering at 50% density "
          f"(fsmmr {fsmmr:.2f} dB >= idw2 {idw2:.2f} + 0.5 and >= nn3 {nn3:.2f} + 0.5)")


def test_density_trend():
    """FSMMR mean color PSNR over 3 runs is non-decreasing across densities
    10%..80% on the synthetic sphere (tolerance -0.2 dB per step)."""
    cloud = sphere_cloud(n_points=1500, radius=8.0, seed=0)
    densities = tuple(p / 100.0 for p in range(10, 90, 10))
    spec = ExperimentSpec(
        methods=(InterpolatorKind.FSMMR,), densities=densities, runs=3,
        base_seed=11, upsample=UpsampleConfig(block_size=4.0, fsmmr=SWEEP_CONFIG),
    )
    agg = run_experiment(cloud, spec).aggregates
    means = [agg[("fsmmr", d)] for d in densities]
    for (da, a), (db, b) in zip(zip(densities, means), zip(densities[1:], means[1:])):
        assert b >= a - 0.2, f"PSNR fell {a:.2f} -> {b:.2f} from {da:.0%} to {db:.0%}"
    trend = " -> ".join(f"{v:.1f}" for v in means)
    print(f"\nPASS: density trend non-decreasing within 0.2 dB ({trend} dB)")


def test_psnr_closed_forms():
    """The three channel-PSNR reference cases match to 1e-9 dB."""
    assert psnr_channel([3, 7], [3, 7]) == math.inf
    assert psnr_channel([16], [32]) == pytest.approx(10 * math.log10(255**2 / 256), abs=1e-9)
    assert psnr_channel([0, 0, 0], [255, 255, 255]) == pytest.approx(0.0, abs=1e-9)
    print("\nPASS: PSNR closed forms match within 1e-9 dB")


def test_ply_roundtrip():
    """Binary-LE write -> read -> write is byte-identical for 50 random
    clouds."""
    for seed in range(50):
        cloud = random_cloud(int(1 + seed * 3 % 60) + 1, seed=seed)
        first = write_ply(cloud, PlyFormat.BINARY_LITTLE_ENDIAN)
        second = write_ply(read_ply(first), PlyFormat.BINARY_LITTLE_ENDIAN)
        assert first == second, f"seed {seed}"
    print("\nPASS: binary-LE PLY write/read/write byte-identical for 50 clouds")
