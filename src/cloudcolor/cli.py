"""Command-line interface.

Subcommands:
  upsample  read a PLY with mixed original/reconstruct roles, color the
            reconstruct points with the chosen method, write a colored PLY
  evaluate  read a fully colored PLY, run the density sweep, write a CSV
  flatten   dump one block's 2D coordinates as CSV for inspection

Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .baselines import InterpolatorKind
from .core import nearest_original_color, partition_into_blocks
from .errors import CloudColorError
from .evaluation import ExperimentSpec, run_experiment
from .fsmmr import FsmmrConfig
from .pipeline import upsample_cloud
from .ply_io import PlyFormat, read_ply, write_ply
from .surface_transform import RootPolicy, flatten_block


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--block-size", type=float, default=4.0, help="edge length of the cubic partition cells (default 4.0)")
    p.add_argument("--model-size", type=int, default=16, help="DCT model window side M=N (default 16)")
    p.add_argument("--sigma", type=float, default=0.8, help="frequency-weight decay in (0,1) (default 0.8)")
    p.add_argument("--rho", type=float, default=0.7, help="spatial-weight decay in (0,1) (default 0.7)")
    p.add_argument("--gamma", type=float, default=0.5, help="coefficient update damping in (0,1] (default 0.5)")
    p.add_argument("--max-iters", type=int, default=100, help="iteration cap per model (default 100)")
    p.add_argument("--energy-threshold", type=float, default=0.0, help="stop once weighted residual energy falls to this (default 0)")
    p.add_argument("--root", choices=["deterministic", "random"], default="deterministic", help="MST root selection (default deterministic)")
    p.add_argument("--seed", type=int, default=0, help="seed for random root selection / experiment splits (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cloudcolor", description="Color upsampling of 3D point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    up = sub.add_parser("upsample", parents=[], help="color the reconstruct points of a PLY file")
    up.add_argument("input", type=Path)
    up.add_argument("output", type=Path)
    up.add_argument("--method", default="fsmmr", help="fsmmr, nn3, idw3, idw2 or lin2 (default fsmmr)")
    up.add_argument("--idw-power", type=float, default=2.0, help="Shepard weight exponent (default 2.0)")
    up.add_argument("--ascii", action="store_true", help="write ASCII PLY instead of binary little-endian")
    _add_common_flags(up)

    ev = sub.add_parser("evaluate", help="run the density sweep on a fully colored PLY")
    ev.add_argument("input", type=Path)
    ev.add_argument("output", type=Path, help="CSV report path")
    ev.add_argument("--methods", default="fsmmr,nn3,idw3,idw2,lin2", help="comma list of methods (default all)")
    ev.add_argument("--densities", default="10,50,80", help="comma list of sampling densities, percent 1-100 (default 10,50,80)")
    ev.add_argument("--runs", type=int, default=3, help="runs per density (default 3)")
    ev.add_argument("--idw-power", type=float, default=2.0, help="Shepard weight exponent (default 2.0)")
    ev.add_argument("--timing", action="store_true", help="record real wall times (breaks byte-identical reports)")
    _add_common_flags(ev)

    fl = sub.add_parser("flatten", help="dump one block's flattened 2D coordinates as CSV")
    fl.add_argument("input", type=Path)
    fl.add_argument("output", type=Path, help="CSV path")
    fl.add_argument("--block", type=int, default=0, help="ordinal index into the block list (default 0)")
    _add_common_flags(fl)
    return parser


def _fsmmr_config(args) -> FsmmrConfig:
    return FsmmrConfig(
        model_width=args.model_size,
        model_height=args.model_size,
        sigma=args.sigma,
        rho=args.rho,
        gamma=args.gamma,
        max_iterations=args.max_iters,
        energy_threshold=args.energy_threshold,
    )


def _root_policy(args) -> RootPolicy:
    if args.root == "random":
        return RootPolicy.seeded_random(args.seed)
    return RootPolicy.deterministic()


def _parse_density(token: str) -> float:
    value = float(token)
    return value / 100.0 if value > 1.0 else value


def _cmd_upsample(args) -> int:
    cloud = read_ply(args.input.read_bytes())
    method = InterpolatorKind.parse(args.method)
    upsampled, uncolored = upsample_cloud(
        cloud, method,
        block_size=args.block_size,
        fsmmr_config=_fsmmr_config(args),
        root_policy=_root_policy(args),
        idw_power=args.idw_power,
    )
    if uncolored:
        # keep the output total: fill the method's holes from the nearest original
        print(f"{uncolored} points left uncolored by {method.value}; filled from nearest originals", file=sys.stderr)
        holes = np.flatnonzero(~upsampled.colored)
        upsampled = upsampled.with_colors(holes, nearest_original_color(cloud, upsampled.positions[holes]))
    fmt = PlyFormat.ASCII if args.ascii else PlyFormat.BINARY_LITTLE_ENDIAN
    args.output.write_bytes(write_ply(upsampled, fmt))
    return 0


def _cmd_evaluate(args) -> int:
    cloud = read_ply(args.input.read_bytes())
    methods = tuple(InterpolatorKind.parse(t) for t in args.methods.split(",") if t)
    densities = tuple(_parse_density(t) for t in args.densities.split(",") if t)
    spec = ExperimentSpec(
        methods=methods,
        densities=densities,
        runs=args.runs,
        base_seed=args.seed,
        fsmmr_config=_fsmmr_config(args),
        block_size=args.block_size,
        root_policy=_root_policy(args),
        idw_power=args.idw_power,
        measure_time=args.timing,
    )
    report = run_experiment(cloud, spec)
    args.output.write_text(report.to_csv(), encoding="utf-8", newline="\n")
    for (method, density), mean in sorted(report.aggregates.items()):
        print(f"{method} @ density {density:g}: mean color PSNR {mean:.3f} dB", file=sys.stderr)
    return 0


def _cmd_flatten(args) -> int:
    cloud = read_ply(args.input.read_bytes())
    blocks = partition_into_blocks(cloud, args.block_size)
    if not 0 <= args.block < len(blocks):
        raise CloudColorError(f"block index {args.block} out of range (0..{len(blocks) - 1})")
    mesh = flatten_block(blocks[args.block], cloud, _root_policy(args))
    lines = ["point_id,role,x_flat,y_flat"]
    for pid, x, y in mesh.entries:
        role = "original" if cloud.original[pid] else "reconstruct"
        lines.append(f"{pid},{role},{x!r},{y!r}")
    args.output.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "upsample":
            return _cmd_upsample(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_flatten(args)
    except (CloudColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
