"""Command-line interface.

Subcommands:
  upsample  read a PLY with mixed original/reconstruct roles, color the
            reconstruct points with the chosen method, write a colored PLY
  evaluate  read a fully colored PLY, run the density sweep, write a CSV
  flatten   dump one block's 2D coordinates as CSV for inspection

Exit codes: 0 success, 1 usage error, 2 data error or out of memory.
Each subcommand checks its flags before it reads the input.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import InterpolatorKind
from .core import ColorPointCloud, nearest_original_color, partition_into_blocks
from .errors import CloudColorError, InvalidConfig
from .evaluation import ExperimentSpec, run_experiment
from .fsmmr import FsmmrConfig
from .pipeline import UpsampleConfig, upsample_cloud
from .ply_io import PlyFormat, read_ply, write_ply
from .surface_transform import flatten_block


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no abbreviations: `--root 3` must not read as `--root-seed 3`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)  # the usage line of the (sub)command that failed
        raise _UsageError

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand rejects the arguments it does not know itself; left to
        # the top level, the error would come with the top-level usage line
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_block_flags(p: argparse.ArgumentParser):
    p.add_argument("--block-size", type=float, default=UpsampleConfig.block_size, help="edge length of the cubic partition cells (default %(default)s)")
    p.add_argument("--root-seed", type=int, default=UpsampleConfig.root_seed, help="seed of each block's MST root pick (default: the block's lowest point id)")


def _add_method_flags(p: argparse.ArgumentParser):
    p.add_argument("--idw-power", type=float, default=UpsampleConfig.idw_power, help="Shepard weight exponent (default %(default)s)")
    p.add_argument("--model-size", type=int, default=FsmmrConfig.model_size, help="DCT model window side M=N (default %(default)s)")
    p.add_argument("--sigma", type=float, default=FsmmrConfig.sigma, help="frequency-weight decay in (0,1) (default %(default)s)")
    p.add_argument("--rho", type=float, default=FsmmrConfig.rho, help="spatial-weight decay in (0,1) (default %(default)s)")
    p.add_argument("--gamma", type=float, default=FsmmrConfig.gamma, help="coefficient update damping in (0,1] (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=FsmmrConfig.max_iterations, help="iteration cap per model (default %(default)s)")
    p.add_argument("--energy-threshold", type=float, default=FsmmrConfig.energy_threshold, help="stop once weighted residual energy falls to this (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cloudcolor", description="Color upsampling of 3D point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    up = sub.add_parser("upsample", help="color the reconstruct points of a PLY file")
    up.add_argument("input", type=Path)
    up.add_argument("output", type=Path)
    up.add_argument("--method", default="fsmmr", help=f"one of {', '.join(k.value for k in InterpolatorKind)} (default %(default)s)")
    up.add_argument("--ascii", action="store_true", help="write ASCII PLY instead of binary little-endian")
    _add_block_flags(up)
    _add_method_flags(up)

    ev = sub.add_parser("evaluate", help="run the density sweep on a fully colored PLY")
    ev.add_argument("input", type=Path)
    ev.add_argument("output", type=Path, help="CSV report path")
    ev.add_argument("--methods", default=",".join(k.value for k in ExperimentSpec.methods), help="comma list of methods (default %(default)s)")
    ev.add_argument("--densities", default=",".join(f"{100 * d:g}" for d in ExperimentSpec.densities), help="comma list of sampling densities in percent, each in (0, 100] (default %(default)s)")
    ev.add_argument("--runs", type=int, default=ExperimentSpec.runs, help="runs per density (default %(default)s)")
    ev.add_argument("--seed", type=int, default=ExperimentSpec.base_seed, help="seed of the density splits (default %(default)s)")
    ev.add_argument("--timing", action="store_true", help="record each row's coloring time, summed over its blocks on every process (breaks byte-identical reports; a row also pays for flattening the blocks that no earlier row reached)")
    _add_block_flags(ev)
    _add_method_flags(ev)

    fl = sub.add_parser("flatten", help="dump one block's flattened 2D coordinates as CSV")
    fl.add_argument("input", type=Path)
    fl.add_argument("output", type=Path, help="CSV path")
    fl.add_argument("--block", type=int, default=0, help="ordinal index into the block list (default 0)")
    _add_block_flags(fl)
    return parser


def _upsample_config(args) -> UpsampleConfig:
    fsmmr = FsmmrConfig(args.model_size, args.sigma, args.rho, args.gamma, args.max_iters, args.energy_threshold)
    return UpsampleConfig(args.block_size, args.root_seed, args.idw_power, fsmmr)


def _cmd_upsample(args) -> int:
    method, config = InterpolatorKind.parse(args.method), _upsample_config(args)
    cloud = read_ply(args.input.read_bytes())
    upsampled = upsample_cloud(cloud, method, config)
    holes = ~upsampled.colored
    if holes.any():
        # keep the output total: fill the method's holes from the nearest original
        print(f"{holes.sum()} points left uncolored by {method.value}; filled from nearest originals", file=sys.stderr)
        colors = upsampled.colors.copy()
        colors[holes] = nearest_original_color(cloud, upsampled.positions[holes])
        upsampled = ColorPointCloud(upsampled.positions, colors, upsampled.original)
    fmt = PlyFormat.ASCII if args.ascii else PlyFormat.BINARY_LITTLE_ENDIAN
    args.output.write_bytes(write_ply(upsampled, fmt))
    return 0


def _experiment_spec(args) -> ExperimentSpec:
    methods = _comma_list(args.methods, InterpolatorKind.parse)
    densities = tuple(percent / 100.0 for percent in _comma_list(args.densities, float))
    return ExperimentSpec(methods, densities, args.runs, args.seed, _upsample_config(args), args.timing)


def _comma_list(text: str, parse_token) -> tuple:
    try:
        return tuple(parse_token(token) for token in text.split(",") if token)
    except ValueError as exc:  # a token that float() cannot read
        raise InvalidConfig(f"cannot read {text!r} as a comma list: {exc}") from None


def _cmd_evaluate(args) -> int:
    spec = _experiment_spec(args)
    report = run_experiment(read_ply(args.input.read_bytes()), spec)
    args.output.write_text(report.to_csv(), encoding="utf-8", newline="\n")
    for (method, density), mean in sorted(report.aggregates.items()):
        print(f"{method} @ density {density:g}: mean color PSNR {mean:.3f} dB", file=sys.stderr)
    return 0


def _cmd_flatten(args) -> int:
    config = UpsampleConfig(args.block_size, args.root_seed)
    cloud = read_ply(args.input.read_bytes())
    blocks = partition_into_blocks(cloud, config.block_size)
    if not 0 <= args.block < len(blocks):
        raise CloudColorError(f"block index {args.block} out of range (0..{len(blocks) - 1})")
    block = blocks[args.block]
    lines = ["point_id,role,x_flat,y_flat"]
    for pid, (x, y) in zip(block.point_ids.tolist(), flatten_block(block, cloud, config.root_seed).tolist()):
        role = "original" if cloud.original[pid] else "reconstruct"
        lines.append(f"{pid},{role},{x!r},{y!r}")
    args.output.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    run = {"upsample": _cmd_upsample, "evaluate": _cmd_evaluate, "flatten": _cmd_flatten}[args.command]
    try:
        return run(args)
    except (CloudColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a flag value asked for more memory than there is
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
