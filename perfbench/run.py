"""cloudcolor benchmark: one workload per run, through `cloudcolor.cli.main`.

    python3 perfbench/run.py --workload mst-large-blocks --seed 0 --seconds 20 --trace 0

The workload's inputs are generated from `--seed` and written under
`.perfbench_work/<workload>/` in the checkout. The jobs then run in this
process, pass after pass, until `--seconds` have passed; every output is
checked, and at the reference seed compared with the SHA-256 digests in
`reference_digests.json`. A job that raises, exits non-zero or fails its
check counts as failed.

With `--trace 0` the passes are untraced and the end-to-end metrics are
reported. With `--trace 1` untraced and traced passes alternate and the
per-layer metrics are reported: self seconds and work counts per public
function of each module, plus the tracing overhead (traced minus untraced
wall time). Spans are written to `spans.json` in the work directory.

Every reported time is scaled to a fixed host speed (see `hostspeed`); the
raw medians are printed before the result line.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it give
each output's digest and every metric with its sample count or base.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REFERENCE_S, reference_seconds, speed_scale
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
SETUP_RUNS = 5
SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import cloudcolor.cli; print('ready', flush=True)"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "color_psnr_db": "dB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "ply_io.read_ply.s": "s",
    "ply_io.write_ply.s": "s",
    "ply_io.bytes_in": "bytes",
    "ply_io.bytes_out": "bytes",
    "core.partition_into_blocks.s": "s",
    "core.blocks": "count",
    "core.block_pts_mean": "points",
    "core.block_pts_max": "points",
    "surface_transform.build_mst.s": "s",
    "surface_transform.flatten_block.s": "s",
    "surface_transform.build_mst.calls": "count",
    "surface_transform.mst_edge_candidates": "count.computed",
    "fsmmr.generate_model.s": "s",
    "fsmmr.evaluate_model.s": "s",
    "fsmmr.upsample_block.s": "s",
    "fsmmr.models": "count",
    "fsmmr.iterations": "count",
    "fsmmr.iteration_cap": "count.computed",
    "fsmmr.iter_fill": "ratio",
    "fsmmr.nearest_original_color.s": "s",
    "fsmmr.nearest_original_color.calls": "count",
    "baselines.interpolate_nn3.s": "s",
    "baselines.interpolate_idw.s": "s",
    "baselines.interpolate_lin2.s": "s",
    "baselines.queries": "count",
    "baselines.distance_evals": "count.computed",
    "baselines.lin2_holes": "count",
    "pipeline.upsample_cloud.s": "s",
    "pipeline.upsample_cloud.calls": "count",
    "evaluation.random_downsample.s": "s",
    "evaluation.reconstruction_color_psnr.s": "s",
    "evaluation.run_experiment.s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}

# what a value is, or the base of a ratio, printed next to it
NOTES = {
    "setup_s": f"median of n={SETUP_RUNS} interpreter starts, at nominal host speed",
    "peak_rss_mb": "peak resident set of this process (getrusage)",
    "color_psnr_db": "pooled over R,G,B of the reconstructed points (CSV mean for the sweep)",
    "core.block_pts_mean": "points in blocks / core.blocks",
    "fsmmr.iter_fill": "fsmmr.iterations / fsmmr.iteration_cap (models x max_iterations)",
    "baselines.lin2_holes": "of baselines.queries",
    "surface_transform.mst_edge_candidates": "computed: sum n(n-1)/2 over build_mst inputs",
    "baselines.distance_evals": "computed: sum queries x originals per interpolate call",
    "fsmmr.iteration_cap": "computed: sum max_iterations over models",
    "ok_ratio": "jobs passing their check / jobs attempted",
    "trace.overhead_s": "median traced wall_s - median untraced wall_s",
}


@dataclass
class Pass:
    tracer: Tracer | None = None
    wall: float = 0.0
    cpu: float = 0.0
    psnr: list[float] = field(default_factory=list)
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)


def load_cli():
    """Import the program from the checkout's `src/`; exit non-zero if it is not there."""
    if not (SRC / "cloudcolor" / "cli.py").is_file():
        sys.exit(f"perfbench: no cloudcolor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cloudcolor.cli
    return cloudcolor.cli


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until `cloudcolor.cli` is imported."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)], stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_pass(cli, jobs: list[Job], expected: dict[str, str], tracer: Tracer | None = None) -> Pass:
    """Run every job once; check each output and its digest against
    `expected`, which the first pass fills when it has no reference."""
    result = Pass(tracer=tracer)
    for index, job in enumerate(jobs):
        job.output.unlink(missing_ok=True)
        try:
            if tracer is not None:
                tracer.job = index
            with tracer if tracer is not None else contextlib.nullcontext():
                wall, cpu = time.perf_counter(), time.process_time()
                code = cli.main(list(job.argv))
                result.wall += time.perf_counter() - wall
                result.cpu += time.process_time() - cpu
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            data = job.output.read_bytes()
            digest = result.digests[job.name] = hashlib.sha256(data).hexdigest()
            if expected.setdefault(job.name, digest) != digest:
                raise CheckFailed(f"digest {digest} differs from the expected {expected[job.name]}")
            result.psnr.append(job.check(data))
        except Exception:  # any failure of a job is counted, not fatal
            result.failed += 1
            print(f"perfbench: job {job.name} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return result


def layer_metrics(traced: list[Pass], untraced: list[Pass], scale: float) -> dict[str, float]:
    values = {name: 0 for name in PER_LAYER}
    self_times = [p.tracer.self_times() for p in traced]
    counts = traced[0].tracer.counts  # counts repeat exactly from pass to pass
    for name in PER_LAYER:
        if name.endswith(".s"):
            values[name] = scale * statistics.median(t.get(name[:-2], 0.0) for t in self_times)
        elif name in counts:
            values[name] = counts[name]
    if counts["core.blocks"]:
        values["core.block_pts_mean"] = counts["core.block_pts_sum"] / counts["core.blocks"]
    if counts["fsmmr.iteration_cap"]:
        values["fsmmr.iter_fill"] = counts["fsmmr.iterations"] / counts["fsmmr.iteration_cap"]
    values["trace.overhead_s"] = scale * (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced)
    )
    return values


def write_spans(path: Path, traced: list[Pass]) -> None:
    rows = [
        {"pass": k, "name": name, "start": start, "end": end, "parent": parent, "job": job}
        for k, p in enumerate(traced)
        for name, start, end, parent, job in p.tracer.spans
    ]
    path.write_text(json.dumps(rows), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workload.make_jobs(args.seed, workdir)
    golden = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    expected = dict(golden["digests"].get(workload.name, {})) if args.seed == golden["seed"] else {}
    has_reference = bool(expected)
    setup = [measure_setup() for _ in range(SETUP_RUNS)]
    reference = [reference_seconds()]  # and one after each pass

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        traced_count = sum(p.tracer is not None for p in passes)
        tracer = Tracer() if args.trace and 2 * traced_count < len(passes) else None
        passes.append(run_pass(cli, jobs, expected, tracer))
        reference.append(reference_seconds())
        has_traced = traced_count or tracer is not None
        if time.perf_counter() - started >= args.seconds and (has_traced or not args.trace):
            break
    untraced = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    scale = speed_scale(reference)

    attempted = len(passes) * len(jobs)
    failed = sum(p.failed for p in passes)
    print(f"perfbench: workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes of {len(jobs)} jobs")
    print(f"reference_s: {' '.join(f'{r:.4f}' for r in reference)} (nominal {REFERENCE_S:g}, times scaled by {scale:.4f})")
    for kind, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"{kind} pass wall_s, raw: " + " ".join(f"{p.wall:.4f}" for p in group))
    print(f"raw medians: wall_s {statistics.median(p.wall for p in untraced):.4f} "
          f"cpu_s {statistics.median(p.cpu for p in untraced):.4f} setup_s {statistics.median(setup):.4f}")
    for job in jobs:
        seen = {p.digests.get(job.name, "none") for p in passes}
        if not has_reference:
            status = "no reference at this seed"
        elif seen == {expected[job.name]}:
            status = "matches the reference"
        else:
            status = f"reference is {expected[job.name]}"
        print(f"digest {workload.name}/{job.name} sha256 {' '.join(sorted(seen))} ({status})")

    if args.trace:
        write_spans(workdir / "spans.json", traced)
        metrics = layer_metrics(traced, untraced, scale)
        units = PER_LAYER
        samples = f"n={len(traced)} traced passes"
    else:
        scored = [statistics.mean(p.psnr) for p in untraced if p.psnr]
        metrics = {
            "wall_s": scale * statistics.median(p.wall for p in untraced),
            "cpu_s": scale * statistics.median(p.cpu for p in untraced),
            "setup_s": scale * statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "color_psnr_db": statistics.median(scored) if scored else 0.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
        samples = f"n={len(untraced)} passes"
    for name, value in metrics.items():
        note = NOTES.get(name, f"median of {samples}, at nominal host speed" if units[name] == "s" else "exact count, one traced pass")
        print(f"{name:40s} {value:>16.6g} {units[name]:14s} {note}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
