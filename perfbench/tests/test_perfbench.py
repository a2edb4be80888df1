"""Tests of the benchmark itself: seeded inputs, output checks and tracing.

    python3 -m pytest -q perfbench/tests

The module fixture runs every workload once untraced and once traced at
the reference seed, which takes about a minute on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Job  # noqa: E402


def _inputs(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    WORKLOADS[workload].make_jobs(seed, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "first")
    again = _inputs(workload, 7, tmp_path / "again")
    other = _inputs(workload, 8, tmp_path / "other")
    assert first and first == again
    assert all(first[name] != other[name] for name in first)


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def passes(cli, tmp_path_factory):
    """workload -> (jobs, untraced pass, traced pass) at the reference seed."""
    reference = json.loads(run.REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    out = {}
    for name, workload in WORKLOADS.items():
        jobs = workload.make_jobs(reference["seed"], tmp_path_factory.mktemp(name))
        expected = dict(reference["digests"][name])
        out[name] = (jobs, run.run_pass(cli, jobs, expected), run.run_pass(cli, jobs, expected, Tracer()))
    return out


def test_reference_seed_passes_every_check(passes):
    for name, (jobs, untraced, traced) in passes.items():
        assert (untraced.failed, traced.failed) == (0, 0), name
        assert len(untraced.psnr) == len(jobs), name


def test_traced_and_untraced_outputs_are_byte_identical(passes):
    for name, (jobs, untraced, traced) in passes.items():
        assert untraced.digests == traced.digests, name
        assert set(untraced.digests) == {job.name for job in jobs}, name


def test_every_traced_function_has_a_span_and_is_restored(passes):
    seen = {span[0] for _, _, traced in passes.values() for span in traced.tracer.spans}
    assert seen == {f"{layer}.{fn}" for layer, names in LAYERS.items() for fn in names}
    for layer, names in LAYERS.items():
        for fn in names:
            assert getattr(sys.modules[f"cloudcolor.{layer}"], fn).__name__ == fn


def test_evaluation_spans_only_on_eval_sweep(passes):
    for name, (_, _, traced) in passes.items():
        has_evaluation = any(span[0].startswith("evaluation.") for span in traced.tracer.spans)
        assert has_evaluation == (name == "eval-sweep"), name


def test_self_times_add_up_to_the_root_spans(passes):
    for name, (_, _, traced) in passes.items():
        roots = sum(end - start for _, start, end, parent, _ in traced.tracer.spans if parent < 0)
        assert sum(traced.tracer.self_times().values()) == pytest.approx(roots, rel=1e-9), name


def test_a_broken_output_fails_its_check(passes):
    jobs, _, _ = passes["mst-large-blocks"]
    job = jobs[0]
    good = job.output.read_bytes()
    job.check(good)
    body = good.index(b"end_header\n") + len(b"end_header\n")
    recolored = bytearray(good)
    recolored[body + 12::15] = bytes(255 - b for b in good[body + 12::15])  # every point's red
    for broken in (bytes(recolored), good[:-1]):
        with pytest.raises(CheckFailed):
            job.check(broken)


def test_failing_jobs_are_counted_not_raised(cli, passes, tmp_path):
    jobs, _, _ = passes["scan-fill"]
    wrong_digest = run.run_pass(cli, jobs, {jobs[0].name: "0" * 64})
    missing = Job("missing", ("upsample", str(tmp_path / "absent.ply"), str(tmp_path / "out.ply")),
                  tmp_path / "out.ply", jobs[0].check)
    exit_code = run.run_pass(cli, [missing], {})
    assert (wrong_digest.failed, exit_code.failed) == (1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "scan-fill", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
