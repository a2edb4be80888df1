"""Spans and counts around the public functions of each cloudcolor module.

`Tracer` replaces every reference to a traced function in the loaded
`cloudcolor` modules (each import site, e.g. `fsmmr.flatten_block` and
`pipeline.flatten_block`) with a wrapper that records a span and the
work counts its arguments or result give, and puts the originals back on
exit. Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module (= layer) -> public functions traced in it
LAYERS = {
    "ply_io": ("read_ply", "write_ply"),
    "core": ("partition_into_blocks",),
    "surface_transform": ("build_mst", "flatten_block"),
    "fsmmr": ("generate_model", "evaluate_model", "upsample_block", "nearest_original_color"),
    "baselines": ("interpolate_nn3", "interpolate_idw", "interpolate_lin2"),
    "pipeline": ("upsample_cloud",),
    "evaluation": ("random_downsample", "reconstruction_color_psnr", "run_experiment"),
    "cli": ("main",),
}


def _count_read(c, args, result):
    c["ply_io.bytes_in"] += len(args[0])


def _count_write(c, args, result):
    c["ply_io.bytes_out"] += len(result)


def _count_partition(c, args, result):
    sizes = [len(b.point_ids) for b in result]
    c["core.blocks"] += len(sizes)
    c["core.block_pts_sum"] += sum(sizes)
    c["core.block_pts_max"] = max([c["core.block_pts_max"], *sizes])


def _count_mst(c, args, result):
    n = len(args[0])
    c["surface_transform.build_mst.calls"] += 1
    c["surface_transform.mst_edge_candidates"] += n * (n - 1) // 2


def _count_fit(c, args, result):
    c["fsmmr.models"] += 1
    c["fsmmr.iterations"] += result.iterations_run
    c["fsmmr.iteration_cap"] += args[1].max_iterations


def _count_nearest(c, args, result):
    c["fsmmr.nearest_original_color.calls"] += 1


def _count_interpolation(c, args, result):
    queries, originals = len(args[2]), len(args[0])
    c["baselines.queries"] += queries
    c["baselines.distance_evals"] += queries * originals


def _count_lin2(c, args, result):
    _count_interpolation(c, args, result)
    c["baselines.lin2_holes"] += sum(color is None for color in result)


def _count_upsample_cloud(c, args, result):
    c["pipeline.upsample_cloud.calls"] += 1


COUNTERS = {
    "ply_io.read_ply": _count_read,
    "ply_io.write_ply": _count_write,
    "core.partition_into_blocks": _count_partition,
    "surface_transform.build_mst": _count_mst,
    "fsmmr.generate_model": _count_fit,
    "fsmmr.nearest_original_color": _count_nearest,
    "baselines.interpolate_nn3": _count_interpolation,
    "baselines.interpolate_idw": _count_interpolation,
    "baselines.interpolate_lin2": _count_lin2,
    "pipeline.upsample_cloud": _count_upsample_cloud,
}


class Tracer:
    """Context manager; `spans` holds `[name, start, end, parent, job]`
    lists, `parent` being an index into `spans` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"cloudcolor.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cloudcolor" and not mod_name.startswith("cloudcolor."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)
