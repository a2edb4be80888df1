"""A generated fuzz of the public API: every name in `cloudcolor.__all__`,
and `InterpolatorKind.parse`, called with valid arguments in which one
argument, passed by position or by keyword, is replaced by a junk value,
returns a result or raises a `CloudColorError`, never another exception.

`ROWS` holds the valid arguments of each name, and a public name without a
row fails `test_every_public_name_has_a_row`, so the surface stays covered
as it grows.  The hand rows of `test_settings.py` and `test_arrays.py` pin
the messages; this file pins only the error class.  Every call runs in
this process, on inputs small enough to keep the whole file under a
second.
"""
import itertools
import math

import numpy as np
import pytest

import cloudcolor
from cloudcolor import parallel
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.core import Block, ColorPointCloud, partition_into_blocks
from cloudcolor.errors import CloudColorError
from cloudcolor.evaluation import ExperimentReport, ExperimentSpec, random_downsample, sphere_cloud
from cloudcolor.fsmmr import FsmmrConfig, ScatteredSamples, SparseModel
from cloudcolor.pipeline import UpsampleConfig, upsample_cloud
from cloudcolor.ply_io import PlyFormat, write_ply

CLOUD = sphere_cloud(24, seed=1)
MIXED = random_downsample(CLOUD, 0.5, 1)
FSMMR = FsmmrConfig(model_size=4, max_iterations=5)
CONFIG = UpsampleConfig(fsmmr=FSMMR)
SPEC = ExperimentSpec(methods=(InterpolatorKind.NN3, InterpolatorKind.FSMMR), densities=(0.5,), runs=1, upsample=CONFIG)
FLAT = [(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]
COLORS = [(10, 20, 30), (40, 50, 60), (70, 80, 90)]

# the valid arguments of each public name, in signature order: the fuzz passes a leading run
# of them by position and the rest by keyword
ROWS = {
    "Block": (Block, dict(cell_index=(0, 0, 0), point_ids=np.arange(3))),
    "ColorPointCloud": (ColorPointCloud, dict(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (3.0, 0.0, 0.0)],
                                              colors=COLORS, original=[True, False, True], colored=[True, False, True])),
    "partition_into_blocks": (partition_into_blocks, dict(cloud=MIXED, block_size=4.0)),
    "PlyFormat": (PlyFormat, dict(value="ascii")),
    "read_ply": (cloudcolor.read_ply, dict(data=write_ply(MIXED, include_roles=True))),
    "write_ply": (write_ply, dict(cloud=CLOUD, fmt=PlyFormat.ASCII, include_roles=False)),
    "build_mst": (cloudcolor.build_mst, dict(points=CLOUD.positions[:6], root=1)),
    "flatten_block": (cloudcolor.flatten_block, dict(block=partition_into_blocks(MIXED, 4.0)[0], cloud=MIXED, root_seed=1)),
    "FsmmrConfig": (FsmmrConfig, dict(model_size=4, sigma=0.8, rho=0.7, gamma=0.5, max_iterations=5, energy_threshold=0.0)),
    "ScatteredSamples": (ScatteredSamples, dict(coords=FLAT, values=[10.0, 20.0, 30.0], weights=[1.0, 0.5, 0.25])),
    "SparseModel": (SparseModel, dict(terms=((0, 0, 1.0), (1, 0, 0.5)), size=4, iterations_run=2, final_energy=0.0,
                                      energy_history=(1.0, 0.0), selection_history=((0, 0), (1, 0)))),
    "generate_model": (cloudcolor.generate_model, dict(samples=ScatteredSamples(FLAT, [10.0, 20.0, 30.0], [1.0, 0.5, 0.25]),
                                                       config=FSMMR)),
    "evaluate_model": (cloudcolor.evaluate_model, dict(model=SparseModel(((0, 0, 1.0),), 4, 1, 0.0), queries=[(0.5, 2.5)])),
    "upsample_block": (cloudcolor.upsample_block, dict(positions=FLAT, colors=COLORS, queries=[(2.0, 2.0)], config=FSMMR)),
    "InterpolatorKind": (InterpolatorKind, dict(value="nn3")),
    "InterpolatorKind.parse": (InterpolatorKind.parse, dict(name="NN3")),
    "UpsampleConfig": (UpsampleConfig, dict(block_size=4.0, root_seed=1, idw_power=2.0, fsmmr=FSMMR)),
    "upsample_cloud": (upsample_cloud, dict(cloud=MIXED, method=InterpolatorKind.FSMMR, config=CONFIG)),
    "upsample_clouds": (cloudcolor.upsample_clouds, dict(clouds=[MIXED], methods=[InterpolatorKind.FSMMR, InterpolatorKind.NN3],
                                                         config=CONFIG)),
    "ExperimentSpec": (ExperimentSpec, dict(methods=(InterpolatorKind.NN3,), densities=(0.5,), runs=1, base_seed=0,
                                            upsample=CONFIG, measure_time=False)),
    "ExperimentReport": (ExperimentReport, dict(records=[], aggregates={})),
    "random_downsample": (random_downsample, dict(cloud=CLOUD, density=0.5, seed=1)),
    "reconstruction_color_psnr": (cloudcolor.reconstruction_color_psnr,
                                  dict(original=CLOUD, upsampled=upsample_cloud(MIXED, InterpolatorKind.NN3))),
    "run_experiment": (cloudcolor.run_experiment, dict(cloud=CLOUD, spec=SPEC)),
}

# A value lookup of an Enum class is Python's Enum protocol, not a cloudcolor entry point: an
# unknown value raises ValueError, and an ndarray value fails inside Enum's own member search,
# before any `_missing_` hook could act.  These classes are fuzzed through `InterpolatorKind.parse`
# and the `fmt` and `method` arguments that take their members.
ENUM_LOOKUPS = {"PlyFormat", "InterpolatorKind"}

# every value replaces every argument, not a random draw of them: the whole table is about
# 9,000 calls, which run in under a second, and a draw can miss the one value that fails
JUNK = [
    None, "", "abc", "nn3", b"", b"ply\n", True, False, -1, 0, 10 ** 400, 2 ** 64, math.nan, math.inf, -math.inf, 1j,
    object(), [], [[]], [[1.0, 2.0], [3.0]], {}, np.full((3, 3), np.nan), np.array([["a", "b", "c"]]), np.empty((0, 3)),
    np.zeros((2, 3, 3)),
]


@pytest.fixture
def one_process(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)


def call(name, arguments, positional):
    """The row's function on `arguments`, the first `positional` of them by position."""
    function, _ = ROWS[name]
    items = list(arguments.items())
    return function(*[value for _, value in items[:positional]], **dict(items[positional:]))


def test_every_public_name_has_a_row():
    assert sorted(ROWS) == sorted([*cloudcolor.__all__, "InterpolatorKind.parse"])


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_row_is_valid(name, one_process):
    _, arguments = ROWS[name]
    for positional in (0, len(arguments)):
        call(name, arguments, positional)


@pytest.mark.parametrize("name", sorted(set(ROWS) - ENUM_LOOKUPS))
def test_one_junk_argument_gives_a_result_or_a_cloudcolor_error(name, one_process):
    _, arguments = ROWS[name]
    for replaced, junk, positional in itertools.product(arguments, JUNK, range(len(arguments) + 1)):
        try:
            call(name, {**arguments, replaced: junk}, positional)
        except CloudColorError:
            pass
        except Exception as error:
            pytest.fail(f"{name} with {replaced}={junk!r}, {positional} by position: {type(error).__name__}: {error}")
