"""Every number a caller passes follows one rule: an int setting takes an int
or a numpy integer, a real setting takes any real number, and anything
else (a bool, a string, None, an int too large for a float) raises
InvalidConfig naming the setting.  Nested settings must be of their class,
list settings a tuple or a list, a flag a bool or a numpy bool and a PLY
format a PlyFormat.  The value is stored converted, so equal numbers give
equal output bytes.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudcolor.baselines import InterpolatorKind, interpolate_idw
from cloudcolor.core import partition_into_blocks
from cloudcolor.errors import InvalidConfig
from cloudcolor.evaluation import ExperimentSpec, random_downsample, sphere_cloud
from cloudcolor.fsmmr import FsmmrConfig, SparseModel, normalize_to_window, query_table
from cloudcolor.pipeline import UpsampleConfig, upsample_cloud
from cloudcolor.ply_io import write_ply
from cloudcolor.surface_transform import build_mst, flatten_block

CLOUD = sphere_cloud(40, radius=2.0, seed=3)
POINTS = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (3.0, 0.0, 0.0)]
COLORS = [(10, 20, 30), (40, 50, 60), (70, 80, 90)]
WINDOW_POINTS = [(0.0, 0.0), (1.0, 2.0)]

BAD_SETTINGS = {
    "block_size str": (lambda: UpsampleConfig(block_size="4"), "block_size"),
    "block_size bool": (lambda: UpsampleConfig(block_size=True), "block_size"),
    "block_size huge": (lambda: UpsampleConfig(block_size=10 ** 400), "block_size"),
    "idw_power bool": (lambda: UpsampleConfig(idw_power=True), "idw power"),
    "fsmmr None": (lambda: UpsampleConfig(fsmmr=None), "fsmmr"),
    "fsmmr of another class": (lambda: UpsampleConfig(fsmmr=UpsampleConfig()), "fsmmr"),
    "sigma str": (lambda: FsmmrConfig(sigma="0.5"), "sigma"),
    "rho None": (lambda: FsmmrConfig(rho=None), "rho"),
    "gamma huge": (lambda: FsmmrConfig(gamma=Fraction(10 ** 400, 3)), "gamma"),
    "energy_threshold bool": (lambda: FsmmrConfig(energy_threshold=False), "energy_threshold"),
    "densities scalar": (lambda: ExperimentSpec(densities=0.5), "densities"),
    "methods scalar": (lambda: ExperimentSpec(methods=InterpolatorKind.NN3), "methods"),
    "upsample None": (lambda: ExperimentSpec(upsample=None), "upsample"),
    "upsample of another class": (lambda: ExperimentSpec(upsample=FsmmrConfig()), "upsample"),
    "build_mst root bool": (lambda: build_mst(POINTS, root=True), "MST root"),
    "flatten_block root_seed bool": (
        lambda: flatten_block(partition_into_blocks(CLOUD, 4.0)[0], CLOUD, root_seed=True), "root_seed"),
    "random_downsample density str": (lambda: random_downsample(CLOUD, "0.5", 1), "density"),
    **{f"random_downsample seed {seed!r}": ((lambda seed=seed: random_downsample(CLOUD, 0.5, seed)), "seed")
       for seed in (None, True, "1", 1.5, -1, 2 ** 64)},
    # more than 4,300 digits: Python refuses to print the value in the message
    "model_size too long to print": (lambda: FsmmrConfig(model_size=10 ** 5000), "model_size"),
    "max_iterations too long to print": (lambda: FsmmrConfig(max_iterations=Fraction(10 ** 5000)), "max_iterations"),
    "partition block_size str": (lambda: partition_into_blocks(CLOUD, "4"), "block_size"),
    "interpolate_idw power str": (lambda: interpolate_idw(POINTS, COLORS, POINTS, power="2"), "idw power"),
    # a truthy string used to switch timing on and the role column
    "measure_time str": (lambda: ExperimentSpec(measure_time="no"), "measure_time"),
    "measure_time int": (lambda: ExperimentSpec(measure_time=1), "measure_time"),
    "write_ply include_roles str": (lambda: write_ply(CLOUD, include_roles="no"), "include_roles"),
    # a format's name or None used to end in AttributeError
    "write_ply fmt str": (lambda: write_ply(CLOUD, "ascii"), "fmt"),
    "write_ply fmt None": (lambda: write_ply(CLOUD, None), "fmt"),
    # a float frequency used to end in IndexError in evaluate_model, a string number was kept
    "SparseModel term frequency float": (lambda: SparseModel(((0.5, 0, 1.0),), 4, 1, 0.0), "terms"),
    "SparseModel coefficient str": (lambda: SparseModel(((0, 0, "x"),), 4, 1, 0.0), "terms"),
    "SparseModel coefficient inf": (lambda: SparseModel(((0, 0, math.inf),), 4, 1, 0.0), "terms"),
    "SparseModel term pair": (lambda: SparseModel(((0, 0),), 4, 1, 0.0), "terms"),
    "SparseModel size str": (lambda: SparseModel(((0, 0, 1.0),), "4", 1, 0.0), "size"),
    "SparseModel size 0": (lambda: SparseModel((), 0, 0, 0.0), "size"),
    # a fraction used to build a table of its ceiling's rows or a window of [0, 1.5], 0 an empty table,
    # True a window of 0 and a string a TypeError
    "query_table size 2.5": (lambda: query_table(WINDOW_POINTS, 2.5), "size"),
    "query_table size 0": (lambda: query_table(WINDOW_POINTS, 0), "size"),
    "query_table size str": (lambda: query_table(WINDOW_POINTS, "4"), "size"),
    "normalize_to_window size 2.5": (lambda: normalize_to_window(WINDOW_POINTS, 2.5), "size"),
    "normalize_to_window size bool": (lambda: normalize_to_window(WINDOW_POINTS, True), "size"),
    # a window whose M^2 candidates numpy cannot hold as 8-byte values
    "model_size 2**30": (lambda: FsmmrConfig(model_size=2 ** 30, rho=1 - 2 ** -53), "model_size"),
    "normalize_to_window size 10**400": (lambda: normalize_to_window(WINDOW_POINTS, 10 ** 400), "size"),
    "query_table size 10**400": (lambda: query_table(WINDOW_POINTS, 10 ** 400), "size"),
    "SparseModel size 2**70": (lambda: SparseModel((), 2 ** 70, 0, 0.0), "size"),
    # outside random_downsample's seed range, derive_seed would fold -1 onto 2**64 - 1
    **{f"ExperimentSpec base_seed {seed!r}": ((lambda seed=seed: ExperimentSpec(base_seed=seed)), "base_seed")
       for seed in (-1, 2 ** 64)},
}


@pytest.mark.parametrize("build, name", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_bad_setting_is_invalid_config_naming_it(build, name):
    with pytest.raises(InvalidConfig, match=f"^{name} "):
        build()


INTEGER_REALS = [4, np.int64(4), np.uint8(4), np.float16(4), np.float32(4), np.longdouble(4), Fraction(4)]
FRACTION_REALS = [np.float16(0.5), np.float32(0.5), np.longdouble(0.5), Fraction(1, 2)]
REAL_FIELDS = [
    *[(UpsampleConfig, name, value) for name in ("block_size", "idw_power") for value in INTEGER_REALS],
    *[(FsmmrConfig, "energy_threshold", value) for value in INTEGER_REALS],
    *[(FsmmrConfig, name, value) for name in ("sigma", "rho", "gamma") for value in FRACTION_REALS],
]


@pytest.mark.parametrize("config, name, value", REAL_FIELDS)
def test_real_setting_is_stored_as_a_float(config, name, value):
    stored = getattr(config(**{name: value}), name)
    assert type(stored) is float and stored == value


@pytest.mark.parametrize("value", [True, np.bool_(True), False, np.bool_(False)])
def test_flag_is_stored_as_a_bool(value):
    stored = ExperimentSpec(measure_time=value).measure_time
    assert type(stored) is bool and stored == value
    assert write_ply(CLOUD, include_roles=value) == write_ply(CLOUD, include_roles=bool(value))


@pytest.fixture(scope="module")
def mixed_sphere():
    return random_downsample(sphere_cloud(400, seed=1), 0.5, seed=2)


@pytest.mark.parametrize("block_size", [4, np.int64(4), np.float32(4), Fraction(4)])
def test_equal_numbers_give_equal_bytes(mixed_sphere, block_size):
    def upsampled(size):
        return write_ply(upsample_cloud(mixed_sphere, InterpolatorKind.FSMMR, UpsampleConfig(block_size=size)))

    assert upsampled(block_size) == upsampled(4.0)


# any value a caller might pass for any field, good or bad
VALUES = st.one_of(
    st.integers(), st.integers(-3, 40), st.floats(allow_nan=True, allow_infinity=True), st.floats(0, 1),
    st.booleans(), st.fractions(), st.text(max_size=3), st.none(),
    st.sampled_from([10 ** 400, -10 ** 400, Fraction(10 ** 400, 7), np.bool_(True), np.longdouble("1e4000"),
                     math.nan, FsmmrConfig(), UpsampleConfig(), ExperimentSpec(), InterpolatorKind.FSMMR]),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32), st.floats(width=16).map(np.float16), st.floats().map(np.float64),
)
LISTS = st.one_of(VALUES, st.lists(VALUES, max_size=4), st.lists(VALUES, max_size=4).map(tuple))
FSMMR_FIELDS = st.fixed_dictionaries({}, optional={
    name: VALUES for name in ("model_size", "sigma", "rho", "gamma", "max_iterations", "energy_threshold")})
UPSAMPLE_FIELDS = st.fixed_dictionaries({}, optional={
    name: VALUES for name in ("block_size", "root_seed", "idw_power", "fsmmr")})
SPEC_FIELDS = st.fixed_dictionaries({}, optional={
    "methods": st.one_of(LISTS, st.lists(st.sampled_from(InterpolatorKind), max_size=6)),
    "densities": LISTS, "runs": VALUES, "base_seed": VALUES, "upsample": VALUES, "measure_time": VALUES,
})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    st.tuples(st.just(FsmmrConfig), FSMMR_FIELDS),
    st.tuples(st.just(UpsampleConfig), UPSAMPLE_FIELDS),
    st.tuples(st.just(ExperimentSpec), SPEC_FIELDS),
))
def test_any_settings_build_or_raise_invalid_config(drawn):
    config, fields = drawn
    try:
        built = config(**fields)
    except InvalidConfig:
        return
    assert isinstance(built, config)
