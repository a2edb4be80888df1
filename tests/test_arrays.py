"""Every array a caller passes follows one rule, `core.as_rows`: it reads as
an (n, d) float64 array, an empty input as (0, d), and any other shape or a
value that is not finite raises InvalidConfig naming the argument.  Its
one-column twin `core.as_values` reads (n,) values the same way.  A
kernel's colors are (n, 3), one row per position; its queries have the
positions' width.  Whatever arrays a kernel gets, it returns a well-formed
result or raises a `CloudColorError`, never another exception.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudcolor.baselines import interpolate_idw, interpolate_lin2, interpolate_nn3
from cloudcolor.core import ColorPointCloud, as_rows, nearest_original_color
from cloudcolor.errors import CloudColorError, EmptySamples, InvalidConfig
from cloudcolor.evaluation import psnr_channel
from cloudcolor.fsmmr import FsmmrConfig, ScatteredSamples, SparseModel, evaluate_model, normalize_to_window, upsample_block
from cloudcolor.surface_transform import build_mst

RNG = np.random.default_rng(5)
P2, P3 = RNG.uniform(0, 4, size=(6, 2)), RNG.uniform(0, 4, size=(6, 3))
Q2, Q3 = RNG.uniform(1, 3, size=(4, 2)), RNG.uniform(1, 3, size=(4, 3))
C6, C4 = RNG.integers(0, 256, size=(6, 3)), RNG.integers(0, 256, size=(4, 3))
NAN_Q2, NAN_Q3 = np.vstack([Q2, [math.nan] * 2]), np.vstack([Q3, [math.nan] * 3])
MODEL = SparseModel(((0, 0, 1.0), (1, 2, -0.5)), 4, 2, 0.0)

BAD_ARRAYS = {
    # each of these used to re-cut the array, return a result or end in a traceback
    "interpolate_idw queries wider than its positions": (lambda: interpolate_idw(P2, C6, Q3), "queries"),
    "upsample_block 3D positions": (lambda: upsample_block(P3, C6, Q3), "positions"),
    "normalize_to_window 3D coords": (lambda: normalize_to_window(P3, 16), "coords"),
    "evaluate_model 3D queries": (lambda: evaluate_model(MODEL, Q3), "queries"),
    "build_mst three 2D points": (lambda: build_mst(P2[:3]), "points"),
    "build_mst four 2D points": (lambda: build_mst(P2[:4]), "points"),
    "interpolate_nn3 colors of width 2": (lambda: interpolate_nn3(P3, C6[:, :2], Q3), "colors"),
    "interpolate_lin2 4 colors for 6 positions": (lambda: interpolate_lin2(P2, C4, Q2), "colors"),
    "interpolate_lin2 3D positions": (lambda: interpolate_lin2(P3, C6, Q2), "positions"),
    "interpolate_idw 4 colors for 6 positions": (lambda: interpolate_idw(P3, C4, Q3), "colors"),
    "interpolate_nn3 NaN query": (lambda: interpolate_nn3(P3, C6, NAN_Q3), "queries"),
    # a ragged list of flags used to end in ValueError
    "ColorPointCloud ragged original": (lambda: ColorPointCloud(P3, C6, original=[[True], []]), "original and colored"),
    "ColorPointCloud ragged colored": (lambda: ColorPointCloud(P3, C6, colored=[[True, False], [True]]), "original and colored"),
    "interpolate_idw NaN query": (lambda: interpolate_idw(P3, C6, NAN_Q3), "queries"),
    "upsample_block NaN query": (lambda: upsample_block(P2, C6, NAN_Q2), "queries"),
    "evaluate_model NaN query": (lambda: evaluate_model(MODEL, NAN_Q2), "queries"),
    "build_mst NaN point": (lambda: build_mst(NAN_Q3[2:]), "points"),
    "ScatteredSamples values str": (lambda: ScatteredSamples([[0, 0]], "abc", [1.0]), "values"),
    "ScatteredSamples values (2, 2)": (lambda: ScatteredSamples(P2[:4], [[1, 2], [3, 4]], [1.0] * 4), "values"),
    "ScatteredSamples weights (1, 1)": (lambda: ScatteredSamples([[0, 0]], [1.0], [[1.0]]), "weights"),
    "psnr_channel strings": (lambda: psnr_channel(["a"], ["b"]), "reference"),
    "psnr_channel scalars": (lambda: psnr_channel(5, 5), "reference"),
    "psnr_channel NaN": (lambda: psnr_channel([math.nan], [1]), "reference"),
}


@pytest.mark.parametrize("call, name", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
def test_bad_array_is_invalid_config_naming_it(call, name):
    with pytest.raises(InvalidConfig, match=f"^{name} "):
        call()


class TestAsRows:
    @pytest.mark.parametrize("empty", [[], np.empty((0, 5)), np.empty((4, 0)), np.empty((2, 0, 3))])
    def test_any_empty_input_reads_as_no_rows(self, empty):
        rows = as_rows(empty, "queries", 2)
        assert rows.shape == (0, 2) and rows.dtype == np.float64

    def test_reads_the_arrays_own_width_by_default(self):
        assert as_rows(np.empty((0, 4)), "positions").shape == (0, 4)
        assert as_rows([(1, 2, 3, 4)], "positions").tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_a_float64_table_reads_as_itself(self):
        assert as_rows(P3, "positions", 3) is P3

    @pytest.mark.parametrize("values", [5.0, [1.0, 2.0], [[[1.0, 2.0]]], [(1, 2), (3,)], "abc", [10 ** 400, 0], [None, 1]])
    def test_rejects_other_shapes_and_values(self, values):
        with pytest.raises(InvalidConfig, match="^positions "):
            as_rows(values, "positions", 2)

    def test_a_cloud_reads_its_arrays_by_the_rule(self):
        with pytest.raises(InvalidConfig, match="^positions must be finite"):
            ColorPointCloud([(0, 0, math.inf)], [(1, 2, 3)])
        with pytest.raises(InvalidConfig, match="^colors must have shape"):
            ColorPointCloud([(0, 0, 0)], [(1, 2, 3, 4)])
        with pytest.raises(InvalidConfig, match="^queries must have shape"):
            nearest_original_color(ColorPointCloud(P3, C6), Q2)

    def test_empty_positions_keep_their_errors(self):
        for kernel in (interpolate_nn3, interpolate_idw):
            with pytest.raises(EmptySamples):
                kernel([], [], Q3)
        with pytest.raises(EmptySamples):
            upsample_block(np.empty((0, 2)), [], Q2)
        inside, colors = interpolate_lin2([], [], Q2)
        assert inside.tolist() == [False] * 4 and colors.shape == (0, 3)


# --- fuzz -------------------------------------------------------------------

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
NUMBERS = st.floats(-8, 8) | st.integers(0, 300) | st.sampled_from([math.nan, math.inf, -math.inf])
SMALL = FsmmrConfig(model_size=4, max_iterations=5)


@st.composite
def arrays(draw, *shape, extremes=()):
    """Mostly an array of `shape`, else one of any ndim 0 to 3 with sides 0
    to 4; its entries now and then NaN or inf, or one of `extremes`."""
    shape = shape if draw(st.integers(0, 3)) else tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    finite = draw(st.booleans()) or draw(st.booleans())  # three arrays in four
    entries = st.floats(-8, 8) | st.integers(0, 300) if finite else NUMBERS
    if extremes:
        entries |= st.sampled_from(extremes)
    return np.array(draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape))), dtype=float).reshape(shape)


@st.composite
def kernel_inputs(draw):
    """Positions, colors (now and then ±1e300, far outside 8 bits) and queries."""
    n, k, d = draw(st.integers(0, 6)), draw(st.integers(0, 4)), draw(st.integers(2, 3))
    return draw(arrays(n, d)), draw(arrays(n, 3, extremes=[1e300, -1e300])), draw(arrays(k, d))


def query_count(queries):
    """The number of queries in an array that was read without an error."""
    return len(queries) if queries.size else 0


def check_colors(colors, k):
    assert colors.dtype == np.uint8 and colors.shape == (k, 3)


def well_formed_or_domain_error(call, *args):
    """`call(*args)`, or None when it raises a CloudColorError; the same
    values as nested lists must give the same result."""
    try:
        result = call(*args)
    except CloudColorError:
        with pytest.raises(CloudColorError):
            call(*(a.tolist() for a in args))
        return None
    again = call(*(a.tolist() for a in args))
    for got, expected in zip(*(r if isinstance(r, tuple) else (r,) for r in (result, again))):
        np.testing.assert_array_equal(got, expected)
    return result


@FUZZ
@given(inputs=kernel_inputs())
def test_point_kernels(inputs):
    for kernel in (interpolate_nn3, interpolate_idw):
        colors = well_formed_or_domain_error(kernel, *inputs)
        if colors is not None:
            check_colors(colors, query_count(inputs[2]))


@FUZZ
@given(inputs=kernel_inputs())
def test_flat_kernels(inputs):
    colors = well_formed_or_domain_error(lambda *a: upsample_block(*a, SMALL), *inputs)
    if colors is not None:
        check_colors(colors, query_count(inputs[2]))
    result = well_formed_or_domain_error(interpolate_lin2, *inputs)
    if result is not None:
        inside, colors = result
        assert inside.shape == (query_count(inputs[2]),) and inside.dtype == bool
        check_colors(colors, int(inside.sum()))


@FUZZ
@given(points=st.integers(0, 6).flatmap(lambda n: arrays(n, 3)))
def test_build_mst(points):
    pairs = well_formed_or_domain_error(build_mst, points)
    if pairs is not None:
        assert sorted(child for _, child in pairs) == list(range(1, len(points)))


@FUZZ
@given(coords=st.integers(0, 6).flatmap(lambda n: arrays(n, 2)))
def test_window_maps(coords):
    window = well_formed_or_domain_error(lambda c: normalize_to_window(c, 4), coords)
    if window is not None:
        assert window.shape == (len(coords), 2) and np.isfinite(window).all()
    values = well_formed_or_domain_error(lambda c: evaluate_model(MODEL, c), coords)
    if values is not None:
        assert values.shape == (query_count(coords),) and np.isfinite(values).all()


@FUZZ
@given(n=st.integers(0, 6), data=st.data())
def test_scattered_samples(n, data):
    coords, values, weights = data.draw(arrays(n, 2)), data.draw(arrays(n)), data.draw(arrays(n))

    def fields(*arrays):
        samples = ScatteredSamples(*arrays)
        return samples.coords, samples.values, samples.weights

    result = well_formed_or_domain_error(fields, coords, values, weights)
    if result is not None:
        coords, values, weights = result
        assert coords.shape == (len(values), 2) and weights.shape == values.shape == (len(values),)
