import numpy as np
import pytest

from cloudcolor import baselines, core
from cloudcolor.baselines import (
    InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3,
)
from cloudcolor.errors import EmptySamples, InvalidConfig, InvalidInput

from oracles import idw_oracle, lin2_oracle


def rows(*colors):
    """Expected kernel output: color tuples as a (k, 3) uint8 array."""
    return np.array(colors, dtype=np.uint8).reshape(-1, 3)


def assert_rows(got, expected):
    assert got.dtype == np.uint8 and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


def unrounded(monkeypatch):
    """Make the kernels return their float blends instead of uint8 colors.

    A sum taken in another order moves a blend by an ulp or so, which
    rarely changes its rounded color, so the oracle tests compare both."""
    monkeypatch.setattr(baselines, "round_color_channel", lambda v: np.asarray(v, dtype=float))


def assert_idw_matches_oracle(positions, colors, queries, monkeypatch, power=2.0):
    got = interpolate_idw(positions, colors, queries, power=power)
    assert_rows(got, rows(*idw_oracle(positions, colors, queries, power)))
    with monkeypatch.context() as patch:
        unrounded(patch)
        blends = interpolate_idw(positions, colors, queries, power=power)
    expected = idw_oracle(positions, colors, queries, power, round_channel=float)
    np.testing.assert_array_equal(blends, np.array(expected, dtype=float).reshape(-1, 3))


def assert_lin2_matches_oracle(positions, colors, queries, monkeypatch):
    inside, got = interpolate_lin2(positions, colors, queries)
    expected = lin2_oracle(positions, colors, queries)
    np.testing.assert_array_equal(inside, [c is not None for c in expected])
    assert_rows(got, rows(*[c for c in expected if c is not None]))
    with monkeypatch.context() as patch:
        unrounded(patch)
        _, blends = interpolate_lin2(positions, colors, queries)
    expected = lin2_oracle(positions, colors, queries, round_channel=float)
    np.testing.assert_array_equal(blends, np.array([c for c in expected if c is not None]).reshape(-1, 3))
    return inside


def lattice(*sides):
    """Integer lattice points with the given number of points per axis."""
    axes = np.meshgrid(*[np.arange(s, dtype=float) for s in sides], indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


class TestKindParsing:
    def test_known_names(self):
        assert InterpolatorKind.parse("FSMMR") is InterpolatorKind.FSMMR
        assert InterpolatorKind.parse("lin2") is InterpolatorKind.LIN2_DELAUNAY

    def test_unknown_name(self):
        with pytest.raises(InvalidConfig):
            InterpolatorKind.parse("cubic")


class TestNn3:
    def test_single_original(self):
        colors = interpolate_nn3([[0, 0, 0]], [(255, 0, 0)], [[1, 1, 1], [9, 9, 9]])
        assert_rows(colors, rows((255, 0, 0), (255, 0, 0)))

    def test_tie_goes_to_lower_id(self):
        positions = [[0, 0, 5], [0, 0, 1], [0, 0, 0], [0, 0, 9], [0, 0, 7], [0, 0, 4]]
        colors = [(i, i, i) for i in range(6)]
        # query at z=2.5: ids 2 (d=2.5) and 1 (d=1.5)... make a true tie between ids 2 and 5
        got = interpolate_nn3(positions, colors, [[0, 0, 2]])
        assert_rows(got, rows((1, 1, 1)))
        got = interpolate_nn3(positions, colors, [[0, 0, 2.5]])  # tie between 1 (z=1) and 5 (z=4)
        assert_rows(got, rows((1, 1, 1)))

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 10, size=(20, 3))
        colors = [tuple(int(v) for v in c) for c in rng.integers(0, 256, size=(20, 3))]
        queries = rng.uniform(0, 10, size=(5, 3))
        got = interpolate_nn3(positions, colors, queries)
        for q, color in zip(queries, got.tolist()):
            dists = [float(np.linalg.norm(p - q)) for p in positions]
            assert tuple(color) == colors[dists.index(min(dists))]

    def test_empty(self):
        with pytest.raises(EmptySamples):
            interpolate_nn3(np.empty((0, 3)), [], [[0, 0, 0]])

    def test_overflowing_distances_are_invalid_input(self):
        # both squared distances overflow to inf, which would tie them and
        # hand the query the farther original's color
        with pytest.raises(InvalidInput, match="overflow"):
            interpolate_nn3([[1.1e200, 0, 0], [1e200, 0, 0]], [(1, 1, 1), (2, 2, 2)], [[0, 0, 0]])

    def test_one_overflowing_distance_is_harmless(self):
        colors = interpolate_nn3([[1.1e200, 0, 0], [1, 0, 0]], [(1, 1, 1), (2, 2, 2)], [[0, 0, 0]])
        assert_rows(colors, rows((2, 2, 2)))


class TestIdw:
    def test_coincident_query_returns_exact_color(self):
        got = interpolate_idw([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]], [(7, 8, 9), (0, 0, 0)], [[1.0, 2.0, 3.0]])
        assert_rows(got, rows((7, 8, 9)))

    def test_coincident_originals_lowest_id_wins(self):
        positions = [[4.0, 4.0, 4.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
        got = interpolate_idw(positions, [(0, 0, 0), (7, 8, 9), (50, 60, 70)], [[1.0, 2.0, 3.0]])
        assert_rows(got, rows((7, 8, 9)))

    def test_equidistant_average(self):
        got = interpolate_idw([[0.0, 0.0], [2.0, 0.0]], [(0, 0, 0), (200, 200, 200)], [[1.0, 0.0]])
        assert_rows(got, rows((100, 100, 100)))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 10, size=(10, 3))
        colors = rng.integers(0, 256, size=(10, 3))
        queries = rng.uniform(0, 10, size=(3, 3))
        got = interpolate_idw(positions, colors, queries, power=2.0)
        for q, color in zip(queries, got.tolist()):
            d = np.linalg.norm(positions - q, axis=1)
            w = d ** -2.0
            expected = w @ colors / w.sum()
            assert tuple(color) == tuple(int(np.floor(v + 0.5)) for v in expected)

    def test_output_within_channel_range(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 5, size=(15, 2))
        channel = rng.integers(40, 90, size=15)
        colors = [(int(v), int(v), int(v)) for v in channel]
        got = interpolate_idw(positions, colors, rng.uniform(0, 5, size=(20, 2)))
        assert channel.min() <= got[:, 0].min() and got[:, 0].max() <= channel.max()

    @pytest.mark.parametrize("power", [0.0, -2.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_power(self, power):
        with pytest.raises(InvalidConfig, match="idw power"):
            interpolate_idw([[0.0, 0.0]], [(1, 1, 1)], [[1.0, 1.0]], power=power)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_query_next_to_an_original_takes_its_color(self, dim):
        # d^2 = 1e-320 is subnormal, so d^-2 overflows to inf: the limit d -> 0
        positions = np.zeros((2, dim))
        positions[1, 0] = 1.0
        queries = np.zeros((1, dim))
        queries[0, 0] = 1e-160
        got = interpolate_idw(positions, [(10, 20, 30), (200, 100, 50)], queries)
        assert_rows(got, rows((10, 20, 30)))

    def test_huge_power_takes_the_nearest_color(self):
        positions = [[0.0, 0, 0], [0.3, 0, 0], [10.0, 0, 0], [13.0, 0, 0]]
        colors = [(10, 20, 30), (40, 50, 60), (70, 80, 90), (1, 2, 3)]
        # weights all overflow (first query) or all underflow (second)
        queries = [[0.2, 0, 0], [15.0, 0, 0]]
        got = interpolate_idw(positions, colors, queries, power=1000.0)
        assert_rows(got, rows((40, 50, 60), (1, 2, 3)))
        assert_rows(got, interpolate_nn3(positions, colors, queries))

    def test_overflowing_distances_are_invalid_input(self):
        with pytest.raises(InvalidInput, match="overflow"):
            interpolate_idw([[1.1e200, 0, 0], [1e200, 0, 0]], [(1, 1, 1), (2, 2, 2)], [[0, 0, 0]])

    def test_one_overflowing_distance_is_harmless(self):
        colors = interpolate_idw([[1.1e200, 0, 0], [1, 0, 0]], [(1, 1, 1), (2, 2, 2)], [[0, 0, 0]])
        assert_rows(colors, rows((2, 2, 2)))


class TestIdwMatchesSeedLoop:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("power", [1.0, 2.0, 3.5])
    def test_random_inputs(self, dim, seed, power, monkeypatch):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 10, size=(int(rng.integers(1, 60)), dim))
        colors = rng.integers(0, 256, size=(len(positions), 3))
        queries = rng.uniform(-2, 12, size=(int(rng.integers(0, 80)), dim))
        assert_idw_matches_oracle(positions, colors, queries, monkeypatch, power)

    @pytest.mark.parametrize("sides", [(5, 5), (3, 4, 3)])
    @pytest.mark.parametrize("chunk_values", [7, 1, core._NEAREST_CHUNK_VALUES])
    def test_lattice_hits_and_half_integer_blends(self, sides, chunk_values, monkeypatch):
        monkeypatch.setattr(core, "_NEAREST_CHUNK_VALUES", chunk_values)
        rng = np.random.default_rng(len(sides))
        positions = lattice(*sides)
        colors = rng.integers(0, 256, size=(len(positions), 3))
        # exact hits, equidistant half-integer points and random points
        queries = np.concatenate([
            positions[::2],
            positions[:-1] + 0.5,
            rng.uniform(0, max(sides), size=(20, len(sides))),
        ])
        assert_idw_matches_oracle(positions, colors, queries, monkeypatch)


class TestLin2:
    TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])

    def test_vertex_query(self):
        colors = [(10, 0, 0), (0, 90, 0), (0, 0, 210)]
        inside, got = interpolate_lin2(self.TRIANGLE, colors, [[0.0, 0.0]])
        np.testing.assert_array_equal(inside, [True])
        assert_rows(got, rows((10, 0, 0)))

    def test_centroid_equal_weights(self):
        colors = [(0, 0, 0), (90, 90, 90), (210, 210, 210)]
        inside, got = interpolate_lin2(self.TRIANGLE, colors, [self.TRIANGLE.mean(axis=0)])
        np.testing.assert_array_equal(inside, [True])
        assert_rows(got, rows((100, 100, 100)))

    def test_outside_hull_is_none(self):
        inside, got = interpolate_lin2(self.TRIANGLE, [(0, 0, 0)] * 3, [[10.0, 10.0]])
        np.testing.assert_array_equal(inside, [False])
        assert_rows(got, rows())

    def test_collinear_degenerate_all_none(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        inside, got = interpolate_lin2(positions, [(0, 0, 0)] * 3, [[0.5, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(inside, [False, False])
        assert_rows(got, rows())

    def test_reproduces_affine_field_at_interior_queries(self):
        rng = np.random.default_rng(13)
        positions = rng.uniform(0, 10, size=(30, 2))
        a, b, c = 3.0, -2.0, 120.0

        def field(p):
            return a * p[0] + b * p[1] + c

        # use exact (unrounded) channel values to avoid rounding noise
        exact = np.array([[field(p)] * 3 for p in positions])
        queries = rng.uniform(2, 8, size=(10, 2))
        inside, got = interpolate_lin2(positions, exact, queries)
        for q, color in zip(queries[inside], got.tolist()):
            assert abs(color[0] - field(q)) <= 0.5 + 1e-9


class TestLin2MatchesSeedLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_inputs(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 10, size=(int(rng.integers(3, 60)), 2))
        colors = rng.integers(0, 256, size=(len(positions), 3))
        queries = rng.uniform(-1, 11, size=(int(rng.integers(0, 120)), 2))
        assert_lin2_matches_oracle(positions, colors, queries, monkeypatch)

    def test_lattice_vertices_edges_and_outside(self, monkeypatch):
        rng = np.random.default_rng(1)
        positions = lattice(5, 4)
        colors = rng.integers(0, 256, size=(len(positions), 3))
        vertices = positions
        axis_edges = np.concatenate([positions + [0.5, 0.0], positions + [0.0, 0.5]])
        centers = positions + 0.5  # on a diagonal edge of each cell
        outside = np.array([[-1.0, 0.0], [4.5, 1.0], [2.0, 3.5], [5.0, 5.0]])
        queries = np.concatenate([vertices, axis_edges, centers, outside])
        inside = assert_lin2_matches_oracle(positions, colors, queries, monkeypatch)
        assert inside[:len(vertices)].all()
        assert not inside[-len(outside):].any()

    @pytest.mark.parametrize("positions", [[[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    def test_degenerate_originals(self, positions, monkeypatch):
        queries = [[0.5, 0.5], [3.0, 0.0]]
        inside = assert_lin2_matches_oracle(positions, [(1, 2, 3)] * len(positions), queries, monkeypatch)
        assert not inside.any()
