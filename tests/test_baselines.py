import numpy as np
import pytest

from cloudcolor.baselines import (
    InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3,
)
from cloudcolor.errors import EmptySamples, InvalidConfig, InvalidInput


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
        assert colors == [(255, 0, 0), (255, 0, 0)]

    def test_tie_goes_to_lower_id(self):
        positions = [[0, 0, 5], [0, 0, 1], [0, 0, 0], [0, 0, 9], [0, 0, 7], [0, 0, 4]]
        colors = [(i, i, i) for i in range(6)]
        # query at z=2.5: ids 2 (d=2.5) and 1 (d=1.5)... make a true tie between ids 2 and 5
        got = interpolate_nn3(positions, colors, [[0, 0, 2]])
        assert got == [(1, 1, 1)]
        got = interpolate_nn3(positions, colors, [[0, 0, 2.5]])  # tie between 1 (z=1) and 5 (z=4)
        assert got == [(1, 1, 1)]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 10, size=(20, 3))
        colors = [tuple(int(v) for v in c) for c in rng.integers(0, 256, size=(20, 3))]
        queries = rng.uniform(0, 10, size=(5, 3))
        got = interpolate_nn3(positions, colors, queries)
        for q, color in zip(queries, got):
            dists = [float(np.linalg.norm(p - q)) for p in positions]
            assert color == colors[dists.index(min(dists))]

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
        assert colors == [(2, 2, 2)]


class TestIdw:
    def test_coincident_query_returns_exact_color(self):
        got = interpolate_idw([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]], [(7, 8, 9), (0, 0, 0)], [[1.0, 2.0, 3.0]])
        assert got == [(7, 8, 9)]

    def test_equidistant_average(self):
        got = interpolate_idw([[0.0, 0.0], [2.0, 0.0]], [(0, 0, 0), (200, 200, 200)], [[1.0, 0.0]])
        assert got == [(100, 100, 100)]

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 10, size=(10, 3))
        colors = rng.integers(0, 256, size=(10, 3))
        queries = rng.uniform(0, 10, size=(3, 3))
        got = interpolate_idw(positions, [tuple(map(int, c)) for c in colors], queries, power=2.0)
        for q, color in zip(queries, got):
            d = np.linalg.norm(positions - q, axis=1)
            w = d ** -2.0
            expected = w @ colors / w.sum()
            assert color == tuple(int(np.floor(v + 0.5)) for v in expected)

    def test_output_within_channel_range(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 5, size=(15, 2))
        channel = rng.integers(40, 90, size=15)
        colors = [(int(v), int(v), int(v)) for v in channel]
        got = interpolate_idw(positions, colors, rng.uniform(0, 5, size=(20, 2)))
        for c in got:
            assert channel.min() <= c[0] <= channel.max()

    def test_bad_power(self):
        with pytest.raises(InvalidConfig):
            interpolate_idw([[0.0, 0.0]], [(1, 1, 1)], [[1.0, 1.0]], power=0.0)


class TestLin2:
    TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])

    def test_vertex_query(self):
        colors = [(10, 0, 0), (0, 90, 0), (0, 0, 210)]
        got = interpolate_lin2(self.TRIANGLE, colors, [[0.0, 0.0]])
        assert got == [(10, 0, 0)]

    def test_centroid_equal_weights(self):
        colors = [(0, 0, 0), (90, 90, 90), (210, 210, 210)]
        got = interpolate_lin2(self.TRIANGLE, colors, [self.TRIANGLE.mean(axis=0)])
        assert got == [(100, 100, 100)]

    def test_outside_hull_is_none(self):
        got = interpolate_lin2(self.TRIANGLE, [(0, 0, 0)] * 3, [[10.0, 10.0]])
        assert got == [None]

    def test_collinear_degenerate_all_none(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        got = interpolate_lin2(positions, [(0, 0, 0)] * 3, [[0.5, 0.0], [1.0, 1.0]])
        assert got == [None, None]

    def test_reproduces_affine_field_at_interior_queries(self):
        rng = np.random.default_rng(13)
        positions = rng.uniform(0, 10, size=(30, 2))
        a, b, c = 3.0, -2.0, 120.0

        def field(p):
            return a * p[0] + b * p[1] + c

        colors = [(max(0, min(255, int(np.floor(field(p) + 0.5)))),) * 3 for p in positions]
        # use exact (unrounded) channel values to avoid rounding noise
        exact = np.array([[field(p)] * 3 for p in positions])
        queries = rng.uniform(2, 8, size=(10, 2))
        got = interpolate_lin2(positions, exact, queries)
        for q, color in zip(queries, got):
            if color is None:
                continue
            assert abs(color[0] - field(q)) <= 0.5 + 1e-9
