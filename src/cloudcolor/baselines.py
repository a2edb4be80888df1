"""Reference interpolators: nearest neighbor, inverse-distance weighting,
and Delaunay-barycentric linear interpolation in 2D.

The 2D variants expect coordinates produced by the surface transform; the
3D variants operate on raw point coordinates.  LIN2 deliberately refuses to
extrapolate: queries outside the convex hull get no value.  Every kernel
reads ``(positions, colors, queries)`` by ``core.as_kernel_rows`` and
returns (k, 3) uint8 colors, rounded by ``core.round_color_channel``.
"""
from __future__ import annotations

import os
from enum import Enum

import numpy as np

from .core import as_kernel_rows, nearest_ids, positive_real, round_color_channel, squared_distance_chunks
from .errors import InvalidConfig


class InterpolatorKind(Enum):  # declared in the default sweep's row order
    FSMMR = "fsmmr"
    NN3 = "nn3"
    IDW3 = "idw3"
    IDW2 = "idw2"
    LIN2_DELAUNAY = "lin2"

    @staticmethod
    def parse(name: str) -> "InterpolatorKind":
        try:
            return InterpolatorKind(name.lower())
        except ValueError:
            valid = ", ".join(k.value for k in InterpolatorKind)
            raise InvalidConfig(f"unknown method {name!r}; expected one of: {valid}") from None


def interpolate_nn3(positions: np.ndarray, colors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Each query takes the color of its nearest original; ties go to the
    smaller point id.  Returns (k, 3) uint8 colors."""
    positions, colors, queries = as_kernel_rows(positions, colors, queries)
    return round_color_channel(colors[nearest_ids(positions, queries)])


def interpolate_idw(
    positions: np.ndarray, colors: np.ndarray, queries: np.ndarray, power: float = 2.0
) -> np.ndarray:
    """Shepard interpolation with weights d^-power, as (k, 3) uint8 colors.

    A query whose blend is not finite takes the color of its nearest
    original, the lowest id among equals.  That covers a query coincident
    with an original (d = 0) and weights that overflow or underflow; it is
    the limit of the blend as d -> 0 or as the power grows.
    """
    power = positive_real(power, "idw power")
    positions, color_arr, queries = as_kernel_rows(positions, colors, queries)

    blend = np.empty((len(queries), 3))
    for rows, d2 in squared_distance_chunks(positions, queries):
        with np.errstate(all="ignore"):
            weights = np.sqrt(d2) ** -power
            # one vector-matrix product per query: a single GEMM rounds differently
            blend[rows] = np.matmul(weights[:, None, :], color_arr)[:, 0, :] / weights.sum(axis=1)[:, None]
    unfinished = ~np.isfinite(blend).all(axis=1)
    blend[unfinished] = color_arr[nearest_ids(positions, queries[unfinished])]
    return round_color_channel(blend)


def load_delaunay():
    """scipy's ``(Delaunay, QhullError)``, imported on first use: only LIN2
    needs scipy, and loading it more than doubles a run's start-up time and
    memory.  scipy's own OpenBLAS fixes its thread count as it loads; at the
    default, a thread spins for about 0.12 s after every
    ``Delaunay.transform``.  So scipy loads under ``OPENBLAS_NUM_THREADS=1``
    unless the variable is set."""
    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    if unset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from scipy.spatial import Delaunay, QhullError
    finally:
        if unset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    return Delaunay, QhullError


def interpolate_lin2(
    positions2d: np.ndarray, colors: np.ndarray, queries2d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric interpolation over a Delaunay triangulation.

    Returns an `inside` mask over the queries and (inside.sum(), 3) uint8
    colors for the queries inside.  Queries outside the convex hull, and
    every query when the originals are degenerate (fewer than 3 points or
    collinear), are not inside.
    """
    Delaunay, QhullError = load_delaunay()

    positions2d, colors, queries2d = as_kernel_rows(positions2d, colors, queries2d, width=2)
    outside = np.zeros(len(queries2d), dtype=bool), np.empty((0, 3), dtype=np.uint8)
    if len(positions2d) < 3:
        return outside
    try:
        tri = Delaunay(positions2d)
    except QhullError:
        return outside

    simplex_ids = tri.find_simplex(queries2d)
    inside = simplex_ids >= 0
    simplices = simplex_ids[inside]
    transform = tri.transform[simplices]  # (m, 3, 2): the inverse matrix, then the offset
    offsets = queries2d[inside] - transform[:, 2]
    # stacked per-query matmuls round exactly as the per-query products do
    bary = np.matmul(transform[:, :2], offsets[:, :, None])[:, :, 0]
    weights = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
    corner_colors = colors[tri.simplices[simplices]]
    blend = np.matmul(weights[:, None, :], corner_colors)[:, 0, :]
    return inside, round_color_channel(blend)
