"""Reference interpolators: nearest neighbor, inverse-distance weighting,
and Delaunay-barycentric linear interpolation in 2D.

The 2D variants expect coordinates produced by the surface transform; the
3D variants operate on raw point coordinates.  LIN2 deliberately refuses to
extrapolate: queries outside the convex hull get no value.
"""
from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .core import Color, nearest_ids
from .errors import EmptySamples, InvalidConfig
from .fsmmr import round_color_channel


class InterpolatorKind(Enum):
    NN3 = "nn3"
    IDW3 = "idw3"
    IDW2 = "idw2"
    LIN2_DELAUNAY = "lin2"
    FSMMR = "fsmmr"

    @staticmethod
    def parse(name: str) -> "InterpolatorKind":
        try:
            return InterpolatorKind(name.lower())
        except ValueError:
            valid = ", ".join(k.value for k in InterpolatorKind)
            raise InvalidConfig(f"unknown method {name!r}; expected one of: {valid}") from None


def interpolate_nn3(positions: np.ndarray, colors: Sequence[Color], queries: np.ndarray) -> list[Color]:
    """Each query takes the color of its nearest original; ties go to the
    smaller point id."""
    return [colors[i] for i in nearest_ids(positions, queries).tolist()]


def interpolate_idw(
    positions: np.ndarray, colors: Sequence[Color], queries: np.ndarray, power: float = 2.0
) -> list[Color]:
    """Shepard interpolation with weights d^-power; a query coincident with
    an original returns that original's color exactly."""
    if power <= 0:
        raise InvalidConfig("idw power must be positive")
    positions = np.asarray(positions, dtype=float)
    queries = np.asarray(queries, dtype=float).reshape(-1, positions.shape[1] if positions.ndim == 2 else 3)
    if len(positions) == 0:
        raise EmptySamples("idw interpolation needs at least one original")
    color_arr = np.asarray(colors, dtype=float)

    out: list[Color] = []
    for q in queries:
        d = np.sqrt(((positions - q) ** 2).sum(axis=1))
        hits = np.flatnonzero(d == 0.0)
        if hits.size:
            out.append(tuple(int(c) for c in colors[int(hits[0])]))
            continue
        weights = d ** -power
        blend = weights @ color_arr / weights.sum()
        out.append(tuple(round_color_channel(v) for v in blend))
    return out


def interpolate_lin2(
    positions2d: np.ndarray, colors: Sequence[Color], queries2d: np.ndarray
) -> list[Optional[Color]]:
    """Barycentric interpolation over a Delaunay triangulation.

    Queries outside the convex hull, and every query when the originals are
    degenerate (fewer than 3 points or collinear), yield None.
    """
    positions2d = np.asarray(positions2d, dtype=float).reshape(-1, 2)
    queries2d = np.asarray(queries2d, dtype=float).reshape(-1, 2)
    if len(positions2d) < 3:
        return [None] * len(queries2d)
    try:
        tri = Delaunay(positions2d)
    except QhullError:
        return [None] * len(queries2d)

    color_arr = np.asarray(colors, dtype=float)
    simplex_ids = tri.find_simplex(queries2d)
    out: list[Optional[Color]] = []
    for q, s in zip(queries2d, simplex_ids):
        if s < 0:
            out.append(None)
            continue
        transform = tri.transform[s]
        bary = transform[:2] @ (q - transform[2])
        weights = np.append(bary, 1.0 - bary.sum())
        blend = weights @ color_arr[tri.simplices[s]]
        out.append(tuple(round_color_channel(v) for v in blend))
    return out
