"""Cloud-level upsampling: dispatch a method over the block partition (or
the raw 3D coordinates for the 3D baselines) and assemble the output cloud.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .baselines import InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3
from .core import (
    Block, Color, ColorPointCloud, check_block_size, nearest_original_color, partition_into_blocks,
)
from .errors import EmptySamples
from .fsmmr import FsmmrConfig, upsample_block
from .surface_transform import RootPolicy, flatten_block


def _colored_rows(ids: np.ndarray, colors: Sequence[Optional[Color]]) -> tuple[np.ndarray, np.ndarray]:
    """The ids a kernel gave a color, and those colors as a (k, 3) array."""
    hit = [color is not None for color in colors]
    rows = [color for color in colors if color is not None]
    return ids[hit], np.array(rows, dtype=np.uint8).reshape(-1, 3)


def block_colors(
    block: Block,
    cloud: ColorPointCloud,
    method: InterpolatorKind,
    fsmmr_config: FsmmrConfig = FsmmrConfig(),
    root_policy: RootPolicy = RootPolicy.deterministic(),
    idw_power: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Colors for the block's Reconstruct points by a 2D method: FSMMR,
    IDW2 or LIN2, as the ids of the points colored and a (k, 3) uint8 array.

    A block without Reconstruct points colors nothing.  A block without
    Original points takes the nearest original in 3D over the whole cloud,
    except under LIN2, which leaves its points uncolored.  Otherwise the
    block is flattened once and the method interpolates its originals'
    colors in 2D; the points it leaves uncolored are left out.
    """
    ids = block.point_ids
    is_original = cloud.original[ids]
    r_ids = ids[~is_original]
    if not r_ids.size:
        return _colored_rows(r_ids, [])
    if not is_original.any():
        if method is InterpolatorKind.LIN2_DELAUNAY:
            return _colored_rows(r_ids, [None] * len(r_ids))
        return r_ids, nearest_original_color(cloud, cloud.positions[r_ids])

    mesh = flatten_block(block, cloud, root_policy)
    coords = np.array([(x, y) for _, x, y in mesh.entries], dtype=float)
    o_colors = cloud.colors[ids[is_original]]
    if method is InterpolatorKind.FSMMR:
        colors = upsample_block(coords, is_original, o_colors, fsmmr_config)
    elif method is InterpolatorKind.IDW2:
        colors = interpolate_idw(coords[is_original], o_colors, coords[~is_original], power=idw_power)
    else:
        colors = interpolate_lin2(coords[is_original], o_colors, coords[~is_original])
    return _colored_rows(r_ids, colors)


def upsample_cloud(
    cloud: ColorPointCloud,
    method: InterpolatorKind,
    block_size: float = 4.0,
    fsmmr_config: FsmmrConfig = FsmmrConfig(),
    root_policy: RootPolicy = RootPolicy.deterministic(),
    idw_power: float = 2.0,
) -> tuple[ColorPointCloud, int]:
    """Color every Reconstruct point (where the method can) and return the
    resulting cloud plus the count of points the method left uncolored."""
    check_block_size(block_size)
    o_ids = cloud.original_ids()
    if not o_ids.size:
        raise EmptySamples("upsampling requires at least one original point")
    r_ids = cloud.reconstruct_ids()
    if not r_ids.size:
        return cloud, 0

    if method in (InterpolatorKind.NN3, InterpolatorKind.IDW3):
        o_pos, o_colors, queries = cloud.positions[o_ids], cloud.colors[o_ids], cloud.positions[r_ids]
        if method is InterpolatorKind.NN3:
            colors = interpolate_nn3(o_pos, o_colors, queries)
        else:
            colors = interpolate_idw(o_pos, o_colors, queries, power=idw_power)
        ids, rows = r_ids, np.array(colors, dtype=np.uint8)
    else:
        parts = [
            block_colors(block, cloud, method, fsmmr_config, root_policy, idw_power)
            for block in partition_into_blocks(cloud, block_size)
        ]
        ids = np.concatenate([part_ids for part_ids, _ in parts])
        rows = np.concatenate([part_rows for _, part_rows in parts])
    return cloud.with_colors(ids, rows), len(r_ids) - len(ids)
