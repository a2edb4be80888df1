"""Cloud-level upsampling: dispatch a method over the block partition (or
the raw 3D coordinates for the 3D baselines) and assemble the output cloud.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .baselines import InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3
from .core import (
    Block, Color, ColorPointCloud, Role, check_block_size, nearest_original_color, partition_into_blocks,
)
from .errors import EmptySamples
from .fsmmr import FsmmrConfig, upsample_block
from .surface_transform import RootPolicy, flatten_block


def block_colors(
    block: Block,
    cloud: ColorPointCloud,
    method: InterpolatorKind,
    fsmmr_config: FsmmrConfig = FsmmrConfig(),
    root_policy: RootPolicy = RootPolicy.deterministic(),
    idw_power: float = 2.0,
) -> dict[int, Optional[Color]]:
    """Colors for the block's Reconstruct points by a 2D method: FSMMR,
    IDW2 or LIN2.

    A block without Reconstruct points gives an empty mapping.  A block
    without Original points takes the nearest original in 3D over the whole
    cloud, except under LIN2, which leaves its points uncolored (None).
    Otherwise the block is flattened once and the method interpolates its
    originals' colors in 2D.
    """
    is_original = np.array([cloud.points[pid].role is Role.ORIGINAL for pid in block.point_ids])
    r_ids = [pid for pid, orig in zip(block.point_ids, is_original) if not orig]
    if not r_ids:
        return {}
    if not is_original.any():
        if method is InterpolatorKind.LIN2_DELAUNAY:
            return dict.fromkeys(r_ids)
        queries = [cloud.points[pid].coords for pid in r_ids]
        return dict(zip(r_ids, nearest_original_color(cloud, queries)))

    mesh = flatten_block(block, cloud, root_policy)
    coords = np.array([(x, y) for _, x, y in mesh.entries], dtype=float)
    o_colors = [cloud.points[pid].color for pid, orig in zip(block.point_ids, is_original) if orig]
    if method is InterpolatorKind.FSMMR:
        colors = upsample_block(coords, is_original, o_colors, fsmmr_config)
    elif method is InterpolatorKind.IDW2:
        colors = interpolate_idw(coords[is_original], o_colors, coords[~is_original], power=idw_power)
    else:
        colors = interpolate_lin2(coords[is_original], o_colors, coords[~is_original])
    return dict(zip(r_ids, colors))


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
    if not o_ids:
        raise EmptySamples("upsampling requires at least one original point")

    assigned: dict[int, Optional[Color]] = {}
    r_ids = cloud.reconstruct_ids()
    if r_ids:
        if method in (InterpolatorKind.NN3, InterpolatorKind.IDW3):
            positions = cloud.positions()
            o_pos = positions[o_ids]
            o_colors = [cloud.points[i].color for i in o_ids]
            queries = positions[r_ids]
            if method is InterpolatorKind.NN3:
                colors = interpolate_nn3(o_pos, o_colors, queries)
            else:
                colors = interpolate_idw(o_pos, o_colors, queries, power=idw_power)
            assigned = dict(zip(r_ids, colors))
        else:
            for block in partition_into_blocks(cloud, block_size):
                assigned.update(block_colors(block, cloud, method, fsmmr_config, root_policy, idw_power))

    points = list(cloud.points)
    for pid, color in assigned.items():
        if color is not None:
            points[pid] = replace(points[pid], color=color)
    uncolored = sum(assigned.get(pid) is None for pid in r_ids)
    return ColorPointCloud(points=points, provenance=cloud.provenance), uncolored
