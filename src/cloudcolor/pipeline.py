"""Cloud-level upsampling: dispatch a method over the block partition (or
the raw 3D coordinates for the 3D baselines) and assemble the output cloud.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional

import numpy as np

from .baselines import InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3
from .core import Block, Color, ColorPoint, ColorPointCloud, Role, check_block_size, partition_into_blocks
from .errors import EmptySamples, InvalidConfig
from .fsmmr import FsmmrConfig, nearest_original_color, upsample_block
from .surface_transform import RootPolicy, flatten_block


def _block_colors_2d(
    block: Block, cloud: ColorPointCloud, kind: InterpolatorKind,
    root_policy: RootPolicy, idw_power: float,
) -> dict[int, Optional[Color]]:
    r_ids = [pid for pid in block.point_ids if cloud.points[pid].role is Role.RECONSTRUCT]
    if not r_ids:
        return {}
    o_ids = [pid for pid in block.point_ids if cloud.points[pid].role is Role.ORIGINAL]
    if not o_ids:
        if kind is InterpolatorKind.LIN2_DELAUNAY:
            return {pid: None for pid in r_ids}
        # keep IDW2 total: fall back to the nearest original in 3D
        return {pid: nearest_original_color(cloud, cloud.points[pid].coords) for pid in r_ids}

    mesh = flatten_block(block, cloud, root_policy)
    flat = {pid: (x, y) for pid, x, y in mesh.entries}
    o_coords = np.array([flat[pid] for pid in o_ids])
    r_coords = np.array([flat[pid] for pid in r_ids])
    o_colors = [cloud.points[pid].color for pid in o_ids]

    if kind is InterpolatorKind.IDW2:
        colors = interpolate_idw(o_coords, o_colors, r_coords, power=idw_power)
    else:
        colors = interpolate_lin2(o_coords, o_colors, r_coords)
    return dict(zip(r_ids, colors))


def upsample_cloud(
    cloud: ColorPointCloud,
    method: InterpolatorKind,
    block_size: float = 4.0,
    fsmmr_config: FsmmrConfig = FsmmrConfig(),
    root_policy: RootPolicy = RootPolicy.deterministic(),
    idw_power: float = 2.0,
    threads: int = 1,
) -> tuple[ColorPointCloud, int]:
    """Color every Reconstruct point (where the method can) and return the
    resulting cloud plus the count of points the method left uncolored."""
    check_block_size(block_size)
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")
    if not cloud.original_ids():
        raise EmptySamples("upsampling requires at least one original point")

    assigned: dict[int, Optional[Color]] = {}
    r_ids = cloud.reconstruct_ids()
    if r_ids:
        if method in (InterpolatorKind.NN3, InterpolatorKind.IDW3):
            positions = cloud.positions()
            o_ids = cloud.original_ids()
            o_pos = positions[o_ids]
            o_colors = [cloud.points[i].color for i in o_ids]
            queries = positions[r_ids]
            if method is InterpolatorKind.NN3:
                colors = interpolate_nn3(o_pos, o_colors, queries)
            else:
                colors = interpolate_idw(o_pos, o_colors, queries, power=idw_power)
            assigned = dict(zip(r_ids, colors))
        else:
            blocks = partition_into_blocks(cloud, block_size)

            def job(block: Block) -> dict[int, Optional[Color]]:
                if method is InterpolatorKind.FSMMR:
                    return upsample_block(block, cloud, fsmmr_config, root_policy)
                return _block_colors_2d(block, cloud, method, root_policy, idw_power)

            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    results = list(pool.map(job, blocks))
            else:
                results = [job(b) for b in blocks]
            for mapping in results:
                assigned.update(mapping)

    uncolored = 0
    points = []
    for pid, p in enumerate(cloud.points):
        if p.role is Role.RECONSTRUCT:
            color = assigned.get(pid)
            if color is None:
                uncolored += 1
                points.append(p)
            else:
                points.append(replace(p, color=color))
        else:
            points.append(p)
    return ColorPointCloud(points=points, provenance=cloud.provenance), uncolored
