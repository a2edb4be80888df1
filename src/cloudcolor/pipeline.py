"""Cloud-level upsampling: dispatch a method over the block partition (or
the raw 3D coordinates for the 3D baselines) and assemble the output cloud.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import InterpolatorKind, check_idw_power, interpolate_idw, interpolate_lin2, interpolate_nn3
from .core import Block, ColorPointCloud, check_block_size, nearest_original_color, partition_into_blocks
from .errors import EmptySamples, InvalidConfig
from .fsmmr import FsmmrConfig, upsample_block
from .surface_transform import flatten_block

_WHOLE_CLOUD_METHODS = (InterpolatorKind.NN3, InterpolatorKind.IDW3)  # 3D, over all originals of the cloud, not per block


@dataclass(frozen=True)
class UpsampleConfig:
    """The settings of an upsampling run, checked once: the edge length of
    the cubic blocks, the seed of the MST root picks (None: the lowest point
    id of each block), the Shepard weight exponent of IDW2 and IDW3, and the
    FSMMR model."""
    block_size: float = 4.0
    root_seed: int | None = None
    idw_power: float = 2.0
    fsmmr: FsmmrConfig = FsmmrConfig()

    def __post_init__(self):
        check_block_size(self.block_size)
        check_idw_power(self.idw_power)
        if self.root_seed is not None and not isinstance(self.root_seed, (int, np.integer)):
            raise InvalidConfig(f"root_seed must be an integer or None, got {self.root_seed!r}")


def block_colors(
    block: Block, cloud: ColorPointCloud, method: InterpolatorKind, config: UpsampleConfig = UpsampleConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Colors for the block's Reconstruct points by a 2D method: FSMMR,
    IDW2 or LIN2, as the ids of the points colored and a (k, 3) uint8 array.

    A block without Reconstruct points colors nothing.  A block without
    Original points takes the nearest original in 3D over the whole cloud,
    except under LIN2, which leaves its points uncolored.  Otherwise the
    block is flattened once and the method interpolates its originals'
    colors in 2D; the points it leaves uncolored are left out.
    """
    if not isinstance(method, InterpolatorKind) or method in _WHOLE_CLOUD_METHODS:
        raise InvalidConfig(f"block_colors takes FSMMR, IDW2 or LIN2, got {method!r}")
    ids = block.point_ids
    is_original = cloud.original[ids]
    r_ids = ids[~is_original]
    if not r_ids.size or (method is InterpolatorKind.LIN2_DELAUNAY and not is_original.any()):
        return r_ids[:0], np.empty((0, 3), dtype=np.uint8)
    if not is_original.any():
        return r_ids, nearest_original_color(cloud, cloud.positions[r_ids])

    coords = flatten_block(block, cloud, config.root_seed)
    o_coords, o_colors, r_coords = coords[is_original], cloud.colors[ids[is_original]], coords[~is_original]
    if method is InterpolatorKind.FSMMR:
        return r_ids, upsample_block(o_coords, o_colors, r_coords, config.fsmmr)
    if method is InterpolatorKind.IDW2:
        return r_ids, interpolate_idw(o_coords, o_colors, r_coords, power=config.idw_power)
    inside, colors = interpolate_lin2(o_coords, o_colors, r_coords)
    return r_ids[inside], colors


def upsample_cloud(
    cloud: ColorPointCloud, method: InterpolatorKind, config: UpsampleConfig = UpsampleConfig(),
) -> ColorPointCloud:
    """The cloud with its Reconstruct points colored where the method can
    color them.  A Reconstruct point of the result is colored exactly when
    the method colored it, whatever the input says: its uncolored points are
    the method's holes."""
    if not isinstance(method, InterpolatorKind):
        raise InvalidConfig(f"the method must be an InterpolatorKind, got {method!r}")
    o_ids = np.flatnonzero(cloud.original)
    if not o_ids.size:
        raise EmptySamples("upsampling requires at least one original point")
    r_ids = np.flatnonzero(~cloud.original)
    if not r_ids.size:
        return cloud

    if method in _WHOLE_CLOUD_METHODS:
        o_pos, o_colors, queries = cloud.positions[o_ids], cloud.colors[o_ids], cloud.positions[r_ids]
        if method is InterpolatorKind.NN3:
            rows = interpolate_nn3(o_pos, o_colors, queries)
        else:
            rows = interpolate_idw(o_pos, o_colors, queries, power=config.idw_power)
        ids = r_ids
    else:
        parts = [block_colors(block, cloud, method, config) for block in partition_into_blocks(cloud, config.block_size)]
        ids = np.concatenate([part_ids for part_ids, _ in parts])
        rows = np.concatenate([part_rows for _, part_rows in parts])
    colors, colored = cloud.colors.copy(), cloud.original.copy()
    colors[ids], colored[ids] = rows, True
    return ColorPointCloud(cloud.positions, colors, cloud.original, colored)
