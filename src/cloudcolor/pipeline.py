"""Cloud-level upsampling: dispatch a method over the block partition (or
the raw 3D coordinates for the 3D baselines) and assemble the output cloud.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .baselines import InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3, load_delaunay
from .core import Block, ColorPointCloud, as_number, nearest_original_color, partition_into_blocks, positive_real, shown
from .errors import EmptySamples, InvalidConfig
from .fsmmr import FsmmrConfig, upsample_block
from .parallel import map_on_cores
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
        object.__setattr__(self, "block_size", positive_real(self.block_size, "block_size"))
        object.__setattr__(self, "idw_power", positive_real(self.idw_power, "idw power"))
        if self.root_seed is not None:
            object.__setattr__(self, "root_seed", as_number(self.root_seed, "root_seed", int))
        if not isinstance(self.fsmmr, FsmmrConfig):
            raise InvalidConfig(f"fsmmr must be an FsmmrConfig, got {shown(self.fsmmr)}")


class BlockGeometry:
    """The block partition of a cloud and each block's flattened (n, 2)
    coordinates, each computed the first time a method needs it, and the
    runner of a function over its blocks, `map_blocks`.

    Both read only the positions, the block size and the root seed, so one
    geometry serves every role split of the same positions: `run_experiment`
    shares one across its densities, runs and methods.  A partition or a
    flattening that raises is not kept, and the next caller raises again.
    """

    def __init__(self, cloud: ColorPointCloud, config: UpsampleConfig = UpsampleConfig()):
        self._cloud = cloud
        self.block_size, self.root_seed = config.block_size, config.root_seed
        self._coords: dict[int, np.ndarray] = {}

    @cached_property
    def blocks(self) -> list[Block]:
        return partition_into_blocks(self._cloud, self.block_size)

    def coords(self, index: int) -> np.ndarray:
        """The flattened coordinates of block `index`; row i is its i-th point."""
        if index not in self._coords:
            self._coords[index] = flatten_block(self.blocks[index], self._cloud, self.root_seed)
        return self._coords[index]

    def map_blocks(self, function: Callable[[int], object]) -> list:
        """``[function(index) for index in range(len(self.blocks))]`` through
        `parallel.map_on_cores`, keeping every flattening its forked workers make."""
        done = map_on_cores(lambda index: (function(index), self._coords.get(index)), range(len(self.blocks)))
        self._coords.update((index, coords) for index, (_, coords) in enumerate(done) if coords is not None)
        return [result for result, _ in done]

    def check(self, cloud: ColorPointCloud, config: UpsampleConfig) -> None:
        """Raise InvalidConfig unless this geometry is the one of `cloud`'s
        positions under `config`'s block size and root seed."""
        if (self.block_size, self.root_seed) != (config.block_size, config.root_seed):
            raise InvalidConfig("the block geometry was built with another block size or root seed")
        if not np.array_equal(self._cloud.positions, cloud.positions):
            raise InvalidConfig("the block geometry was built from other positions")


def block_colors(
    geometry: BlockGeometry, index: int, cloud: ColorPointCloud, method: InterpolatorKind,
    config: UpsampleConfig = UpsampleConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Colors for the Reconstruct points of the geometry's block `index` by
    a 2D method: FSMMR, IDW2 or LIN2, as the ids of the points colored and
    a (k, 3) uint8 array.  `cloud` gives the roles and colors.

    A block without Reconstruct points colors nothing.  A block without
    Original points takes the nearest original in 3D over the whole cloud,
    except under LIN2, which leaves its points uncolored.  Otherwise the
    method interpolates its originals' colors at the block's flattened
    coordinates; the points it leaves uncolored are left out.
    """
    if not isinstance(method, InterpolatorKind) or method in _WHOLE_CLOUD_METHODS:
        raise InvalidConfig(f"block_colors takes FSMMR, IDW2 or LIN2, got {shown(method)}")
    ids = geometry.blocks[index].point_ids
    is_original = cloud.original[ids]
    r_ids = ids[~is_original]
    if not r_ids.size or (method is InterpolatorKind.LIN2_DELAUNAY and not is_original.any()):
        return r_ids[:0], np.empty((0, 3), dtype=np.uint8)
    if not is_original.any():
        return r_ids, nearest_original_color(cloud, cloud.positions[r_ids])

    coords = geometry.coords(index)
    o_coords, o_colors, r_coords = coords[is_original], cloud.colors[ids[is_original]], coords[~is_original]
    if method is InterpolatorKind.FSMMR:
        return r_ids, upsample_block(o_coords, o_colors, r_coords, config.fsmmr)
    if method is InterpolatorKind.IDW2:
        return r_ids, interpolate_idw(o_coords, o_colors, r_coords, power=config.idw_power)
    inside, colors = interpolate_lin2(o_coords, o_colors, r_coords)
    return r_ids[inside], colors


def upsample_cloud(
    cloud: ColorPointCloud, method: InterpolatorKind, config: UpsampleConfig = UpsampleConfig(),
    geometry: BlockGeometry | None = None,
) -> ColorPointCloud:
    """The cloud with its Reconstruct points colored where the method can
    color them.  A Reconstruct point of the result is colored exactly when
    the method colored it, whatever the input says: its uncolored points are
    the method's holes.

    The 2D methods take the block partition and flattening from `geometry`,
    which must be the `BlockGeometry` of the cloud's positions under
    `config` (InvalidConfig otherwise); by default one is built here.  Their
    blocks run on every usable core through `BlockGeometry.map_blocks`, with
    scipy loaded before the fork for LIN2, so the geometry keeps every
    block's flattening, wherever it ran.  The result is the same for any
    number of processes, and so is the error when blocks raise: that of the
    lowest-index block.
    """
    if not isinstance(method, InterpolatorKind):
        raise InvalidConfig(f"the method must be an InterpolatorKind, got {shown(method)}")
    if geometry is None:
        geometry = BlockGeometry(cloud, config)
    else:
        geometry.check(cloud, config)
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
        if method is InterpolatorKind.LIN2_DELAUNAY:
            load_delaunay()  # before any fork, so that every process shares one single-threaded scipy
        parts = geometry.map_blocks(lambda index: block_colors(geometry, index, cloud, method, config))
        ids, rows = map(np.concatenate, zip(*parts))
    colors, colored = cloud.colors.copy(), cloud.original.copy()
    colors[ids], colored[ids] = rows, True
    return ColorPointCloud(cloud.positions, colors, cloud.original, colored)

