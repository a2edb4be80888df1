"""Cloud-level upsampling: dispatch a method over the block partition (or
the raw 3D coordinates for the 3D baselines) and assemble the output cloud.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from .baselines import InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3, load_delaunay
from .core import Block, ColorPointCloud, as_number, nearest_original_color, partition_into_blocks, positive_real, shown
from .errors import CloudColorError, EmptySamples, InvalidConfig
from .fsmmr import FsmmrConfig, _upsample_share
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


def _block_colors(
    block: Block, coords: Callable[[], np.ndarray], cloud: ColorPointCloud, method: InterpolatorKind,
    config: UpsampleConfig, fit: Callable,
) -> tuple[np.ndarray, np.ndarray]:
    """Colors for the Reconstruct points of `block` by a 2D method: FSMMR,
    IDW2 or LIN2, as the ids of the points colored and a (k, 3) uint8 array.
    `cloud` gives the roles and colors, and `coords()` the block's flattened
    (n, 2) coordinates, row i being its i-th point.

    A block without Reconstruct points colors nothing.  A block without
    Original points takes the nearest original in 3D over the whole cloud,
    except under LIN2, which leaves its points uncolored.  Otherwise the
    method interpolates its originals' colors at the block's flattened
    coordinates; the points it leaves uncolored are left out.  FSMMR's
    colors are ``fit(o_coords, o_colors, r_coords)``.
    """
    ids = block.point_ids
    is_original = cloud.original[ids]
    r_ids = ids[~is_original]
    if not r_ids.size or (method is InterpolatorKind.LIN2_DELAUNAY and not is_original.any()):
        return r_ids[:0], np.empty((0, 3), dtype=np.uint8)
    if not is_original.any():
        return r_ids, nearest_original_color(cloud, cloud.positions[r_ids])

    flat = coords()
    o_coords, o_colors, r_coords = flat[is_original], cloud.colors[ids[is_original]], flat[~is_original]
    if method is InterpolatorKind.FSMMR:
        return r_ids, fit(o_coords, o_colors, r_coords)
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
    the method's holes.  This is `upsample_clouds` for one cloud and one
    method, so a 2D method's blocks run on every usable core, and the result
    or the error is the same for any number of processes.
    """
    [[(upsampled, _)]] = upsample_clouds([cloud], [method], config)
    if isinstance(upsampled, CloudColorError):
        raise upsampled
    return upsampled


def upsample_clouds(
    clouds: Sequence[ColorPointCloud], methods: Sequence[InterpolatorKind], config: UpsampleConfig = UpsampleConfig(),
) -> list[list[tuple[ColorPointCloud | CloudColorError, float]]]:
    """Entry [i][j] is what ``upsample_cloud(clouds[i], methods[j], config)``
    returns, or the CloudColorError it raises, and the seconds spent coloring
    it: its whole-cloud NN3 or IDW3 call, or the sum over its blocks,
    wherever they ran (the first entry to reach a block pays for flattening
    it, and a lockstep FSMMR fit's seconds are split evenly over its
    blocks).  The clouds must share their positions (InvalidConfig
    otherwise), as role splits of one cloud do: the blocks run on every
    usable core in one `parallel.map_on_cores` call.  Each process
    flattens each block of its share at most once and colors it for every
    cloud and 2D method, and fits the FSMMR blocks of its whole share in
    one call, which fits the blocks with equal numbers of originals in
    lockstep.  A partition that raises fills every 2D entry; an entry whose
    blocks raise holds the error of the lowest-index one, whatever the
    number of processes.
    """
    for method in methods:
        if not isinstance(method, InterpolatorKind):
            raise InvalidConfig(f"the method must be an InterpolatorKind, got {shown(method)}")
    if any(not np.array_equal(cloud.positions, clouds[0].positions) for cloud in clouds):
        raise InvalidConfig("the clouds to upsample together must share their positions")
    entries: list[list] = [[None] * len(methods) for _ in clouds]
    pairs = []  # the (cloud, method) indices that color blocks
    for i, cloud in enumerate(clouds):
        for j, method in enumerate(methods):
            if not cloud.original.any():
                entries[i][j] = EmptySamples("upsampling requires at least one original point"), 0.0
            elif cloud.original.all():  # nothing to reconstruct
                entries[i][j] = cloud, 0.0
            elif method in _WHOLE_CLOUD_METHODS:
                entries[i][j] = _timed(_whole_cloud_colors, cloud, method, config)
            else:
                pairs.append((i, j))
    if not pairs:
        return entries
    try:
        blocks = partition_into_blocks(clouds[0], config.block_size)
    except CloudColorError as error:
        for i, j in pairs:
            entries[i][j] = error, 0.0
        return entries

    def color_share(share: Sequence[Block]) -> list:
        problems, done = [], []  # the (o_coords, o_colors, r_coords) of each FSMMR block, fitted together below
        for block in share:
            coords = cache(partial(flatten_block, block, clouds[0], config.root_seed))  # a raise is not kept
            done.append([_timed(_block_colors, block, coords, clouds[i], methods[j], config, lambda *problem: problems.append(problem))
                         for i, j in pairs])  # an FSMMR entry's colors read None until its fit below
        fits = iter(_upsample_share(problems, config.fsmmr))  # in the order of the entries they fill
        for row in done:
            for k, (colored, seconds) in enumerate(row):
                if not isinstance(colored, CloudColorError) and colored[1] is None:
                    colors, fit_seconds = next(fits)
                    row[k] = colors if isinstance(colors, CloudColorError) else (colored[0], colors), seconds + fit_seconds
        return done

    if any(methods[j] is InterpolatorKind.LIN2_DELAUNAY for _, j in pairs):
        load_delaunay()  # before the fork, so that every process shares one single-threaded scipy
    done = map_on_cores(color_share, blocks)
    for k, (i, j) in enumerate(pairs):
        parts, seconds = zip(*(block_parts[k] for block_parts in done))
        errors = [part for part in parts if isinstance(part, CloudColorError)]
        upsampled = errors[0] if errors else _colored(clouds[i], *map(np.concatenate, zip(*parts)))
        entries[i][j] = upsampled, sum(seconds)
    return entries


def _timed(function: Callable, *args) -> tuple[object, float]:
    """``function(*args)``, or the CloudColorError it raises, and the seconds it took."""
    started = time.perf_counter()
    try:
        result = function(*args)
    except CloudColorError as error:
        result = error
    return result, time.perf_counter() - started


def _whole_cloud_colors(cloud: ColorPointCloud, method: InterpolatorKind, config: UpsampleConfig) -> ColorPointCloud:
    """The cloud upsampled by NN3 or IDW3, in 3D over all its originals."""
    o_ids, r_ids = np.flatnonzero(cloud.original), np.flatnonzero(~cloud.original)
    rows = cloud.positions[o_ids], cloud.colors[o_ids], cloud.positions[r_ids]
    colors = interpolate_nn3(*rows) if method is InterpolatorKind.NN3 else interpolate_idw(*rows, power=config.idw_power)
    return _colored(cloud, r_ids, colors)


def _colored(cloud: ColorPointCloud, ids: np.ndarray, rows: np.ndarray) -> ColorPointCloud:
    """The cloud with the points `ids` colored `rows` and no other Reconstruct point colored."""
    colors, colored = cloud.colors.copy(), cloud.original.copy()
    colors[ids], colored[ids] = rows, True
    return ColorPointCloud(cloud.positions, colors, cloud.original, colored)
