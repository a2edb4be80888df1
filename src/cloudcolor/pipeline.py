"""Cloud-level upsampling: dispatch a method over the block partition (or,
for the 3D baselines, one block of every point id in 3D) and assemble the
output cloud.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .baselines import InterpolatorKind, interpolate_idw, interpolate_lin2, interpolate_nn3, load_delaunay
from .core import Block, ColorPointCloud, as_instance, as_list, as_number, nearest_original_color, partition_into_blocks, positive_real
from .errors import CloudColorError, EmptySamples, InvalidConfig
from .fsmmr import FsmmrConfig, _upsample_share, _Window
from .parallel import map_on_cores
from .surface_transform import flatten_block

_WHOLE_CLOUD_METHODS = (InterpolatorKind.NN3, InterpolatorKind.IDW3)  # 3D, on role splits of the block of every point id


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
        as_instance(self.fsmmr, "fsmmr", FsmmrConfig)


def _block_colors(
    block: Block, coords: Callable[[], np.ndarray], cloud: ColorPointCloud, method: InterpolatorKind,
    config: UpsampleConfig, fit: Callable,
) -> tuple[np.ndarray, np.ndarray]:
    """Colors for the Reconstruct points of `block` by any method, as the
    ids of the points colored and a (k, 3) uint8 array.  `cloud` gives the
    roles and colors, and `coords()` the coordinates of the block's points,
    row i being its i-th point, or their error: a partition block's
    flattened (n, 2) coordinates for FSMMR, IDW2 and LIN2, and the 3D
    positions of the block of every point id for NN3 and IDW3.

    A block without Reconstruct points colors nothing.  A block without
    Original points takes the nearest original in 3D over the whole cloud,
    except under LIN2, which leaves its points uncolored.  Otherwise the
    method interpolates its originals' colors at the block's coordinates;
    the points it leaves uncolored are left out.  FSMMR's colors are
    ``fit(o_coords, o_colors, r_coords)``.
    """
    ids = block.point_ids
    is_original = cloud.original[ids]
    r_ids = ids[~is_original]
    if not r_ids.size or (method is InterpolatorKind.LIN2_DELAUNAY and not is_original.any()):
        return r_ids[:0], np.empty((0, 3), dtype=np.uint8)
    if not is_original.any():
        return r_ids, nearest_original_color(cloud, cloud.positions[r_ids])

    flat = coords()
    if isinstance(flat, CloudColorError):
        raise flat
    o_coords, o_colors, r_coords = flat[is_original], cloud.colors[ids[is_original]], flat[~is_original]
    if method is InterpolatorKind.FSMMR:
        return r_ids, fit(o_coords, o_colors, r_coords)
    if method is InterpolatorKind.NN3:
        return r_ids, interpolate_nn3(o_coords, o_colors, r_coords)
    if method in (InterpolatorKind.IDW2, InterpolatorKind.IDW3):
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
    cloud, method = as_instance(cloud, "cloud", ColorPointCloud), as_instance(method, "method", InterpolatorKind)
    [[(upsampled, _)]] = upsample_clouds([cloud], [method], config)
    if isinstance(upsampled, CloudColorError):
        raise upsampled
    return upsampled


def upsample_clouds(
    clouds: Sequence[ColorPointCloud], methods: Sequence[InterpolatorKind], config: UpsampleConfig = UpsampleConfig(),
) -> list[list[tuple[ColorPointCloud | CloudColorError, float]]]:
    """Entry [i][j] is what ``upsample_cloud(clouds[i], methods[j], config)``
    returns, or the CloudColorError it raises, and the seconds spent coloring
    it, summed over its blocks wherever they ran (the first entry to reach a
    block pays for flattening it, and a lockstep FSMMR fit's seconds are
    split evenly over its blocks).  The clouds must share their positions
    (InvalidConfig otherwise), as role splits of one cloud do: the blocks
    run on every usable core in one `parallel.map_on_cores` call.  An NN3
    or IDW3 entry is the role split of one block of every point id, colored
    in 3D by `_block_colors` like a partition block's, and rides with a
    block in that call; a call without a 2D entry partitions nothing and
    forks nothing.  Each process flattens each block of its
    share and maps it onto the FSMMR window at most once, colors it for
    every cloud and 2D method, and fits the FSMMR blocks of its whole share
    in one call, which fits the blocks with equal numbers of originals in
    lockstep.  A partition that raises fills every 2D entry; an entry whose
    blocks raise holds the error of the lowest-index one, whatever the
    number of processes.
    """
    as_instance(config, "config", UpsampleConfig)
    clouds = [as_instance(cloud, f"clouds[{i}]", ColorPointCloud) for i, cloud in enumerate(as_list(clouds, "clouds"))]
    methods = [as_instance(method, f"methods[{j}]", InterpolatorKind) for j, method in enumerate(as_list(methods, "methods"))]
    if any(not np.array_equal(cloud.positions, clouds[0].positions) for cloud in clouds):
        raise InvalidConfig("the clouds to upsample together must share their positions")
    entries: list[list] = [[None] * len(methods) for _ in clouds]
    pairs, whole = [], []  # the (cloud, method) indices that color partition blocks, and those that color the whole cloud
    for i, cloud in enumerate(clouds):
        for j, method in enumerate(methods):
            if not cloud.original.any():
                entries[i][j] = EmptySamples("upsampling requires at least one original point"), 0.0
            elif cloud.original.all():  # nothing to reconstruct
                entries[i][j] = cloud, 0.0
            else:
                (whole if method in _WHOLE_CLOUD_METHODS else pairs).append((i, j))
    whole.sort(key=lambda entry: _WHOLE_CLOUD_METHODS.index(methods[entry[1]]))  # so that each share gets both methods
    if whole:  # the block of every point id, whose role splits NN3 and IDW3 color in 3D, so it is never flattened
        everything = Block((0, 0, 0), np.arange(len(clouds[0].positions)))
    blocks = [everything] if whole else []  # with no 2D entry to color, the one item, which runs in this process
    if pairs:
        try:
            blocks = partition_into_blocks(clouds[0], config.block_size)
        except CloudColorError as error:
            for i, j in pairs:
                entries[i][j] = error, 0.0
            pairs.clear()

    def color_share(share: Sequence[tuple[Block, list]]) -> list[dict]:
        problems, done = [], []  # the FSMMR problems of the share's blocks, fitted together below
        for block, riders in share:
            coords = cache(lambda block=block: _timed(flatten_block, block, clouds[0], config.root_seed)[0])  # an error is kept too
            window = cache(lambda coords=coords: _timed(_Window, coords(), config.fsmmr)[0])  # built by the first fit that reads it
            row = {(i, j): _timed(_block_colors, block, coords, clouds[i], methods[j], config,
                                  lambda *problem: problems.append((*problem, window, clouds[i].original[block.point_ids])))
                   for i, j in pairs}  # an FSMMR entry's colors read None until its fit below
            done.append(row | {(i, j): _timed(_block_colors, everything, lambda: clouds[0].positions, clouds[i], methods[j],
                                              config, None) for i, j in riders})
        fits = iter(_upsample_share(problems, config.fsmmr))  # in the order of the entries they fill
        for row in done:
            for entry, (colored, seconds) in row.items():
                if not isinstance(colored, CloudColorError) and colored[1] is None:
                    colors, fit_seconds = next(fits)
                    row[entry] = colors if isinstance(colors, CloudColorError) else (colored[0], colors), seconds + fit_seconds
        return done

    if any(methods[j] is InterpolatorKind.LIN2_DELAUNAY for _, j in pairs):
        load_delaunay()  # before the fork, so that every process shares one single-threaded scipy
    # whole-cloud entry k rides with block k mod len(blocks), so that it overlaps with the other blocks
    done = map_on_cores(color_share, [(block, whole[b::len(blocks)]) for b, block in enumerate(blocks)])
    for i, j in pairs + whole:  # each cloud built here: one sent back from a worker would be writeable
        parts, seconds = zip(*(row[i, j] for row in done if (i, j) in row))
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


def _colored(cloud: ColorPointCloud, ids: np.ndarray, rows: np.ndarray) -> ColorPointCloud:
    """The cloud with the points `ids` colored `rows` and no other Reconstruct point colored."""
    colors, colored = cloud.colors.copy(), cloud.original.copy()
    colors[ids], colored[ids] = rows, True
    return ColorPointCloud(cloud.positions, colors, cloud.original, colored)
