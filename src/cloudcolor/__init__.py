"""Color upsampling for 3D point clouds.

Flattens local surface patches to 2D along a minimum spanning tree and
reconstructs missing colors with a greedy sparse approximation over DCT
basis functions, plus baseline interpolators and an evaluation harness.
"""

from .baselines import InterpolatorKind
from .core import Block, ColorPointCloud, partition_into_blocks
from .evaluation import ExperimentReport, ExperimentSpec, random_downsample, reconstruction_color_psnr, run_experiment
from .fsmmr import FsmmrConfig, ScatteredSamples, SparseModel, evaluate_model, generate_model, upsample_block
from .pipeline import BlockGeometry, UpsampleConfig, upsample_cloud
from .ply_io import PlyFormat, read_ply, write_ply
from .surface_transform import build_mst, flatten_block

__version__ = "0.1.0"

__all__ = [
    "Block", "ColorPointCloud", "partition_into_blocks",
    "PlyFormat", "read_ply", "write_ply",
    "build_mst", "flatten_block",
    "FsmmrConfig", "ScatteredSamples", "SparseModel",
    "generate_model", "evaluate_model", "upsample_block",
    "InterpolatorKind", "UpsampleConfig", "BlockGeometry", "upsample_cloud",
    "ExperimentSpec", "ExperimentReport",
    "random_downsample", "reconstruction_color_psnr", "run_experiment",
]
