"""Golden outputs: SHA-256 of `cloudcolor upsample` PLY bytes.

The digests were recorded before the vectorised MST path existed, so they
pin the output of the seed's pure-Python Kruskal.  The 6k-point sphere at
block size 4 has blocks of about 107 points, above the crossover where
`build_mst` switches to the numpy path.  A change to any digest must be
justified, never re-recorded to make this test pass.
"""
import hashlib

import pytest

from cloudcolor.cli import main
from cloudcolor.evaluation import random_downsample, sphere_cloud
from cloudcolor.ply_io import write_ply

GOLDEN_UPSAMPLE_SHA256 = {
    "fsmmr": "26ee03fafb3db17555e39433ae3d86bf55da3e4ce13167f53670c615f88d6dbf",
    "idw2": "2e1ba95183a97a542e1083c33afce557b1806d95da2eebb4e2b051f17c2540ce",
    "lin2": "60a49da2af05ab8f1f8cca640c7eaed4c91df56a2f737bed494dce028463bf74",
}


@pytest.fixture(scope="module")
def mixed_sphere_ply(tmp_path_factory):
    cloud = random_downsample(sphere_cloud(n_points=6000, seed=0), 0.5, seed=1)
    path = tmp_path_factory.mktemp("golden") / "sphere6k.ply"
    path.write_bytes(write_ply(cloud, include_roles=True))
    return path


@pytest.mark.parametrize("method", sorted(GOLDEN_UPSAMPLE_SHA256))
def test_upsample_output_digest(method, mixed_sphere_ply, tmp_path):
    out = tmp_path / f"{method}.ply"
    code = main(["upsample", "--method", method, "--block-size", "4", str(mixed_sphere_ply), str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_UPSAMPLE_SHA256[method]
