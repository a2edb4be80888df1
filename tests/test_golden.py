"""Golden outputs: SHA-256 of `cloudcolor upsample` PLY bytes and of an
`evaluate` CSV.

The fsmmr/idw2/lin2 upsample digests were recorded before the vectorised
MST path existed, so they pin the output of the seed's pure-Python Kruskal.
The 6k-point sphere at block size 4 has blocks of about 107 points, above
the crossover where `build_mst` switches to the numpy path.  The lin2
digest also pins the CLI's nearest-original hole fill.

The sweep on a 1.5k sphere at density 10% has 9 blocks without any
original point, so its CSV pins the nearest-original fallback of FSMMR and
IDW2 and LIN2's uncolored blocks, as well as LIN2's holes outside the hull.

A change to any digest must be justified, never re-recorded to make this
test pass.
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
    "nn3": "284c80c7f460dd50281943a4319f351204aeaf4ce70fc14f31ef5b8ca1ca7869",
    "idw3": "2e5d24553dbb2727dcc9fcf990047825e2540b91430ba5900ed6d9a1128ca416",
}

GOLDEN_SWEEP_CSV_SHA256 = "d06e88841d3eafa4ebff4d189f7c23189b2d9f0c3b50ef0e3d7f79a684bb88e1"


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


def test_evaluate_csv_digest(tmp_path):
    colored = tmp_path / "sphere1500.ply"
    colored.write_bytes(write_ply(sphere_cloud(n_points=1500, seed=0)))
    out = tmp_path / "report.csv"
    code = main([
        "evaluate", "--methods", "fsmmr,idw2,lin2", "--densities", "10", "--runs", "1",
        "--block-size", "4", str(colored), str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEP_CSV_SHA256
