"""Golden outputs: SHA-256 of `cloudcolor upsample` PLY bytes and of an
`evaluate` CSV.

The fsmmr/idw2/lin2 upsample digests were recorded before the vectorised
MST path existed, so they pin the output of the seed's pure-Python Kruskal,
which the array Prim of `build_mst` must reproduce on every block
(about 107 points each on the 6k-point sphere at block size 4).  The lin2
digest also pins the CLI's nearest-original hole fill.

The sweep on a 1.5k sphere at density 10% has 9 blocks without any
original point, so its CSV pins the nearest-original fallback of FSMMR and
IDW2 and LIN2's uncolored blocks, as well as LIN2's holes outside the hull.
A second sweep runs the four baselines (nn3, idw3, idw2, lin2) at 10, 50
and 80% on the same sphere, pinning their kernels at the densities where
most blocks have originals.  A third sweep is the full default `evaluate`
run (all five methods at 10, 50 and 80%, 3 runs): the only digest that
covers FSMMR at 50 and 80%.

Three more outputs pin the paths that turn a cloud into bytes and back:
`upsample --ascii` of an ASCII mixed-role input (the ASCII reader and the
shortest-repr float writer), `write_ply` of the plane with a sharp edge and
of the dihedral in both formats (the synthetic generators), and the
`flatten --root-seed 3` CSV (the random root, salted by the block's cell
index).

A change to any digest must be justified, never re-recorded to make this
test pass.
"""
import hashlib

import pytest

from cloudcolor.cli import main
from cloudcolor.evaluation import dihedral_cloud, plane_cloud, random_downsample, sphere_cloud
from cloudcolor.ply_io import PlyFormat, write_ply

GOLDEN_UPSAMPLE_SHA256 = {
    "fsmmr": "26ee03fafb3db17555e39433ae3d86bf55da3e4ce13167f53670c615f88d6dbf",
    "idw2": "2e1ba95183a97a542e1083c33afce557b1806d95da2eebb4e2b051f17c2540ce",
    "lin2": "60a49da2af05ab8f1f8cca640c7eaed4c91df56a2f737bed494dce028463bf74",
    "nn3": "284c80c7f460dd50281943a4319f351204aeaf4ce70fc14f31ef5b8ca1ca7869",
    "idw3": "2e5d24553dbb2727dcc9fcf990047825e2540b91430ba5900ed6d9a1128ca416",
}

GOLDEN_SWEEP_CSV_SHA256 = "d06e88841d3eafa4ebff4d189f7c23189b2d9f0c3b50ef0e3d7f79a684bb88e1"

GOLDEN_BASELINE_SWEEP_CSV_SHA256 = "68f5c48cc712cffb462a43e153cffb162fec68d5c38d71c048b3f2ed5d927db5"

GOLDEN_DEFAULT_SWEEP_CSV_SHA256 = "a115fb92c80697217d68a19cfa1a9bcee80bccecf0631d057fd58bef294e74db"

GOLDEN_ASCII_UPSAMPLE_SHA256 = "06c292770e728d1625306d9b7439aef150f95249715060d1d82ce9a0b0e6e77a"

GOLDEN_GENERATOR_SHA256 = {
    ("plane-edge", "ascii"): "4275b82d188d8e2131a0a1f00d672e76e9c39aa37e3b29c0320a4c2dedbf88bc",
    ("plane-edge", "binary_little_endian"): "7d507e97e2659f820bdcecc49dfe8de228a448aaba44189c3c8113feb07c9f7f",
    ("dihedral", "ascii"): "1379e467fed28a394108c729e2076c791d5a0769d7acd3973489fb23f71f1c1c",
    ("dihedral", "binary_little_endian"): "40a5674092d874903b589a5f1cc6e93716e886019ef44e813b77d9c24e05066a",
}

GOLDEN_FLATTEN_CSV_SHA256 = "0cb3d98fc15a42c692d874336846a4e75f88df720d13475840d3c9a10cd17ea6"


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


def test_baseline_sweep_csv_digest(tmp_path):
    colored = tmp_path / "sphere1500.ply"
    colored.write_bytes(write_ply(sphere_cloud(n_points=1500, seed=0)))
    out = tmp_path / "report.csv"
    code = main([
        "evaluate", "--methods", "nn3,idw3,idw2,lin2", "--densities", "10,50,80", "--runs", "1",
        "--block-size", "4", str(colored), str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_BASELINE_SWEEP_CSV_SHA256


def test_default_sweep_csv_digest(tmp_path):
    colored = tmp_path / "sphere1500.ply"
    colored.write_bytes(write_ply(sphere_cloud(n_points=1500, seed=0)))
    out = tmp_path / "report.csv"
    assert main(["evaluate", str(colored), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DEFAULT_SWEEP_CSV_SHA256


def test_ascii_upsample_digest(tmp_path):
    mixed = tmp_path / "sphere1500.ply"
    cloud = random_downsample(sphere_cloud(n_points=1500, seed=2), 0.3, seed=4)
    mixed.write_bytes(write_ply(cloud, PlyFormat.ASCII, include_roles=True))
    out = tmp_path / "out.ply"
    assert main(["upsample", "--ascii", "--block-size", "4", str(mixed), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ASCII_UPSAMPLE_SHA256


@pytest.mark.parametrize("shape, fmt", sorted(GOLDEN_GENERATOR_SHA256))
def test_generator_digest(shape, fmt):
    cloud = plane_cloud(sharp_edge=True) if shape == "plane-edge" else dihedral_cloud()
    data = write_ply(cloud, PlyFormat(fmt))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_GENERATOR_SHA256[(shape, fmt)]


def test_flatten_random_root_csv_digest(mixed_sphere_ply, tmp_path):
    out = tmp_path / "flat.csv"
    code = main(["flatten", "--root-seed", "3", "--block", "7", str(mixed_sphere_ply), str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FLATTEN_CSV_SHA256
