"""The start-up contract: scipy is loaded only by a run that reaches LIN2.

Every case runs in a fresh interpreter, because the rest of the suite loads
scipy in this one.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cloudcolor
from cloudcolor.cli import main
from cloudcolor.evaluation import random_downsample, sphere_cloud
from cloudcolor.ply_io import write_ply

SRC = str(Path(cloudcolor.__file__).resolve().parents[1])

# prints whether scipy is loaded after running the statement given as argv[1]
PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps({"code": globals().get("code"), "scipy": "scipy" in sys.modules}))
"""


def fresh_run(statement, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROBE, statement], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def cli_statement(*argv):
    return f"from cloudcolor.cli import main; code = main({list(argv)!r})"


@pytest.fixture(scope="module")
def mixed_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "mixed.ply"
    path.write_bytes(write_ply(random_downsample(sphere_cloud(n_points=200, seed=1), 0.5, seed=2), include_roles=True))
    return path


@pytest.mark.parametrize("statement", ["import cloudcolor", "import cloudcolor.cli"])
def test_import_loads_no_scipy(statement, tmp_path):
    assert fresh_run(statement, tmp_path) == {"code": None, "scipy": False}


@pytest.mark.parametrize("method", ["fsmmr", "nn3", "idw3", "idw2"])
def test_upsample_without_lin2_loads_no_scipy(method, mixed_ply, tmp_path):
    out = tmp_path / "out.ply"
    assert fresh_run(cli_statement("upsample", "--method", method, str(mixed_ply), str(out)), tmp_path) == \
        {"code": 0, "scipy": False}
    assert out.exists()


def test_flatten_loads_no_scipy(mixed_ply, tmp_path):
    out = tmp_path / "flat.csv"
    assert fresh_run(cli_statement("flatten", str(mixed_ply), str(out)), tmp_path) == {"code": 0, "scipy": False}
    assert out.exists()


def test_lin2_loads_scipy_and_writes_the_in_process_bytes(mixed_ply, tmp_path):
    fresh, here = tmp_path / "fresh.ply", tmp_path / "here.ply"
    assert fresh_run(cli_statement("upsample", "--method", "lin2", str(mixed_ply), str(fresh)), tmp_path) == \
        {"code": 0, "scipy": True}
    assert main(["upsample", "--method", "lin2", str(mixed_ply), str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()
