"""The start-up contract: scipy is loaded only by a run that reaches LIN2,
on one BLAS thread, and neither `multiprocessing` nor `concurrent.futures`
by any run that does not load scipy: the process pool forks bare.

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

# prints which of the watched modules are loaded after running the statement given as argv[1]
PROBE = """
import json, sys
exec(sys.argv[1])
watched = ("scipy", "multiprocessing", "concurrent.futures")
print(json.dumps({"code": globals().get("code"), "loaded": [name for name in watched if name in sys.modules]}))
"""


def fresh_run(statement, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROBE, statement], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def cli_statement(*argv, one_core=False):
    pin = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if one_core else ""
    return f"{pin}from cloudcolor.cli import main; code = main({list(argv)!r})"


@pytest.fixture(scope="module")
def mixed_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "mixed.ply"
    path.write_bytes(write_ply(random_downsample(sphere_cloud(n_points=200, seed=1), 0.5, seed=2), include_roles=True))
    return path


@pytest.mark.parametrize("statement", ["import cloudcolor", "import cloudcolor.cli"])
def test_import_loads_no_scipy(statement, tmp_path):
    assert fresh_run(statement, tmp_path) == {"code": None, "loaded": []}


@pytest.mark.parametrize("method", ["fsmmr", "nn3", "idw3", "idw2"])
def test_upsample_without_lin2_loads_no_scipy(method, mixed_ply, tmp_path):
    # FSMMR and IDW2 split their blocks over the usable cores, by a bare fork
    out = tmp_path / "out.ply"
    assert fresh_run(cli_statement("upsample", "--method", method, str(mixed_ply), str(out)), tmp_path) == {"code": 0, "loaded": []}
    assert out.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("method", ["fsmmr", "nn3", "idw3", "idw2"])
def test_one_core_upsample_without_lin2_loads_no_watched_module(method, mixed_ply, tmp_path):
    out = tmp_path / "out.ply"
    statement = cli_statement("upsample", "--method", method, str(mixed_ply), str(out), one_core=True)
    assert fresh_run(statement, tmp_path) == {"code": 0, "loaded": []}
    assert out.exists()


def test_flatten_loads_no_scipy(mixed_ply, tmp_path):
    out = tmp_path / "flat.csv"
    assert fresh_run(cli_statement("flatten", str(mixed_ply), str(out)), tmp_path) == {"code": 0, "loaded": []}
    assert out.exists()


def test_lin2_loads_scipy_and_writes_the_in_process_bytes(mixed_ply, tmp_path):
    fresh, here = tmp_path / "fresh.ply", tmp_path / "here.ply"
    result = fresh_run(cli_statement("upsample", "--method", "lin2", str(mixed_ply), str(fresh)), tmp_path)
    assert result["code"] == 0 and "scipy" in result["loaded"]  # scipy itself loads concurrent.futures
    assert main(["upsample", "--method", "lin2", str(mixed_ply), str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


@pytest.fixture(scope="module")
def colored_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "colored.ply"
    path.write_bytes(write_ply(sphere_cloud(n_points=200, seed=1)))
    return path


def test_evaluate_without_lin2_loads_no_scipy(colored_ply, tmp_path):
    out = tmp_path / "report.csv"
    assert fresh_run(cli_statement("evaluate", "--methods", "fsmmr,nn3", str(colored_ply), str(out)), tmp_path) == {"code": 0, "loaded": []}
    assert out.exists()


def test_evaluate_with_lin2_loads_scipy_and_writes_the_in_process_bytes(colored_ply, tmp_path):
    fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
    result = fresh_run(cli_statement("evaluate", "--methods", "nn3,lin2", str(colored_ply), str(fresh)), tmp_path)
    assert result["code"] == 0 and "scipy" in result["loaded"]
    assert main(["evaluate", "--methods", "nn3,lin2", str(colored_ply), str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


# the threads of this process before and after scipy loads, and the variable afterwards
THREADS = """
from cloudcolor.baselines import load_delaunay
def threads():
    return int(next(line for line in open("/proc/self/status") if line.startswith("Threads:")).split()[1])
before = threads()
load_delaunay()
code = [before, threads(), os.environ.get("OPENBLAS_NUM_THREADS")]
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="counts threads in /proc")
@pytest.mark.parametrize("variable", [None, "2"])
def test_scipy_loads_on_one_blas_thread_unless_the_variable_is_set(variable, tmp_path, monkeypatch):
    if variable is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", variable)
    before, after, left = fresh_run("import os\n" + THREADS, tmp_path)["code"]
    assert left == variable
    if variable is None:
        assert after == before  # scipy's OpenBLAS started no worker thread
