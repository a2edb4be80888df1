import faulthandler
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cloudcolor import parallel, ply_io
from cloudcolor.core import ColorPointCloud
from cloudcolor.evaluation import sphere_cloud


def random_cloud(n, seed, extent=10.0):
    """Fully colored random cloud with float32-exact coordinates."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, extent, size=(n, 3)).astype(np.float32)
    colors = rng.integers(0, 256, size=(n, 3))
    return ColorPointCloud(pos, colors)


def far_pair_cloud():
    """`sphere_cloud(60)` and two far points that share a block 1e155 wide
    and cannot be flattened together: at block size 1e155 every block method
    that reaches their block flags its row with `error:`."""
    base = sphere_cloud(60)
    return ColorPointCloud(
        np.concatenate([base.positions, [[3e155, 0, 0], [3.5e155, 0, 0]]]),
        np.concatenate([base.colors, [[10, 20, 30], [40, 50, 60]]]),
    )


@pytest.fixture
def small_cloud():
    return random_cloud(20, seed=1)


@pytest.fixture(autouse=True)
def no_workers_left():
    """Fail any test that leaves a child process, running or unreaped, and
    end one that hangs after two minutes instead of stalling the suite: every
    sweep and 2D upsample over more than one block, and every write of an
    ASCII PLY body of more than one slice of 4,096 rows (the last one
    shorter), forks; a read, by numpy's reader with a row pass only to name
    an error, forks nothing."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
    try:  # a child that still runs reads (0, 0), an unreaped one its (pid, status)
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no child at all
        return
    pytest.fail(f"a child process was left behind: waitpid reads {left}")


@pytest.fixture(params=[(processes, rows) for processes in (1, 2, 3) for rows in (1, 7, ply_io._ASCII_CHUNK_ROWS)],
                ids=lambda param: "{}proc-{}rows".format(*param))
def ascii_chunks(request, monkeypatch):
    """ASCII PLY bodies written in slices of 1, 7 or the default 4,096
    rows, the last one shorter, on 1, 2 or 3 processes.  Only the writer
    reads these settings: numpy's reader reads in one process, as the read
    tests that take them check."""
    processes, rows = request.param
    monkeypatch.setattr(parallel, "_usable_cores", lambda: processes)
    monkeypatch.setattr(ply_io, "_ASCII_CHUNK_ROWS", rows)


@pytest.fixture
def worker_pids(monkeypatch, tmp_path):
    """Reads the pids of the worker processes forked so far: each appends
    its own to a log as it starts its share."""
    log, run_share = tmp_path / "worker_pids", parallel._run_share

    def recording_run_share(*args):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return run_share(*args)

    monkeypatch.setattr(parallel, "_run_share", recording_run_share)
    return lambda: log.read_text().split() if log.exists() else []
