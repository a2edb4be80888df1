import faulthandler
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cloudcolor import parallel
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


@pytest.fixture
def no_workers_left():
    """Fail a test that leaves a worker process running, and end one that
    hangs after two minutes instead of stalling the suite."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
    assert multiprocessing.active_children() == []


@pytest.fixture
def worker_pids(monkeypatch, tmp_path):
    """Reads the pids of the worker processes forked so far: each appends
    its own to a log as it starts."""
    log, enter = tmp_path / "worker_pids", parallel._enter_worker

    def recording_enter(*share):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        enter(*share)

    monkeypatch.setattr(parallel, "_enter_worker", recording_enter)
    return lambda: log.read_text().split() if log.exists() else []
