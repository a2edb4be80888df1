"""The package's one process pool, `parallel.map_on_cores`, and the count of
usable cores that sizes it."""
import os
import time

import pytest

from cloudcolor import parallel


def failing_at_1_late_and_2_at_once(item):
    if item == 1:
        time.sleep(0.3)
    if item in (1, 2):
        raise ValueError(f"item {item} fails")
    return item


@pytest.mark.parametrize("processes", [2, 3])
def test_the_lowest_failing_item_gives_the_error_when_a_higher_one_fails_first(processes, monkeypatch):
    # item 1 runs in a worker and fails 0.3 s after item 2, which runs here at
    # 2 processes and in the other worker at 3
    monkeypatch.setattr(parallel, "_usable_cores", lambda: processes)
    with pytest.raises(ValueError, match="^item 1 fails$"):
        parallel.map_on_cores(failing_at_1_late_and_2_at_once, range(4))


def test_usable_cores_are_the_affinity_and_one_without_it(monkeypatch, worker_pids):
    assert parallel._usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel._usable_cores() == 1
    assert parallel.map_on_cores(lambda item: (item, os.getpid()), range(4)) == [(i, os.getpid()) for i in range(4)]
    assert worker_pids() == []
