"""The package's one process pool, `parallel.map_on_cores`, which calls its
function once per share of the items, and the count of usable cores that
sizes it."""
import os
import time

import pytest

from cloudcolor import parallel


def failing_at_1_late_and_2_at_once(share):
    for item in share:
        if item == 1:
            time.sleep(0.3)
        if item in (1, 2):
            raise ValueError(f"item {item} fails")
    return [-item for item in share]


@pytest.mark.parametrize("processes, lowest", [(2, 2), (3, 1)])
def test_the_lowest_failing_share_gives_the_error_when_a_higher_one_fails_first(processes, lowest, monkeypatch):
    # item 1 runs in worker share 1 and fails 0.3 s after item 2, which runs
    # here in share 0 at 2 processes and in worker share 2 at 3
    monkeypatch.setattr(parallel, "_usable_cores", lambda: processes)
    with pytest.raises(ValueError, match=f"^item {lowest} fails$"):
        parallel.map_on_cores(failing_at_1_late_and_2_at_once, range(4))


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_each_share_is_one_call_and_results_come_back_in_item_order(processes, monkeypatch, worker_pids):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: processes)
    results = parallel.map_on_cores(lambda share: [(item, tuple(share)) for item in share], range(7))
    assert [item for item, _ in results] == list(range(7))
    assert {share for _, share in results} == {tuple(range(w, 7, processes)) for w in range(processes)}
    assert len(worker_pids()) == processes - 1


def test_usable_cores_are_the_affinity_and_one_without_it(monkeypatch, worker_pids):
    assert parallel._usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel._usable_cores() == 1
    assert parallel.map_on_cores(lambda share: [(item, os.getpid()) for item in share], range(4)) == [(i, os.getpid()) for i in range(4)]
    assert worker_pids() == []
