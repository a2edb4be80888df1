"""The package's one process pool, `parallel.map_on_cores`, which calls its
function once per share of the items, and the count of usable cores that
sizes it."""
import os
import pickle
import threading
import time

import pytest

from cloudcolor import parallel
from cloudcolor.errors import CloudColorError, InvalidInput, ParseError


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


def test_every_domain_error_survives_a_pickle_round_trip():
    # a worker's exception crosses its pipe pickled
    def subclasses(cls):
        return [cls] + [c for sub in cls.__subclasses__() for c in subclasses(sub)]

    errors = [cls("bad", 87) if cls is ParseError else cls("bad") for cls in subclasses(CloudColorError)]
    assert {type(error) for error in errors} >= {ParseError, InvalidInput}
    for error in errors:
        back = pickle.loads(pickle.dumps(error))
        assert (type(back), str(back)) == (type(error), str(error))
    assert str(pickle.loads(pickle.dumps(ParseError("bad", 87)))) == "bad (at byte 87)"


def worker_share(action):
    """A share function that runs `action` on the worker's share and returns the items otherwise."""
    return lambda share: action(share) if 0 not in share else list(share)


@pytest.mark.parametrize("action, message", [
    (lambda share: [threading.Lock() for _ in share], "a worker's result cannot be pickled: cannot pickle '_thread.lock' object"),
    (lambda share: exec("raise type('Local', (ValueError,), {})('mine')"), "a worker's exception Local cannot be pickled: "),
    (lambda share: os._exit(3), "a worker process ended abruptly with exit status 3"),
])
def test_a_worker_that_cannot_send_its_outcome_is_a_cloudcolor_error(action, message, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    with pytest.raises(CloudColorError) as error:
        parallel.map_on_cores(worker_share(action), range(2))
    assert str(error.value).startswith(message)


def test_a_worker_blocked_on_its_full_pipe_ends_when_share_0_raises(monkeypatch):
    # the worker's 10 MB result fills its pipe long before this process reads it; no_workers_left sees it reaped
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)

    def share_0_fails(share):
        if 0 in share:
            raise ValueError("share 0 fails")
        return [b"x" * 10_000_000 for _ in share]

    with pytest.raises(ValueError, match="^share 0 fails$"):
        parallel.map_on_cores(share_0_fails, range(2))
