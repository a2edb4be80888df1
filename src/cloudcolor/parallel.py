"""Independent work items on every usable core: the one process pool of the
package.  It runs the blocks of `pipeline.upsample_clouds` (every 2D upsample
and the `evaluate` sweep) and the row chunks of an ASCII PLY body in `ply_io`
with one bare `os.fork` per worker; each process takes its share as one unit.
"""
from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence

from .errors import CloudColorError


def map_on_cores(function: Callable, items: Sequence) -> list:
    """The results of `function` over `items` on W = min(len(items), usable
    cores) processes, in item order.  `function` takes a share of the items
    and returns one result per item of it: this process runs share 0 (items
    0, W, 2W, …), and W - 1 forked workers run the others, inheriting
    `function` and `items`, so nothing is pickled on the way in; each pickles
    its results, or its exception, into a pipe of its own.  The results do
    not depend on W as long as an item's result does not depend on its share.

    The exception of the lowest share that raises is raised.  A worker that
    ends abruptly raises CloudColorError, and so does a worker's result or
    exception that cannot be pickled, naming its type.
    """
    processes = 1 if len(items) < 2 else min(len(items), _usable_cores())
    workers = []  # (pid, read end of its pipe) per worker, in share order
    try:
        for w in range(1, processes):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the worker leaves by os._exit: no exit handler or buffer of this process runs twice
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(_run_share(function, items[w::processes]))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        done = [function(items[::processes])]
        sent = [pipe.read() for _, pipe in workers]
    finally:  # each pipe closed before its worker is reaped: a worker blocked on its full pipe then ends
        codes = [pipe.close() or os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, pipe in workers]
    for data, code in zip(sent, codes):
        if code:
            raise CloudColorError(f"a worker process ended abruptly with exit status {code}")
        raised, value = pickle.loads(data)
        if raised:
            raise value
        done.append(value)
    return [done[i % processes][i // processes] for i in range(len(items))]


def _usable_cores() -> int:
    """The cores this process may run on, by `os.sched_getaffinity`; 1 where
    that call is missing (macOS, Windows).  Every platform that has it
    (Linux, FreeBSD) can fork."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_share(function: Callable, share: Sequence) -> bytes:
    """In a worker: (raised, its share's results or the exception raised), pickled."""
    try:
        outcome = False, list(function(share))
    except BaseException as exc:  # the worker's boundary: the caller raises it
        outcome = True, exc
    try:
        return pickle.dumps(outcome)
    except Exception as exc:
        what = f"exception {type(outcome[1]).__name__}" if outcome[0] else "result"
        return pickle.dumps((True, CloudColorError(f"a worker's {what} cannot be pickled: {exc}")))
