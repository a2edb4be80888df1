"""Independent work items on every usable core: the one process pool of the
package, which runs the blocks of `pipeline.upsample_clouds`, and so those
of every 2D upsample and of the `evaluate` sweep, in one fork per call:
each process takes its share of the blocks as one unit.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence

from .errors import CloudColorError

_forked: tuple = ()  # (function, items, processes), set only in a forked worker


def map_on_cores(function: Callable, items: Sequence) -> list:
    """The results of `function` over `items` on W = min(len(items), usable
    cores) processes, in item order.  `function` takes a share of the items
    and returns one result per item of it: this process runs share 0 (items
    0, W, 2W, …), and W - 1 forked workers run the others, inheriting
    `function` and `items` and whatever they reach, so nothing is pickled on
    the way in.  The results do not depend on W as long as an item's result
    does not depend on its share.

    The exception of the lowest share that raises is raised.  A worker that
    ends abruptly raises CloudColorError.
    """
    processes = 1 if len(items) < 2 else min(len(items), _usable_cores())
    if processes == 1:
        return list(function(items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_enter_worker, initargs=(function, items, processes)) as pool:
        futures = [pool.submit(_run_forked_share, w) for w in range(1, processes)]
        done = [function(items[::processes])]
        try:
            done += [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise CloudColorError(f"a worker process ended abruptly: {exc}") from None
    return [done[i % processes][i // processes] for i in range(len(items))]


def _usable_cores() -> int:
    """The cores this process may run on, by `os.sched_getaffinity`; 1 where
    that call is missing (macOS, Windows).  Every platform that has it
    (Linux, FreeBSD) can fork."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _enter_worker(*share) -> None:
    global _forked
    _forked = share


def _run_forked_share(w: int) -> list:
    function, items, processes = _forked
    return function(items[w::processes])
