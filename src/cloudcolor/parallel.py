"""Independent work items on every usable core: the one process pool of the
package, which runs the blocks of `pipeline.upsample_clouds`, and so those
of every 2D upsample and of the `evaluate` sweep, in one fork per call.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence

from .errors import CloudColorError

_forked: tuple = ()  # (function, items, processes), set only in a forked worker


def map_on_cores(function: Callable, items: Sequence) -> list:
    """``[function(item) for item in items]`` on W = min(len(items), usable
    cores) processes.  This process runs items 0, W, 2W, …; W - 1 forked
    workers run the other shares, inheriting `function` and `items` and
    whatever they reach, so nothing is pickled on the way in.  Results come
    back in item order, so they do not depend on W.

    Each share stops at its first item that raises; the exception of the
    lowest such item is raised, as the one-process loop would.  A worker
    that ends abruptly raises CloudColorError.
    """
    processes = 1 if len(items) < 2 else min(len(items), _usable_cores())
    if processes == 1:
        done = [_run_share(function, items)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_enter_worker, initargs=(function, items, processes)) as pool:
            futures = [pool.submit(_run_forked_share, w) for w in range(1, processes)]
            done = [_run_share(function, items[::processes])]
            try:
                done += [future.result() for future in futures]
            except BrokenProcessPool as exc:
                raise CloudColorError(f"a worker process ended abruptly: {exc}") from None
    failures = [(w + processes * len(results), error) for w, (results, error) in enumerate(done) if error is not None]
    if failures:
        raise min(failures)[1]
    return [done[i % processes][0][i // processes] for i in range(len(items))]


def _usable_cores() -> int:
    """The cores this process may run on, by `os.sched_getaffinity`; 1 where
    that call is missing (macOS, Windows).  Every platform that has it
    (Linux, FreeBSD) can fork."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_share(function: Callable, items: Sequence) -> tuple[list, Exception | None]:
    """The results of `items` up to the first that raises, and its exception."""
    results = []
    try:
        for item in items:
            results.append(function(item))
    except Exception as error:
        return results, error
    return results, None


def _enter_worker(*share) -> None:
    global _forked
    _forked = share


def _run_forked_share(w: int) -> tuple[list, Exception | None]:
    function, items, processes = _forked
    return _run_share(function, items[w::processes])
