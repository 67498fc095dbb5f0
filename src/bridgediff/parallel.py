"""One call's independent tasks spread over a few threads.

numpy releases the interpreter lock inside its loops and BLAS calls, so
threads that each run numpy work on their own part of the data use more
than one core. This module owns the worker policy for the whole package:
``run`` uses one worker per CPU this process may run on, at most
``MAX_WORKERS`` and at most one per task. The calling thread is one of the
workers, so a call with one task, or on one CPU, starts no thread.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterator

import numpy as np

# At most this many workers, whatever the CPU count: it bounds the buffers
# one call's workers hold and the threads it starts, and the affinity mask
# does not show a container's CPU quota.
MAX_WORKERS = 4


def worker_count() -> int:
    """One worker per CPU this process may run on (``taskset`` limits it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(work: Callable[[Callable[[], Any]], Any], tasks: Iterator, n_tasks: int) -> list:
    """Call ``work(claim)`` on ``min(worker_count(), MAX_WORKERS, n_tasks)``
    threads, the calling thread among them, and return what the calls
    returned, in no fixed order. ``n_tasks`` is the number of items
    ``tasks`` yields.

    ``claim()`` hands out the next item of ``tasks``, one worker at a time,
    and None once ``tasks`` is exhausted or a worker has failed. Each worker
    runs under the caller's ``np.errstate`` settings: numpy 1 keeps them per
    thread and numpy 2 in a context variable that a new thread does not
    inherit. The first exception a worker raises, ``MemoryError``
    included, stops the others claiming and is raised here once every
    worker has finished.
    """
    errstate = dict(np.geterr(), call=np.geterrcall())
    lock = threading.Lock()
    results: list = []
    failures: list[BaseException] = []

    def claim():
        with lock:
            return None if failures else next(tasks, None)

    def worker() -> None:
        try:
            with np.errstate(**errstate):
                result = work(claim)
        except BaseException as exc:  # re-raised by the caller after the join
            with lock:
                failures.append(exc)
            return
        with lock:
            results.append(result)

    workers = min(worker_count(), MAX_WORKERS, n_tasks)
    helpers = [threading.Thread(target=worker) for _ in range(workers - 1)]
    started = []
    try:
        for thread in helpers:
            thread.start()
            started.append(thread)
        worker()
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[0]
    return results
