"""Run a short list of independent tasks on up to two threads.

A task is a callable with no arguments. Each task runs whole on one thread,
so its result does not depend on how many threads there are; the callers
keep it that way by giving tasks only numpy operations on arrays they
allocated, and by never splitting one reduction over two tasks.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# Two threads: numpy releases the interpreter lock inside its loops, and
# each further thread adds its own buffers to the peak memory.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 2)


def run(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Each task's result, in task order. The calling thread and WORKERS - 1
    threads started here take the tasks in order, and the threads are
    joined before the call returns; with one worker the tasks run in a
    loop. The first exception, in task order, is raised after the join."""
    workers = min(WORKERS, len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    results: list = [None] * len(tasks)
    errors: list = [None] * len(tasks)
    pending = iter(range(len(tasks)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except BaseException as exc:  # raised again by the caller
                errors[i] = exc

    # threads of their own, not a concurrent.futures pool, whose first
    # import alone allocates about 0.6 MB
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
