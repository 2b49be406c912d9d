"""Run a short list of independent tasks on up to two threads.

A task is a callable with no arguments. Each task runs whole on one thread,
so its result does not depend on how many threads there are; the callers
keep it that way by giving tasks only numpy operations on arrays they
allocated, and by never splitting one reduction over two tasks.

Task i runs on worker i mod W, W the number of workers, and worker 0 is
the calling thread, which runs its tasks after the other threads have
started: a call starts at most WORKERS - 1 threads. A task on another
thread writes into arrays the caller allocated and allocates none of its
own: glibc keeps the memory a thread frees in that thread's arena, so a
thread that allocates raises the peak memory of the process for good.

The callers are the torus phases and orbit map of `PushforwardMeasure.sample`,
the Cantor cosine product and the IFS phases; README.md gives what each
saves. Every reduction over a sample runs on the calling thread.
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


def slices(n: int) -> list[slice]:
    """range(n) cut into at most WORKERS contiguous slices of near-equal
    length, in order, none of them one element long unless n is 1: numpy
    takes a one-element view of a strided column for contiguous and then
    rounds some complex products differently, as its contiguous loops do."""
    parts = min(WORKERS, max(1, n // 2))
    bounds = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def run(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Each task's result, in task order. Task i runs on worker i mod W, where
    W = min(WORKERS, len(tasks)); worker 0 is the calling thread, and the
    W - 1 threads started here are joined before the call returns. With one
    worker the tasks run in a loop. Otherwise every task runs, and the first
    exception, in task order, is raised after the join."""
    workers = min(WORKERS, len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    results: list = [None] * len(tasks)
    errors: list = [None] * len(tasks)

    def work(w: int) -> None:
        for i in range(w, len(tasks), workers):
            try:
                results[i] = tasks[i]()
            except BaseException as exc:  # raised again by the caller
                errors[i] = exc

    # threads of their own, not a concurrent.futures pool, whose first
    # import alone allocates about 0.6 MB
    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
