"""The task runner behind the threaded float layers."""

import threading
import time

import pytest

from daverify import _workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_task_order_and_threads_joined(workers, monkeypatch):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    threads = threading.active_count()
    # later tasks finish first when they run side by side
    tasks = [lambda i=i: time.sleep(0.002 * (5 - i)) or i for i in range(5)]
    assert _workers.run(tasks) == list(range(5))
    assert _workers.run([]) == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_error_in_task_order_after_every_task_ran(workers, monkeypatch):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    threads = threading.active_count()
    ran = []

    def fail(i):
        ran.append(i)
        raise ValueError(i)

    tasks = [lambda: ran.append(0), lambda: fail(1), lambda: fail(2)]
    with pytest.raises(ValueError, match="1"):
        _workers.run(tasks)
    assert threading.active_count() == threads
    # with one worker the loop stops at the first error
    assert sorted(ran) == ([0, 1] if workers == 1 else [0, 1, 2])
