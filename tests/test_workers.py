"""The task runner behind the threaded float layers."""

import sys
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_task_0_runs_on_the_calling_thread(workers, monkeypatch):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    caller = threading.get_ident()
    idents = _workers.run([threading.get_ident] * 4)
    assert idents[0] == caller
    assert (set(idents) == {caller}) == (workers == 1)


@pytest.mark.parametrize("workers", [2, 3])
def test_task_i_runs_on_the_thread_of_task_i_mod_workers(workers, monkeypatch):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    # thread objects, not idents, which a later thread may reuse
    threads = _workers.run([threading.current_thread] * 7)
    assert threads[0] is threading.current_thread()
    assert len(set(threads)) == workers
    assert all(threads[i] is threads[i % workers] for i in range(7))


def test_task_0_overlaps_the_other_tasks(monkeypatch):
    # task 0 waits for task 1, which only another thread can run meanwhile
    monkeypatch.setattr(_workers, "WORKERS", 2)
    started = threading.Event()
    assert _workers.run([lambda: started.wait(5.0), started.set]) == [True, None]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_slices_cover_the_range_in_order(workers, monkeypatch):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    for n in (*range(40), 1001, 2 ** 15 + 1):
        cuts = _workers.slices(n)
        assert 1 <= len(cuts) <= workers
        assert [i for s in cuts for i in range(n)[s]] == list(range(n))
        lengths = [len(range(n)[s]) for s in cuts]
        assert max(lengths) - min(lengths) <= 1
        # a one-element slice of a strided column rounds as a contiguous one
        assert n == 1 or min(lengths) >= 2 or len(cuts) == 1


def test_every_task_runs_once_under_frequent_thread_switches(monkeypatch):
    # more threads than CPUs, switching every microsecond: a task run twice
    # or skipped by the round-robin assignment shows as a wrong count
    monkeypatch.setattr(_workers, "WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran = []  # list.append is atomic under the interpreter lock
            tasks = [lambda i=i: ran.append(i) or i for i in range(200)]
            assert _workers.run(tasks) == list(range(200))
            assert sorted(ran) == list(range(200))
    finally:
        sys.setswitchinterval(interval)
