import threading

import pytest

from bridgediff import parallel


@pytest.mark.parametrize("n_tasks,workers", [(1, 1), (3, 3), (100, 4)])
def test_run_picks_at_most_one_worker_per_task_and_max_workers(monkeypatch, n_tasks, workers):
    # However many CPUs the mask shows, one worker per task, at most
    # MAX_WORKERS; the calling thread is one of them.
    monkeypatch.setattr(parallel, "worker_count", lambda: 64)
    assert parallel.MAX_WORKERS == 4
    started = []
    start = threading.Thread.start

    def record_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record_start)

    def work(claim):
        claimed = []
        while (task := claim()) is not None:
            claimed.append(task)
        return threading.get_ident(), claimed

    results = parallel.run(work, iter(range(n_tasks)), n_tasks)
    assert len(started) == workers - 1
    assert len(results) == workers
    assert threading.get_ident() in {ident for ident, _ in results}
    assert sorted(task for _, claimed in results for task in claimed) == list(range(n_tasks))
