import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from polyspec._memo import build_once


def test_threads_asking_for_one_key_build_it_once():
    builds = []
    start = threading.Barrier(8)

    @build_once
    def table(key):
        builds.append(key)
        time.sleep(0.05)  # keep the build open while the other threads ask
        return object()

    def ask(_):
        start.wait()
        return table(3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the check and the build
    try:
        with ThreadPoolExecutor(8) as pool:
            values = list(pool.map(ask, range(8), timeout=10.0))
    finally:
        sys.setswitchinterval(interval)
    assert builds == [3]
    assert all(v is values[0] for v in values)


def test_build_may_ask_its_own_memo_for_another_key():
    # as psi level n builds level n - 1
    @build_once
    def level(n):
        return 1 if n == 0 else n * level(n - 1)

    done = []
    worker = threading.Thread(target=lambda: done.append(level(5)), daemon=True)
    worker.start()
    worker.join(5.0)
    assert done == [120]
    assert level(4) == 24


def test_failed_build_leaves_key_missing():
    calls = []

    @build_once
    def flaky(key):
        calls.append(key)
        if len(calls) == 1:
            raise RuntimeError("first build fails")
        return key * 2

    with pytest.raises(RuntimeError):
        flaky(7)
    assert flaky(7) == 14
    assert flaky(7) == 14
    assert calls == [7, 7]
