"""Memoised table builds that run once per key, also under threads."""

from __future__ import annotations

import functools
import threading


def build_once(fn):
    """Memoise fn on its positional arguments.

    A missing key is built under the memo's one reentrant lock: threads that
    ask for it together wait for a single build, a build may ask its own
    memo for another key, and builds of different keys run one at a time.  A
    cached key is read without the lock.  The wrapper has cache_clear().
    """
    cache: dict = {}
    lock = threading.RLock()

    @functools.wraps(fn)
    def wrapper(*args):
        if args not in cache:
            with lock:
                if args not in cache:  # else built while this thread waited
                    cache[args] = fn(*args)
        return cache[args]

    wrapper.cache_clear = cache.clear
    return wrapper
