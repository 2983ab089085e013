"""Memoised table builds that run once per key, also under threads."""

from __future__ import annotations

import functools
import threading

_MISSING = object()


def build_once(fn):
    """Memoise fn on its positional arguments.

    Threads that ask for a missing key together wait for a single build; a
    cached key is read without a lock.  The wrapper has cache_clear().
    """
    cache: dict = {}
    locks: dict = {}
    guard = threading.Lock()

    @functools.wraps(fn)
    def wrapper(*args):
        value = cache.get(args, _MISSING)
        if value is _MISSING:
            with guard:
                lock = locks.setdefault(args, threading.Lock())
            with lock:
                value = cache.get(args, _MISSING)  # built while this thread waited
                if value is _MISSING:
                    value = fn(*args)
                    with guard:
                        cache[args] = value
                        locks.pop(args, None)
        return value

    wrapper.cache_clear = cache.clear
    return wrapper
