"""Deterministic worker-pool helper.

Tasks carry their own derived random streams, so values never depend on
scheduling; results are gathered in task order.  ``TUBEWALK_THREADS``
caps the pool size (1 disables threading; unset, empty or 0 means the
default, min(4, CPU count)).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_cap() -> int:
    """The ``TUBEWALK_THREADS`` pool cap; ValueError unless a non-negative integer."""
    raw = os.environ.get("TUBEWALK_THREADS", "").strip()
    try:
        cap = int(raw) if raw else 0
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"TUBEWALK_THREADS must be a non-negative integer, got {raw!r}")
    return cap or min(4, os.cpu_count() or 1)


def max_workers(n_tasks: int) -> int:
    return max(1, min(thread_cap(), n_tasks))


def thread_map(fn, items) -> list:
    """Map preserving order; parallel when the pool allows it."""
    items = list(items)
    workers = max_workers(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
