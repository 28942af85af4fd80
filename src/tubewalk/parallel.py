"""The task map of the per-n ladder and the gamma table.

Every run is sequential: ``thread_map`` is a plain ordered map, and
``max_workers`` is 1 for any task count.  A thread pool never paid here,
as each task's Python glue holds the interpreter lock.  The module stays
only because the benchmark's tracer wraps both names to time the tasks;
deleting it, and the tracer's pool figures with it, is a change to the
benchmark of its own.
"""

from __future__ import annotations


def max_workers(n_tasks: int) -> int:
    """The tasks run at once: always 1."""
    return 1


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, in order."""
    return [fn(item) for item in items]
