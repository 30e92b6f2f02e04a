"""Thread budgeting for embarrassingly parallel sweeps.

Work items here are independent by construction (per-replica noise
streams, per-point planner searches), so threads only affect wall time,
never results.
"""

from __future__ import annotations

import contextvars
import os
from typing import Callable, Iterable, Sequence, TypeVar

from ._scalars import count

ENV_THREADS = "LANGEVIN_LAB_THREADS"

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ENV_THREADS", "thread_cap", "parallel_map"]


def thread_cap() -> int:
    """Worker count: LANGEVIN_LAB_THREADS if set, else the CPU count."""
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return max(1, os.cpu_count() or 1)
    return count(ENV_THREADS, raw, 1)


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map fn over items with at most thread_cap() workers, preserving order.

    Each call runs in a copy of the caller's context, so context-local
    settings such as numpy's errstate hold in the workers as well.
    """
    seq: Sequence[T] = list(items)
    workers = min(thread_cap(), len(seq)) if seq else 1
    if workers <= 1:
        return [fn(x) for x in seq]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        contexts = [contextvars.copy_context() for _ in seq]
        return list(pool.map(lambda context, x: context.run(fn, x), contexts, seq))
