"""Parallel lanes: one per CPU this process may run on.

A fit's scan and row pass and a large `predict` each cut their work into
one job per lane. The first lane runs on the calling thread and the others
on a thread pool; numpy releases the interpreter lock inside its calls, so
the lanes overlap wherever those calls are long.
"""

from __future__ import annotations

import contextlib
import contextvars
import os

# a pass runs on lanes only when its numpy calls on one lane would see at
# least this many values: a scan run's slots, a row pass's rows (most of
# its calls are one output column long), a predict's rows. The lanes'
# overhead is per numpy call; see the README for the crossovers measured
# on a 2-core x86 host
PAR_MIN_VALUES = 2**15


def _cpus() -> int:
    """CPUs this process may run on: the number of lanes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _lanes_pool(lanes: int):
    """A context holding a pool with a thread for every lane but the first,
    or None for one lane; leaving it joins the threads."""
    if lanes == 1:
        return contextlib.nullcontext()
    # imported here, so that work on one lane never loads it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(lanes - 1, thread_name_prefix="polygam-lane")


def _on_lanes(pool, jobs) -> None:
    """Run one job per lane: with a pool, every job but the first on it and
    the first on this thread; without one, one after another. A worker job
    runs in a copy of this thread's context, which holds numpy's error
    state, so every lane warns or raises alike; a job's error is raised
    here."""
    futures = [pool.submit(contextvars.copy_context().run, job)
               for job in jobs[1:]] if pool else []
    for job in jobs[: len(jobs) - len(futures)]:
        job()
    for f in futures:
        f.result()
