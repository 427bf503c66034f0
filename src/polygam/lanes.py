"""Parallel lanes: one per CPU this process may run on.

A fit's workspace build, scan and row pass and a large `predict` each split
their work into at most one job per lane. Every rule of that split is here,
and this module alone reads the CPU count: `gate` gives a pass its number of
lanes, `deal` hands weighted jobs to the lanes and `cuts` cuts rows into
contiguous ranges. The first lane runs on the calling thread and the others
on a thread pool that starts only when a pass first hands it a job; numpy
releases the interpreter lock inside its calls, so the lanes overlap
wherever those calls are long.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os

# a pass runs on lanes only when its numpy calls on one lane would see at
# least this many values: a scan run's slots, a build's or a row pass's
# training rows (most of the row pass's calls are one output column long),
# a predict's rows. The lanes' overhead is per numpy call; see the README
# for the crossovers measured on a 2-core x86 host
PAR_MIN_VALUES = 2**15


def _cpus() -> int:
    """CPUs this process may run on: the number of lanes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def gate(values: int) -> int:
    """Lanes for a pass whose numpy calls see `values` values each: the CPU
    count, read only then, from PAR_MIN_VALUES values on, else 1."""
    return _cpus() if values >= PAR_MIN_VALUES else 1


def deal(weights, n: int) -> list[list[int]]:
    """The indices of `weights` dealt to n lanes: heaviest first, each to
    the least loaded lane so far, ties to the lower index and the lower
    lane. Each lane lists its indices in the order dealt; lanes may be
    empty."""
    out, load = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        lane = load.index(min(load))
        out[lane].append(i)
        load[lane] += weights[i]
    return out


def cuts(sizes, n: int) -> list[list[tuple[int, slice]]]:
    """The rows of sets of these sizes, end to end as one sequence, cut
    into n contiguous ranges of near-equal length: range k ends at row
    total * (k + 1) // n. Each range is its pieces (set, slice of that
    set's rows), in sequence order; an empty piece or range is left out,
    so fewer rows than lanes give fewer ranges."""
    ends = [sum(sizes[:s]) for s in range(len(sizes) + 1)]  # set starts, then the total
    cut = [ends[-1] * k // n for k in range(n + 1)]
    return [pieces for lo, hi in zip(cut, cut[1:]) if (pieces := [
        (s, slice(max(lo, a) - a, min(hi, b) - a))
        for s, (a, b) in enumerate(zip(ends, ends[1:])) if max(lo, a) < min(hi, b)])]


class _lanes_pool(contextlib.ExitStack):
    """A context for the passes of a fit or a `predict`. Its thread pool, a
    thread for every lane but the first, starts when `_on_lanes` first
    hands it a job; `_on_lanes` runs a lone job on the calling thread, so
    passes of one job start no thread and never import
    `concurrent.futures`. Leaving the context joins the threads. Only the
    thread that opened it hands it jobs."""

    @functools.cached_property
    def executor(self):
        from concurrent.futures import ThreadPoolExecutor

        return self.enter_context(
            ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="polygam-lane"))


def _on_lanes(pool, jobs) -> None:
    """Run one job per lane: with a pool, every job but the first on it and
    the first on this thread; without one, one after another. A worker job
    runs in a copy of this thread's context, which holds numpy's error
    state, so every lane warns or raises alike; a job's error is raised
    here."""
    futures = [pool.executor.submit(contextvars.copy_context().run, job)
               for job in jobs[1:]] if pool else []
    for job in jobs[: len(jobs) - len(futures)]:
        job()
    for f in futures:
        f.result()
