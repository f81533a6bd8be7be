"""The package's one worker map: items shared out among threads bound to the
CPUs the process may run on.

It serves mirror-mc's records, whose time goes to numpy calls that release
the interpreter lock and which share nothing. Each worker binds itself to
its own CPU: where the scheduler does not balance load (a cpuset with load
balancing switched off), a new thread may stay on its creator's CPU, and
unbound workers then share one core. Only the workers' own masks change,
never the calling thread's; where binding is unavailable or refused the
workers run unbound. An item's result depends only on the item, so the
results do not depend on the number of CPUs.
"""

from __future__ import annotations

import os
import threading


def bound_map(fn, items, max_workers: int, name: str) -> list:
    """``[fn(item) for item in items]``, in order, on bound workers.

    There are k workers, the least of the number of CPUs the process may run
    on, len(items) and max_workers. Worker w, a thread named f"{name}-{w}",
    binds itself to the w-th allowed CPU and computes items w, w + k,
    w + 2k, ...; the calling thread only starts and joins them. With one
    worker the calling thread computes every item, in order. A worker stops
    at its first exception, which takes the place of its item; once every
    worker is joined, the first exception in item order is raised. An
    interrupt of the join stops every worker before its next item.
    """
    allowed = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
               else range(os.cpu_count() or 1))
    cpus = sorted(allowed)[:min(len(items), max_workers)]
    results: list = [None] * len(items)
    stop = threading.Event()

    def work(w: int) -> None:
        k = w
        try:
            for k in range(w, len(items), len(cpus)):
                if stop.is_set():
                    return
                results[k] = fn(items[k])
        except Exception as exc:  # raised by the caller after the joins
            results[k] = exc

    def bound_work(w: int) -> None:
        try:
            os.sched_setaffinity(0, {cpus[w]})   # this thread's mask only
        except (AttributeError, OSError):
            pass                                 # run unbound
        work(w)

    if len(cpus) == 1:
        work(0)
    else:
        workers = [threading.Thread(target=bound_work, args=(w,),
                                    name=f"{name}-{w}")
                   for w in range(len(cpus))]
        for t in workers:
            t.start()
        try:
            for t in workers:
                t.join()
        except BaseException:
            stop.set()
            for t in workers:
                t.join()
            raise
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results
