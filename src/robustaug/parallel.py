"""Order-preserving parallel map over indices.

indexed_map yields fn(0), ..., fn(n - 1) in index order. Results depend only
on the index, never on worker count or scheduling, so parallel and
sequential runs are byte-identical; the train, fourier and corrupt --suite
commands pass it their --workers.

With workers > 1 the items run in forked processes whose pool initializer
gets fn as its argument, so fork hands the workers fn and all it closes over
without pickling, and only indices and results cross the pipes. An item may
start a map of its own, which forks its own workers. Spawn and forkserver
would pickle fn, often a closure, and on a 2-vCPU Linux VM started a
two-worker pool in 0.04-0.10 s, fork in 0.01-0.02 s. OpenBLAS stops its
threads before a fork (pthread_atfork), and the child keeps its thread
count, so each worker sets it to one: two workers of two BLAS threads each
on two cores made training three times slower than one worker. A loaded
OpenBLAS whose file was deleted is found by file name; one that cannot be
found keeps its count. Without fork the items run in the calling process,
and a RuntimeWarning says so. multiprocessing is imported only when a pool
starts, to keep it out of every command's start-up.
"""

import collections
import contextlib
import ctypes
import os
import warnings

_fn = None  # in a worker, the item function its pool's initializer got


def openblas_functions(name: str) -> list:
    """ctypes handles of openblas_<name> in every OpenBLAS this process has
    loaded, under the prefix and suffix a renamed build adds (numpy's wheels
    ship scipy_openblas_<name>64_); none where /proc/self/maps is missing."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:  # the pathname is field 6 and on
            paths = sorted({line.split(maxsplit=5)[-1].rstrip("\n") for line in f if "openblas" in line.lower()})
    except OSError:
        return []
    symbols = [f"{prefix}openblas_{name}{suffix}" for prefix in ("", "scipy_") for suffix in ("", "64_")]
    found = []
    for path in paths:  # a file deleted since it was loaded is looked up by its name, " (deleted)" cut off
        with contextlib.suppress(OSError):  # RTLD_NOLOAD finds only a copy already loaded
            lib = ctypes.CDLL(path.rsplit("/", 1)[-1][:-10] if path.endswith(" (deleted)") else path, os.RTLD_NOLOAD)
            found += [getattr(lib, s) for s in symbols if hasattr(lib, s)]
    return found


def _start_worker(fn) -> None:
    global _fn
    _fn = fn
    for set_threads in openblas_functions("set_num_threads"):
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _call(i: int):
    return _fn(i)


def indexed_map(fn, n: int, workers: int = 1):
    """Iterator over fn(i) for i in range(n), in index order; with workers > 1
    the items run in at most `workers` forked processes, at most 2 * workers
    of them submitted ahead of the one the caller waits for."""
    if workers > 1 and n > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _forked(fn, n, min(workers, n))
        warnings.warn("no fork start method on this platform; parallel maps run sequentially", RuntimeWarning)
    return map(fn, range(n))


def _forked(fn, n: int, workers: int):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(fn,))
    try:
        pending = collections.deque()
        for i in range(n):
            pending.append(pool.submit(_call, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
