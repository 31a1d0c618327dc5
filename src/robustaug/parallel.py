"""Order-preserving parallel map over indices.

indexed_map yields fn(0), ..., fn(n - 1) in index order. Results depend only
on the index, never on worker count or scheduling, so parallel and
sequential runs are byte-identical. The --workers of the train, fourier and
corrupt --suite commands reach it through model.train, the heatmap and the
suite writer.

With workers > 1 the items run in processes forked once fn is in a module
variable, so the workers inherit fn and all it closes over, and only indices
and results cross the pipes. Spawn and forkserver would have to pickle fn,
which callers pass as a closure, and on a 2-vCPU Linux VM they started a
two-worker pool in 0.04-0.10 s, against 0.01-0.02 s for fork. OpenBLAS
stops its threads before a fork (pthread_atfork), and the child keeps its
thread count, so each worker sets it to one: two workers of two BLAS threads
each on two cores made training three times slower than one worker. Where
fork is missing, the items run in the calling process, and a RuntimeWarning
says so. multiprocessing is imported only when a pool starts, to keep it out
of every command's start-up.
"""

import collections
import warnings

_fn = None  # the item function of the pool being started, inherited by its workers


def openblas_functions(name: str) -> list:
    """ctypes handles of openblas_<name> in every OpenBLAS this process has
    loaded, under the prefix and suffix a renamed build adds (numpy's wheels
    ship scipy_openblas_<name>64_); none where /proc/self/maps is missing."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return []
    symbols = [f"{prefix}openblas_{name}{suffix}" for prefix in ("", "scipy_") for suffix in ("", "64_")]
    return [getattr(lib, s) for lib in map(ctypes.CDLL, paths) for s in symbols if hasattr(lib, s)]


def _one_blas_thread() -> None:
    import ctypes

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
    global _fn
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _fn = fn
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), initializer=_one_blas_thread)
    try:
        pending = collections.deque()
        for i in range(n):
            pending.append(pool.submit(_call, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        _fn = None
        pool.shutdown(cancel_futures=True)
