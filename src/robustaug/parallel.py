"""Order-preserving parallel map over indices.

Results depend only on the index each worker receives, never on worker
count or scheduling, so parallel and sequential runs are byte-identical.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def indexed_map(fn, n: int, workers: int = 1) -> list:
    """Apply fn(i) for i in range(n), results in index order."""
    if workers <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))
