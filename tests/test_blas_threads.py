"""Every golden digest must hold under one OpenBLAS thread and under the
default. This checks the setting a test run does not use: it runs
tests/test_golden_hashes.py again in a fresh interpreter with
OPENBLAS_NUM_THREADS set to 1 if this process runs more than one thread,
else to 2, and requires the child to report that count."""

import ctypes
import os
import subprocess
import sys

import numpy  # noqa: F401 - loads the OpenBLAS whose thread count is read below
import pytest

from robustaug.parallel import openblas_functions

TESTS = os.path.dirname(os.path.abspath(__file__))

# prints the child's OpenBLAS thread counts, then runs pytest on its arguments
CHILD = """
import sys
import pytest
from test_blas_threads import blas_threads
print("openblas threads", sorted(blas_threads()))
sys.exit(pytest.main(sys.argv[1:]))
"""


def blas_threads() -> set:
    """The thread counts of the OpenBLAS builds loaded into this process."""
    counts = set()
    for get in openblas_functions("get_num_threads"):
        get.argtypes, get.restype = [], ctypes.c_int
        counts.add(get())
    return counts


def test_golden_hashes_under_the_other_blas_thread_count():
    counts = blas_threads()
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    other = 1 if max(counts) > 1 else 2
    result = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", os.path.join(TESTS, "test_golden_hashes.py")],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(other),
                 PYTHONPATH=os.pathsep.join([TESTS, os.environ.get("PYTHONPATH", "")])),
        cwd=os.path.dirname(TESTS), capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-6000:] + result.stderr[-2000:]
    assert f"openblas threads [{other}]" in result.stdout
