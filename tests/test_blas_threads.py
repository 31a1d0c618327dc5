"""Outputs must not change with the OpenBLAS setting wherever the package
says so. Each test here reruns tests in a fresh interpreter under a setting
this process does not use, and requires the child to report that setting:

- every golden digest holds under one OpenBLAS thread and under the
  default: tests/test_golden_hashes.py runs with OPENBLAS_NUM_THREADS set
  to 1 if this process runs more than one thread, else to 2;
- an image's features do not depend on its batch under other OpenBLAS
  kernels either: the batch-invariance and reference tests of tests/test_model.py
  run with OPENBLAS_CORETYPE forced to Haswell (AVX2, whose DGEMM rows
  depend on the row count) and to SandyBridge (AVX). A kernel that
  OpenBLAS does not run when asked skips its case."""

import ctypes
import os
import subprocess
import sys

import numpy  # noqa: F401 - loads the OpenBLAS whose thread count is read below
import pytest

from robustaug.parallel import openblas_functions

TESTS = os.path.dirname(os.path.abspath(__file__))

# prints the child's OpenBLAS thread counts and kernels, then runs pytest on its arguments
CHILD = """
import sys
import pytest
from test_blas_threads import blas_cores, blas_threads
print("openblas threads", sorted(blas_threads()), "cores", sorted(blas_cores()), flush=True)
sys.exit(pytest.main(sys.argv[1:]))
"""

# the tests of an image's features that a batch must not change
BATCH_INVARIANCE = [
    "test_model.py::test_chunked_features_match_one_image_at_a_time",
    "test_model.py::test_one_filter_features_do_not_depend_on_the_batch",
    "test_model.py::test_band_kernel_bit_equal_to_reference",
]


def blas_threads() -> set:
    """The thread counts of the OpenBLAS builds loaded into this process."""
    counts = set()
    for get in openblas_functions("get_num_threads"):
        get.argtypes, get.restype = [], ctypes.c_int
        counts.add(get())
    return counts


def blas_cores() -> set:
    """The kernel names (openblas_get_corename) of the OpenBLAS builds loaded
    into this process."""
    cores = set()
    for get in openblas_functions("get_corename"):
        get.argtypes, get.restype = [], ctypes.c_char_p
        cores.add(get().decode())
    return cores


def run_child(env: dict, tests: list) -> subprocess.CompletedProcess:
    """pytest on tests (paths under tests/) in a fresh interpreter whose
    environment adds env; its output starts with its OpenBLAS report."""
    return subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", *(os.path.join(TESTS, t) for t in tests)],
        env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join([TESTS, os.environ.get("PYTHONPATH", "")])),
        cwd=os.path.dirname(TESTS), capture_output=True, text=True, timeout=600,
    )


def test_golden_hashes_under_the_other_blas_thread_count():
    counts = blas_threads()
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    other = 1 if max(counts) > 1 else 2
    result = run_child({"OPENBLAS_NUM_THREADS": str(other)}, ["test_golden_hashes.py"])
    assert result.returncode == 0, result.stdout[-6000:] + result.stderr[-2000:]
    assert f"openblas threads [{other}]" in result.stdout


@pytest.mark.parametrize("core", ["Haswell", "SandyBridge"])
def test_features_do_not_depend_on_the_batch_under_another_blas_kernel(core):
    result = run_child({"OPENBLAS_CORETYPE": core}, BATCH_INVARIANCE)
    report = result.stdout.partition("\n")[0]
    assert report.startswith("openblas threads"), result.stderr[-2000:]
    if f"cores ['{core.lower()}']" not in report.lower():  # OpenBLAS spells it Sandybridge
        pytest.skip(f"OpenBLAS did not run its {core} kernel: {report}")
    assert result.returncode == 0, result.stdout[-6000:] + result.stderr[-2000:]
