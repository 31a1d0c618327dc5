"""The benchmark's workloads reproduce the output digests it records.

perfbench/run.py checks every repetition's output (a trained checkpoint, or
the whole file tree of the CLI pipeline) against perfbench/digests.json.
Running one untraced repetition of each workload at seed 0 here makes a
change that alters those bytes fail the test suite, not only the benchmark.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(bench.WORKERS))
def test_seed_0_repetition_matches_its_recorded_digest(workload):
    rep = bench.run_rep(workload, 0, False, bench.thread_budget(workload), time.monotonic() + bench.DEADLINE_S)
    assert "crashed" not in rep, rep
    assert rep["failed"] == 0, rep.get("errors")
    assert rep["digest"] == DIGESTS[workload]["0"]
