"""Smoke test of the benchmark at its smallest size (--seconds 1).

    python3 -m pytest -q perfbench/test_smoke.py

For every workload it runs run.py untraced and traced and checks that every
metric BENCHMARK.json names is printed with its unit, that the traced run's
top-level spans are disjoint and inside the timed region, and that the
benchmark refuses to run without the package sources. About two minutes on
a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


def assert_metrics(proc: subprocess.CompletedProcess, specs: list, prefix: str) -> None:
    metrics = result_of(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in specs]
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(f"{prefix} {m['name']} = "))
        assert line.split(" = ")[1].split()[1] == m["unit"], line


def test_spec_matches_design():
    assert WORKLOADS == list(DESIGN["workloads"])
    designed = [name for layer in DESIGN["layers"] for name in layer["metrics"]]
    assert [m["name"] for m in SPEC["per_layer"]] == designed
    assert [m["name"] for m in SPEC["end_to_end"]] == [k for k in DESIGN["end_to_end"] if k != "failed_frac"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    assert_metrics(proc, SPEC["end_to_end"], "end_to_end")
    assert "end_to_end failed_frac = 0 " in proc.stdout
    assert "env thread budget:" in proc.stdout and "env rng engine:" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_nests_spans(workload):
    proc = run(workload, 1)
    assert_metrics(proc, SPEC["per_layer"], "per_layer")
    lines = (ROOT / ".perfbench_out" / f"{workload}.spans.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    spans = [dict(zip(header["fields"], json.loads(ln))) for ln in lines[1:]]
    top = sorted((s for s in spans if s["phase"] == "run" and s["parent"] == 0), key=lambda s: s["start"])
    assert top
    assert header["run_start"] <= top[0]["start"] and top[-1]["end"] <= header["run_end"]
    for a, b in zip(top, top[1:]):
        assert a["end"] <= b["start"], (a, b)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] == 0 or s["parent"] in ids for s in spans)


def test_refuses_to_run_without_package_sources():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
