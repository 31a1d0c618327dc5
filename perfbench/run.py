"""robustaug benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. Each repetition runs in a fresh interpreter (perfbench/rep.py)
so that set-up, CPU time and peak memory are measured per repetition.
Repetitions run until S seconds have passed; medians are reported.

--trace 0  every repetition untraced; prints the end-to-end metrics. Set-up
           is sampled at least SETUP_SAMPLES times: setup-only repetitions
           follow the full ones until it has been.
--trace 1  traced and untraced repetitions alternate (at least two traced);
           prints the per-layer metrics and the tracing overhead.

Every output is checked: the trained checkpoint (train workloads) or the
whole output file tree (cli_pipeline) must match the SHA-256 digest recorded
for the seed in digests.json and must be the same in every repetition. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. A full record with the environment header is written to
.perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Pool workers each workload passes to robustaug (--workers).
WORKERS = {"train_patch": 1, "train_baseline": 1, "cli_pipeline": 2}
# OpenBLAS threads per process. On these small matrices its default of 2
# threads (on a 2-core machine) doubles CPU time without shortening wall
# time, and its spinning threads made a 1.7 s training run take 15 s while
# other processes held the cores.
BLAS_THREADS = 1
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_examples_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer units that are exact counts and must repeat in every traced rep.
EXACT_UNITS = {"count", "B", "GFLOP"}
# Every run, --seconds 1 included, ends in well under the 180 s limit.
DEADLINE_S = 170.0
# Set-up samples per --trace 0 run. A cli_pipeline repetition lasts about
# 18 s, so a 30 s run has only two full repetitions; setup-only ones, about
# 2 s each, make up the rest.
SETUP_SAMPLES = 5
IDLE_LOAD_PER_CPU = 0.5


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_budget(workload: str) -> dict:
    """Busy threads: each pool worker may run BLAS on BLAS_THREADS threads."""
    workers = WORKERS[workload]
    return {"workers": workers, "blas_threads": BLAS_THREADS, "busy_threads": workers * BLAS_THREADS,
            "nproc": _nproc()}


def _numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def environment(workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "numba_imports": _numba_imports(),
        "nproc": _nproc(),
        "thread_budget": thread_budget(workload),
        "load_avg_1m_before": os.getloadavg()[0],
    }


def run_rep(workload: str, seed: int, traced: bool, budget: dict, deadline: float,
            setup_only: bool = False) -> dict:
    """One repetition in a child interpreter; a crash or timeout is a failure."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(budget["blas_threads"])
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(OUT / f"{workload}.spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"repetition timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"repetition exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def end_to_end(reps: list, setups: list) -> dict:
    """Medians over the untraced full repetitions; setup_s also over the
    setup-only ones."""
    return {
        "setup_s": median([r["setup_s"] for r in reps + setups]),
        "wall_s": median([r["wall_s"] for r in reps]),
        "train_examples_per_s": median([r["examples"] / r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def tracing_overhead(results: list) -> float:
    """Median, over neighbouring traced and untraced full repetitions, of
    traced wall_s minus untraced wall_s. Neighbours ran at nearly the same
    time, so drift of the host's speed over a run cancels out."""
    reps = [(kind, r) for kind, r in results if kind != "setup" and "crashed" not in r]
    diffs = []
    for (kind_a, a), (kind_b, b) in zip(reps, reps[1:]):
        if kind_a != kind_b:
            traced, untraced = (a, b) if kind_a == "traced" else (b, a)
            diffs.append(traced["wall_s"] - untraced["wall_s"])
    return median(diffs)


def per_layer(traced: list, results: list) -> tuple:
    """Medians of the traced reps' layer metrics, plus tracing overhead.

    Returns (metrics, units, mismatches): mismatches names every exact count
    that differed between traced repetitions.
    """
    metrics, units, mismatches = {}, {}, []
    for name, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        units[name] = unit
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                mismatches.append(f"{name}: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    metrics["trace.overhead_s"] = tracing_overhead(results)
    units["trace.overhead_s"] = "s"
    return metrics, units, mismatches


def check_digests(workload: str, seed: int, reps: list) -> tuple:
    """(attempted, failed, notes) for the output-digest checks: each rep
    against the digest recorded for the seed, or, without one, against the
    first rep."""
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed))
    notes = []
    if recorded is None:
        notes.append(f"digest check did not run: no digest recorded for {workload} seed {seed}; "
                     "repetitions are checked against each other only")
        want, checked = reps[0].get("digest"), reps[1:]
    else:
        want, checked = recorded, reps
    failed = 0
    for r in checked:
        if want is None or r.get("digest") != want:
            failed += 1
            notes.append(f"output digest {r.get('digest')} != {want}")
    return len(checked), failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "robustaug" / "__init__.py").is_file():
        print(f"error: no robustaug sources under {ROOT / 'src'}; run from a robustaug checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.workload)
    budget = env["thread_budget"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key in ("python", "numpy", "scipy", "numba_imports", "nproc", "load_avg_1m_before"):
        print(f"env {key}: {env[key]}")
    print(f"env thread budget: {budget['workers']} pool workers x {budget['blas_threads']} BLAS threads "
          f"= {budget['busy_threads']} busy threads on {budget['nproc']} CPUs")
    if budget["busy_threads"] > budget["nproc"]:
        print(f"warning: {budget['busy_threads']} busy threads exceed {budget['nproc']} CPUs")
    if env["load_avg_1m_before"] > IDLE_LOAD_PER_CPU * budget["nproc"]:
        print(f"warning: machine is not idle (1-minute load average {env['load_avg_1m_before']:.2f} "
              f"on {budget['nproc']} CPUs); timings may be inflated")

    results = run_reps(args, budget, started + DEADLINE_S)
    crashed = [r["crashed"] for _, r in results if "crashed" in r]
    untraced, traced, setups = ([r for kind, r in results if kind == want and "crashed" not in r]
                                for want in ("untraced", "traced", "setup"))
    if not untraced or (args.trace and not traced):
        print("error: no repetition of a needed kind completed: " + "; ".join(crashed), file=sys.stderr)
        return 1
    all_reps = untraced + traced
    attempted = sum(r["attempted"] for r in all_reps) + len(crashed)
    failed = sum(r["failed"] for r in all_reps) + len(crashed)
    d_attempted, d_failed, notes = check_digests(args.workload, args.seed, all_reps)
    attempted += d_attempted
    failed += d_failed
    notes += [e for r in all_reps for e in r["errors"]] + crashed

    blas, kernel = untraced[0]["env"]["blas"], untraced[0]["env"]["rng_numba_kernel"]
    env.update(blas=blas, rng_numba_kernel=kernel, load_avg_1m_after=os.getloadavg()[0])
    print(f"env blas: {blas.get('name')} ({blas.get('config', 'config unknown')}), "
          f"{blas.get('threads')} threads measured in a repetition")
    print("env rng engine: " + {True: "numba kernel", False: "pure-Python xoshiro loop (numba absent)",
                               None: "unknown"}[kernel])
    print(f"env load_avg_1m_after: {env['load_avg_1m_after']}")
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced, {len(setups)} setup-only, "
          f"{len(crashed)} crashed")
    e2e = end_to_end(untraced, setups)
    for name, value in e2e.items():
        samples = len(untraced) + len(setups) if name == "setup_s" else len(untraced)
        print(f"end_to_end {name} = {value:.6g} {END_TO_END[name]} (median of {samples})")

    design, mismatches = {}, []
    if args.trace:
        metrics, units, mismatches = per_layer(traced, results)
        for name, value in metrics.items():
            print(f"per_layer {name} = {value:.6g} {units[name]}")
        design = {
            "rng_augment_share_of_cpu": median([r["rng_augment_self_s"] / r["cpu_s"] for r in traced]),
            "layers_entered": traced[0]["layers_entered"],
        }
        print(f"design: rng + augment own CPU time = {100 * design['rng_augment_share_of_cpu']:.1f}% "
              "of traced cpu_s")
        print("design: layers entered in the timed region: " + ", ".join(design["layers_entered"]))
        for r in traced:
            attempted += 1
            if r["top_level_check"]:
                failed += 1
                notes.append("top-level spans: " + r["top_level_check"])
    else:
        metrics, units = e2e, dict(END_TO_END)
    failed_frac = failed / attempted
    print(f"end_to_end failed_frac = {failed_frac:.6g} ({failed} of {attempted} operations)")
    for note in notes:
        print(f"note: {note}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "end_to_end": e2e, "failed_frac": failed_frac, "metrics": metrics, "units": units,
        "design": design, "notes": notes, "repetitions": [dict(r, kind=kind) for kind, r in results],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if mismatches:
        print("error: exact per-layer counts differ between traced repetitions of one commit:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_reps(args, budget: dict, deadline: float) -> list:
    """[(kind, result)], kind "untraced", "traced" or "setup", until
    --seconds have passed. With --trace 1 the full reps alternate
    traced/untraced, start and end traced, and number at least three, so the
    exact counts are compared at least once. With --trace 0 setup-only reps
    follow until set-up has been sampled SETUP_SAMPLES times."""
    started = time.monotonic()
    results = []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 0
        result = run_rep(args.workload, args.seed, traced, budget, deadline)
        results.append(("traced" if traced else "untraced", result))
        now = time.monotonic()
        if now >= deadline:
            return results
        if now - started >= args.seconds and traced == bool(args.trace) and len(results) >= 1 + 2 * args.trace:
            break
    while not args.trace and len(results) < SETUP_SAMPLES and time.monotonic() < deadline:
        results.append(("setup", run_rep(args.workload, args.seed, False, budget, deadline, setup_only=True)))
    return results


if __name__ == "__main__":
    sys.exit(main())
