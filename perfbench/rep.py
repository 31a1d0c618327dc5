"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 [--spans FILE] [--setup-only]

Set-up (imports, inputs, model) is timed from the first statement of this
file; the timed region follows, unless --setup-only stops the repetition
once set-up is done. The last line of standard output is one JSON object
with the repetition's timings, work counts, output digest and failures;
run.py starts this script, aggregates repetitions and checks them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

# The criterion-8 model and optimiser; every workload uses them.
MODEL = {"k": 48, "c": 1, "g": 4, "classes": 2}
BATCH_SIZE = 16
LEARNING_RATE = 0.2
PATCH = {"kind": "patch_gaussian", "sigma_max": 2.5, "patch_size": 32, "sample_up_to": True}

TRAIN_WORKLOADS = {
    "train_patch": {"n": 400, "epochs": 4, "augment": PATCH},
    "train_baseline": {"n": 400, "epochs": 12, "augment": {}},
}

# cli_pipeline sizes. With 20 epochs of the 8-pixel patch arm the checkpoint
# scored at least 0.98 on the held-out set for each of the 32 recorded seeds;
# the 32-pixel arm still fell back to chance after 30 epochs on some seeds.
# FOURIER_MAX_FREQ keeps the 25 half-plane frequencies of magnitude <= 4.
CLI_IMAGES = 256
CLI_EPOCHS = 20
CLI_WORKERS = 2
CLI_PATCH = {"sigma_max": 2.5, "patch_size": 8}
FOURIER_NORM = 4.0
FOURIER_MAX_FREQ = 4
FOURIER_FREQS = 25
HIGHPASS_RADIUS = 6
# Held-out accuracy the checkpoint must exceed: chance is 0.5, and 256
# coin flips exceed 0.6 with probability below 1e-3.
MIN_HELD_OUT_ACCURACY = 0.6


def _blas_info() -> dict:
    """Name and live thread count of the BLAS loaded into this process."""
    info = {"name": "unknown", "threads": None}
    try:
        import numpy as np

        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info["name"] = deps.get("blas", {}).get("name", "unknown")
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except (OSError, AttributeError):
        return info
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode("ascii", "replace")
    return info


def _environment() -> dict:
    rng = sys.modules.get("robustaug.rng")
    have_numba = getattr(rng, "_HAVE_NUMBA", None) if rng is not None else None
    return {"blas": _blas_info(), "rng_numba_kernel": have_numba}


class Rep:
    """Timings, work and failures of one repetition."""

    def __init__(self, tracer, setup_only: bool):
        self.tracer = tracer
        self.setup_only = setup_only
        self.setup_spans = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.result = {}

    def span(self, name: str, count: int = 0):
        return self.tracer.span(name, count) if self.tracer else contextlib.nullcontext()

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {detail}")

    def op(self, what: str, fn):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except (Exception, SystemExit):
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None


def _timed(rep: Rep, body) -> bool:
    """Run body as the timed region; install tracing first if enabled.
    A setup-only repetition runs nothing and returns False."""
    rep.result["setup_s"] = time.perf_counter() - T0
    if rep.setup_only:
        return False
    if rep.tracer is not None:
        rep.setup_spans = rep.tracer.take()
        rep.tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    body()
    t1 = time.perf_counter()
    c1 = time.process_time()
    rep.result.update(wall_s=t1 - t0, cpu_s=c1 - c0, run_start=t0, run_end=t1)
    return True


def train_workload(rep: Rep, name: str, seed: int) -> None:
    import robustaug.augment as augment
    import robustaug.model as model

    w = TRAIN_WORKLOADS[name]
    with rep.span("model.synth", w["n"]):
        d = model.synth_dataset(seed, w["n"])
    m = model.init_toy_model(seed, **MODEL)
    cfg = model.TrainConfig(
        epochs=w["epochs"], learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE, seed=seed,
        augment=augment.AugmentSpec(**w["augment"]),
    )
    trained = []
    if not _timed(rep, lambda: trained.append(rep.op("train", lambda: model.train(m, d, cfg)))):
        return
    rep.result["examples"] = w["epochs"] * w["n"]
    if trained[0] is not None:
        rep.result["digest"] = hashlib.sha256(model.encode_model(trained[0])).hexdigest()


def _tree_digest(root: Path) -> str:
    """SHA-256 over every file below root: relative path, size, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def cli_commands(work: Path, seed: int) -> list:
    """(command, argv) for the seven pipeline steps, in order."""
    p = lambda name: str(work / name)  # noqa: E731
    workers = ["--workers", str(CLI_WORKERS)]
    patch = ["--kind", "patch_gaussian", "--sigma-max", str(CLI_PATCH["sigma_max"]),
             "--patch-size", str(CLI_PATCH["patch_size"]), "--sample-up-to"]
    return [
        ("synth", ["synth", "--seed", str(seed), "--count", str(CLI_IMAGES), "--output", p("train")] + workers),
        ("synth", ["synth", "--seed", str(seed + 1), "--count", str(CLI_IMAGES), "--output", p("heldout")]
         + workers),
        ("augment", ["augment", "--input", p("train"), "--output", p("augmented"), "--seed", str(seed)]
         + patch + workers),
        ("train", ["train", "--input", p("train"), "--output", p("model.toym"), "--seed", str(seed),
                   "--pad", "4", "--order", "flipcrop_then_augment",
                   "--filters", str(MODEL["k"]), "--pool-grid", str(MODEL["g"]),
                   "--classes", str(MODEL["classes"]), "--epochs", str(CLI_EPOCHS),
                   "--lr", str(LEARNING_RATE), "--batch-size", str(BATCH_SIZE)] + patch + workers),
        ("eval", ["eval", "--input", p("heldout"), "--model", p("model.toym"), "--output", p("eval.json")]
         + workers),
        ("corrupt", ["corrupt", "--suite", "--input", p("heldout"), "--output", p("suite"), "--seed", str(seed)]
         + workers),
        ("highpass", ["highpass", "--input", p("heldout"), "--radius", str(HIGHPASS_RADIUS),
                      "--output", p("highpass")] + workers),
        ("fourier", ["fourier", "--input", p("heldout"), "--model", p("model.toym"), "--probe", "test_error",
                     "--norm", str(FOURIER_NORM), "--max-freq", str(FOURIER_MAX_FREQ), "--seed", str(seed),
                     "--output", p("heatmap.csv")] + workers),
    ]


def cli_workload(rep: Rep, seed: int) -> None:
    import robustaug.cli as cli

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli_pipeline-", dir=WORK))
    try:
        commands = cli_commands(work, seed)

        def pipeline():
            for name, argv in commands:
                with rep.span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()):
                    code = rep.op(name, lambda: cli.main(argv))
                if code not in (0, None):
                    rep.failed += 1
                    rep.errors.append(f"{name}: exit code {code}")

        if not _timed(rep, pipeline):
            return
        rep.result["examples"] = CLI_EPOCHS * CLI_IMAGES
        _check_cli_outputs(rep, work)
        rep.result["digest"] = _tree_digest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _check_cli_outputs(rep: Rep, work: Path) -> None:
    try:
        acc = json.loads((work / "eval.json").read_text())["clean_accuracy"]
    except (OSError, ValueError, KeyError) as e:
        rep.check("held-out accuracy", False, repr(e))
    else:
        rep.result["held_out_accuracy"] = acc
        rep.check("held-out accuracy", acc > MIN_HELD_OUT_ACCURACY,
                  f"{acc} does not beat chance (need > {MIN_HELD_OUT_ACCURACY})")
    try:
        lines = (work / "heatmap.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        errors = {row.split(",")[2] for row in rows}
    except (OSError, IndexError) as e:
        rep.check("heatmap", False, repr(e))
    else:
        rep.check("heatmap", len(rows) == FOURIER_FREQS and len(errors) > 1,
                  f"{len(rows)} rows (want {FOURIER_FREQS}), {len(errors)} distinct test errors (want > 1)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRAIN_WORKLOADS) + ["cli_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced repetition's spans here (JSONL)")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up; report setup_s only")
    args = parser.parse_args()
    if args.setup_only and args.trace:
        parser.error("--setup-only runs untraced")

    if args.trace:
        import tracer  # only here, so that untraced set-up does not pay for it

        rep = Rep(tracer.Tracer(), args.setup_only)
    else:
        rep = Rep(None, args.setup_only)
    if args.workload == "cli_pipeline":
        cli_workload(rep, args.seed)
    else:
        train_workload(rep, args.workload, args.seed)
    out = rep.result
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=rep.attempted, failed=rep.failed, errors=rep.errors, env=_environment())
    if rep.tracer is not None:
        run_spans = rep.tracer.take()
        out["layers"] = tracer.layer_metrics(run_spans, rep.setup_spans)
        out["rng_augment_self_s"] = tracer.rng_augment_self_s(run_spans)
        out["top_level_check"] = tracer.top_level_check(run_spans, out["run_start"], out["run_end"])
        out["layers_entered"] = sorted({s[2].split(".")[0] for s in run_spans})
        if args.spans:
            tracer.write_spans(args.spans, run_spans, rep.setup_spans, out["run_start"], out["run_end"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
