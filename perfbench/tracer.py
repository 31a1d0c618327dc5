"""Spans around robustaug's public functions, recorded from outside the package.

A span is [id, parent id, name, start, end, count, aux, thread, cpu]:
`start`/`end` are wall-clock readings, `count` is the work the call did
(values, images, bytes, items), `aux` a second number some layers need
(worker count, computed GFLOP), `thread` the thread that ran the span and
`cpu` the span's own thread CPU time: the CPU its thread used while the span
was the innermost open span there. Spans live in memory until the repetition
ends, when they are aggregated and written out.

Layer seconds are CPU seconds, not summed wall durations: two pool threads
that take turns on the GIL would otherwise each count the other's turn.

`install` replaces each traced function in its defining module and in every
robustaug module that bound the same object by `from .x import name`, so a
call made through any of those names is recorded.
"""

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time

_clock = time.perf_counter
_cpu = time.thread_time
# Span fields by position.
ID, PARENT, NAME, START, END, COUNT, AUX, THREAD, CPU = range(9)
# Spans that stand for the pool, not for a layer: their CPU time counts as
# their caller's own, so work a layer hands to the pool stays in that layer.
TRANSPARENT = ("parallel.map", "parallel.item")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.ident = threading.get_ident()
        self.cpu = _cpu()


class Tracer:
    def __init__(self):
        self.spans = []
        self._next_id = itertools.count(1).__next__
        self._local = _ThreadState()

    def _charge(self, state: _ThreadState) -> None:
        """Give the thread CPU used since the thread's last span event to the
        innermost open span, if this thread owns it."""
        now = _cpu()
        if state.stack and state.stack[-1][THREAD] == state.ident:
            state.stack[-1][CPU] += now - state.cpu
        state.cpu = now

    def begin(self, name: str) -> list:
        state = self._local
        self._charge(state)
        stack = state.stack
        rec = [self._next_id(), stack[-1][ID] if stack else 0, name, _clock(), 0.0, 0, 0.0, state.ident, 0.0]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = _clock()
        state = self._local
        self._charge(state)
        state.stack.pop()
        self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        rec = self.begin(name)
        rec[COUNT] = count
        try:
            yield rec
        finally:
            self.end(rec)

    @contextlib.contextmanager
    def adopt(self, parent: list):
        """Record the block as a parallel.item span whose parent is `parent`
        (a span opened on another thread, or on this one)."""
        stack = self._local.stack
        stack.append(parent)
        rec = self.begin("parallel.item")
        try:
            yield
        finally:
            self.end(rec)
            stack.pop()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def install(self) -> None:
        install(self)


def wrap(tracer: Tracer, name: str, fn, measure=None, outermost: bool = False):
    """Return fn recorded as span `name`.

    measure(arguments, result) -> (count, aux) fills the span's work
    fields; arguments() maps fn's parameter names to the call's values
    (bound only when asked for, since binding costs microseconds).
    With outermost=True a call made inside another `name` span on the same
    thread is not recorded again (normal_field calls normal_array, which
    calls unit_array; next_normal calls next_unit).
    """
    sig = inspect.signature(fn) if measure is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tracer._local.stack
        if outermost and stack and stack[-1][NAME] == name:
            return fn(*args, **kwargs)
        rec = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if measure is not None:
            def arguments():
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments

            rec[COUNT], rec[AUX] = measure(arguments, result)
        return result

    return traced


def _rebind(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "robustaug" or mod_name.startswith("robustaug."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _conv_gflop(images: int, h: int, w: int, filters) -> float:
    """Multiply-adds of the 3x3 conv, counted as 2 flops, from array sizes."""
    k, kh, kw, c = filters.shape
    return 2.0 * images * h * w * k * kh * kw * c / 1e9


def _measure_train(arguments, _result):
    a = arguments()
    n, h, w, _ = a["d"].images.shape
    images = a["cfg"].epochs * n
    return images, _conv_gflop(images, h, w, a["m"].filters)


def _measure_predict(arguments, _result):
    a = arguments()
    n, h, w, _ = a["images"].shape
    return n, _conv_gflop(n, h, w, a["m"].filters)


# (module, function, span name, measure) for each traced module function.
FUNCTIONS = (
    ("robustaug.rng", "derive_stream", "rng.derive", None),
    ("robustaug.images", "encode_tensor", "images.encode", lambda _a, r: (len(r), 0.0)),
    ("robustaug.images", "decode_tensor", "images.decode", lambda a, _r: (len(a()["data"]), 0.0)),
    ("robustaug.augment", "run_pipeline", "augment.pipeline", None),
    ("robustaug.model", "train", "model.train", _measure_train),
    ("robustaug.model", "predict", "model.predict", _measure_predict),
    ("robustaug.model", "synth_dataset", "model.synth", lambda a, _r: (a()["n"], 0.0)),
    ("robustaug.corrupt", "gaussian_eval_suite", "corrupt.suite", lambda a, r: (len(a()["d"]) * len(r), 0.0)),
    ("robustaug.fourier", "sensitivity_heatmap", "fourier.heatmap", lambda _a, r: (len(r.grid), 0.0)),
    ("robustaug.fourier", "high_pass", "fourier.high_pass", None),
    ("robustaug.metrics", "accuracy", "metrics.accuracy", None),
    ("robustaug.cli", "load_dataset", "cli.load_dataset", None),
    ("robustaug.cli", "write_dataset", "cli.write_dataset", lambda a, _r: (len(a()["d"]) + 1, 0.0)),
)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every robustaug module already imported.

    Modules a workload never imports are left alone, so their layers read
    zero on that workload.
    """
    for mod_name, attr, name, measure in FUNCTIONS:
        mod = sys.modules.get(mod_name)
        if mod is not None:
            _rebind(mod, attr, wrap(tracer, name, getattr(mod, attr), measure))
    rng = sys.modules.get("robustaug.rng")
    if rng is not None:
        cls = rng.RngStream
        for attr in ("unit_array", "normal_array", "normal_field"):
            setattr(cls, attr, wrap(tracer, "rng.bulk", getattr(cls, attr), lambda _a, r: (r.size, 0.0),
                                    outermost=True))
        for attr in ("next_u64", "next_unit", "next_int", "next_normal"):
            setattr(cls, attr, wrap(tracer, "rng.scalar", getattr(cls, attr), outermost=True))
    parallel = sys.modules.get("robustaug.parallel")
    if parallel is not None:
        _rebind(parallel, "indexed_map", _traced_map(tracer, parallel.indexed_map))


def _traced_map(tracer: Tracer, indexed_map):
    """indexed_map whose items, on whichever thread runs them, are
    parallel.item spans under the map's span."""

    @functools.wraps(indexed_map)
    def traced(fn, n, workers=1):
        rec = tracer.begin("parallel.map")

        def item(i):
            with tracer.adopt(rec):
                return fn(i)

        try:
            return indexed_map(item, n, workers)
        finally:
            tracer.end(rec)
            rec[COUNT], rec[AUX] = n, workers

    return traced


# ---------------- aggregation ----------------

def cpu_times(spans: list) -> tuple:
    """(inclusive, own): span id -> CPU seconds of every thread.

    inclusive is the CPU of the span and of all its descendants, pool items
    on other threads included. own leaves out the non-transparent
    descendants: it is the span's self time, with the CPU of the pool spans
    (TRANSPARENT) below it counted as its own.
    """
    by_id = {s[ID]: s for s in spans}
    inclusive = {s[ID]: s[CPU] for s in spans}
    own = dict(inclusive)
    # A child begins after its parent, so it has the larger id.
    for s in sorted(spans, key=lambda s: s[ID], reverse=True):
        parent = s[PARENT]
        if parent in by_id:
            inclusive[parent] += inclusive[s[ID]]
            if s[NAME] in TRANSPARENT:
                own[parent] += own[s[ID]]
    return inclusive, own


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


CLI_COMMANDS = ("synth", "augment", "train", "eval", "corrupt", "highpass", "fourier")


def layer_metrics(run_spans: list, setup_spans: list) -> dict:
    """Per-layer metrics of one repetition: name -> (value, unit).

    Seconds are CPU seconds (cpu_times): `.s` of a span's inclusive CPU,
    `.self_s` of its own. Everything comes from the timed region except
    model.synth.*, which is taken wherever synth_dataset ran (set-up for the
    train workloads).
    """
    inclusive, own = cpu_times(setup_spans + run_spans)
    by_name = {}
    for s in run_spans:
        by_name.setdefault(s[NAME], []).append(s)
    synth = [s for s in setup_spans + run_spans if s[NAME] == "model.synth"]

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, field=None):
        spans = by_name.get(name, ())
        if field is None:
            return sum(inclusive[s[ID]] for s in spans)
        return sum(s[field] for s in spans)

    def self_total(name):
        return sum(own[s[ID]] for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    pipeline_us = sorted(inclusive[s[ID]] * 1e6 for s in by_name.get("augment.pipeline", ()))
    bulk_values = total("rng.bulk", COUNT)
    gflop = total("model.train", AUX) + total("model.predict", AUX)
    model_s = self_total("model.train") + self_total("model.predict")
    heatmap_freqs = total("fourier.heatmap", COUNT)
    m = {
        "rng.derive.calls": (calls("rng.derive"), "count"),
        "rng.derive.s": (total("rng.derive"), "s"),
        "rng.bulk.values": (bulk_values, "count"),
        "rng.bulk.s": (total("rng.bulk"), "s"),
        "rng.bulk.ns_per_value": (ratio(total("rng.bulk") * 1e9, bulk_values), "ns"),
        "rng.scalar.calls": (calls("rng.scalar"), "count"),
        "rng.scalar.s": (total("rng.scalar"), "s"),
        "augment.pipeline.calls": (calls("augment.pipeline"), "count"),
        "augment.pipeline.self_s": (self_total("augment.pipeline"), "s"),
        "augment.pipeline.p50_us": (_percentile(pipeline_us, 50), "us"),
        "augment.pipeline.p99_us": (_percentile(pipeline_us, 99), "us"),
        "model.train.examples": (total("model.train", COUNT), "count"),
        "model.train.self_s": (self_total("model.train"), "s"),
        "model.predict.images": (total("model.predict", COUNT), "count"),
        "model.predict.s": (total("model.predict"), "s"),
        "model.synth.images": (sum(s[COUNT] for s in synth), "count"),
        "model.synth.s": (sum(inclusive[s[ID]] for s in synth), "s"),
        "model.conv.gflop": (gflop, "GFLOP"),
        "model.conv.gflop_per_s": (ratio(gflop, model_s), "GFLOP/s"),
        "corrupt.suite.images": (total("corrupt.suite", COUNT), "count"),
        "corrupt.suite.self_s": (self_total("corrupt.suite"), "s"),
        "fourier.heatmap.freqs": (heatmap_freqs, "count"),
        "fourier.heatmap.self_s": (self_total("fourier.heatmap"), "s"),
        "fourier.heatmap.ms_per_freq": (ratio(total("fourier.heatmap") * 1e3, heatmap_freqs), "ms"),
        "fourier.high_pass.images": (calls("fourier.high_pass"), "count"),
        "fourier.high_pass.s": (total("fourier.high_pass"), "s"),
        "metrics.accuracy.calls": (calls("metrics.accuracy"), "count"),
        "metrics.accuracy.s": (total("metrics.accuracy"), "s"),
        "images.encode.bytes": (total("images.encode", COUNT), "B"),
        "images.encode.s": (total("images.encode"), "s"),
        "images.decode.bytes": (total("images.decode", COUNT), "B"),
        "images.decode.s": (total("images.decode"), "s"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (total(f"cli.{cmd}"), "s")
    m.update({
        "cli.load_dataset.s": (total("cli.load_dataset"), "s"),
        "cli.write_dataset.s": (total("cli.write_dataset"), "s"),
        "cli.write_dataset.files": (total("cli.write_dataset", COUNT), "count"),
        "parallel.map.calls": (calls("parallel.map"), "count"),
        "parallel.map.items": (total("parallel.map", COUNT), "count"),
        "parallel.map.workers": (max((s[AUX] for s in by_name.get("parallel.map", ())), default=0), "count"),
        "parallel.map.s": (total("parallel.map"), "s"),
    })
    return m


def rng_augment_self_s(run_spans: list) -> float:
    """Own CPU seconds of every rng.* and augment.* span in the timed region."""
    _, own = cpu_times(run_spans)
    return sum(own[s[ID]] for s in run_spans if s[NAME].startswith(("rng.", "augment.")))


def top_level_check(run_spans: list, run_start: float, run_end: float) -> str:
    """'' when the top-level spans are disjoint and inside [run_start,
    run_end]; otherwise a description of the first violation."""
    top = sorted((s for s in run_spans if s[PARENT] == 0), key=lambda s: s[START])
    if not top:
        return "no top-level spans in the timed region"
    prev_end = run_start
    for s in top:
        if s[START] < prev_end:
            return f"span {s[NAME]} starts at {s[START]:.6f}, before {prev_end:.6f}"
        prev_end = s[END]
    if prev_end > run_end:
        return f"last top-level span ends at {prev_end:.6f}, after the timed region ({run_end:.6f})"
    return ""


SPAN_FIELDS = ("phase", "id", "parent", "name", "start", "end", "count", "aux", "thread", "cpu")


def write_spans(path, run_spans: list, setup_spans: list, run_start: float, run_end: float) -> None:
    """JSONL: a header object with the timed region's bounds, then one
    array per span with the fields SPAN_FIELDS (parent 0: top level)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(json.dumps({"run_start": run_start, "run_end": run_end, "fields": SPAN_FIELDS}) + "\n")
        for phase, spans in (("setup", setup_spans), ("run", run_spans)):
            for s in spans:
                f.write(json.dumps([phase] + s) + "\n")
