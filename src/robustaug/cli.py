"""Batch command-line frontend.

Commands:
  augment   apply an augmentation pipeline to a dataset
  corrupt   apply one corruption, or write the six-sigma noise suite
  eval      score a predictions file or a checkpoint against labels
  mce       corruption-error report from model and baseline error maps
  select    pick the best hyperparameter candidate from a sweep CSV
  fourier   frequency-sensitivity heatmap of a checkpoint
  highpass  high-pass filter a dataset
  train     train the toy classifier head to a checkpoint
  synth     generate the frequency-labeled synthetic dataset

Datasets are either a CIFAR-style binary batch file or a directory of
<index>.imgt tensors with a labels.txt.  A --config file holds flat
key=value lines (keys are the long flag names; dashes and underscores are
interchangeable); explicit flags override it.  Every output file is
written to a temporary name and renamed into place, and every command is
deterministic given its seed and inputs.  Every command accepts --workers,
but only fourier uses it, to spread heatmap frequencies over threads; the
others work on the whole dataset as one batch.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .augment import ORDERS, AugmentSpec, run_pipeline_batch
from .corrupt import (
    CORRUPTION_KINDS,
    SIGMA_SUITE,
    CorruptionSpec,
    corrupt,
    gaussian_eval_suite,
    parse_severity_table,
)
from .fourier import (
    format_heatmap_csv,
    half_plane_frequencies,
    high_pass,
    render_heatmap,
    sensitivity_heatmap,
)
from .images import (
    LabeledDataset,
    channel_mean,
    decode_tensor,
    encode_tensor,
    read_cifar10_batch,
    write_ppm,
)
from .metrics import (
    Candidate,
    EvalResult,
    accuracy,
    corruption_error,
    mce,
    relative_gaussian_robustness,
    select_hparams,
)
from .model import TrainConfig, decode_model, encode_model, evaluate, init_toy_model, synth_dataset, train
from .rng import lockstep_groups

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


# ---------------- files ----------------

def _atomic_write(path, data: bytes) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _image_name(i: int) -> str:
    return f"{i:05d}.imgt"


def load_dataset(path) -> LabeledDataset:
    """CIFAR binary batch file, or a directory of .imgt tensors + labels.txt."""
    p = Path(path)
    if p.is_dir():
        labels = np.array([int(tok) for tok in (p / "labels.txt").read_text().split()], dtype=np.int64)
        files = len(list(p.glob("*.imgt")))
        if files != len(labels):
            raise ValueError(f"{p}: {files} .imgt files for {len(labels)} labels")
        images = np.stack([decode_tensor((p / _image_name(i)).read_bytes()) for i in range(len(labels))])
        return LabeledDataset(images, labels)
    return read_cifar10_batch(p.read_bytes())


def write_dataset(d: LabeledDataset, out_dir) -> None:
    """Write d as out_dir/NNNNN.imgt plus labels.txt, then delete the image
    files a larger dataset left there, so load_dataset reads d back."""
    # encode everything before the first write so failures leave no files
    files = [(_image_name(i), encode_tensor(d.images[i])) for i in range(len(d))]
    files.append(("labels.txt", ("\n".join(str(int(x)) for x in d.labels) + "\n").encode("ascii")))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files:
        _atomic_write(out / name, data)
    for path in out.glob("*.imgt"):
        if path.stem.isdigit() and int(path.stem) >= len(d) and path.name == _image_name(int(path.stem)):
            path.unlink()


def _write_report(args, report: dict) -> None:
    out = _opt(args, "output", str)
    if out is not None:
        _atomic_write(out, (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii"))


def _contact_sheet(images: np.ndarray) -> np.ndarray:
    n, h, w, c = images.shape
    cols = math.ceil(math.sqrt(n))
    rows = (n + cols - 1) // cols
    sheet = np.zeros((rows * h, cols * w, 3))
    for i in range(n):
        r, col = divmod(i, cols)
        tile = images[i] if c == 3 else np.repeat(images[i], 3, axis=2)
        sheet[r * h:(r + 1) * h, col * w:(col + 1) * w] = tile
    return sheet


# ---------------- config / option resolution ----------------

def parse_config(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments are ignored."""
    cfg = {}
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"bad config line: {line!r}")
        key, val = s.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _cast(key: str, raw: str, cast):
    if cast is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"bad value for {key}: {raw!r}")
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"bad value for {key}: {raw!r}") from None


def _opt(args, key: str, cast, default=None):
    """Flag value, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is None:
        raw = args.run_config.get(key)
        if raw is not None:
            val = _cast(key, raw, cast)
    return default if val is None else val


def _req(args, key: str, cast):
    val = _opt(args, key, cast)
    if val is None:
        raise ValueError(f"missing required option: --{key.replace('_', '-')}")
    return val


def _augment_spec(args, d: LabeledDataset) -> AugmentSpec:
    kind = _opt(args, "kind", str, "none")
    fill = tuple(channel_mean(d)) if kind == "cutout" else ()
    return AugmentSpec(
        kind=kind,
        sigma_max=_opt(args, "sigma_max", float, 0.0),
        patch_size=_opt(args, "patch_size", int, 1),
        sample_up_to=_opt(args, "sample_up_to", bool, False),
        fill=fill,
        order=_opt(args, "order", str, "augment_then_flipcrop"),
        pad=_opt(args, "pad", int, 0),
    )


# ---------------- commands ----------------

def cmd_augment(args) -> int:
    d = load_dataset(_req(args, "input", str))
    seed = _opt(args, "seed", int, 0)
    spec = _augment_spec(args, d)
    images = np.concatenate([run_pipeline_batch(d.images[rows.start:rows.stop], spec, seed, rows, "augment")
                             for rows in lockstep_groups(len(d))])
    write_dataset(LabeledDataset(images, d.labels.copy()), _req(args, "output", str))
    sheet = _opt(args, "sheet", str)
    if sheet is not None:
        _atomic_write(sheet, write_ppm(_contact_sheet(images)))
    print(f"augmented {len(d)} images ({spec.kind})")
    return 0


def cmd_corrupt(args) -> int:
    d = load_dataset(_req(args, "input", str))
    seed = _opt(args, "seed", int, 0)
    out = Path(_req(args, "output", str))
    if _opt(args, "suite", bool, False):
        for sigma, corrupted in gaussian_eval_suite(d, seed):
            write_dataset(corrupted, out / f"sigma_{sigma}")
        print(f"wrote {len(SIGMA_SUITE)}-sigma suite for {len(d)} images")
        return 0
    kind = _req(args, "kind", str)
    spec = CorruptionSpec(
        kind=kind,
        severity=_opt(args, "severity", int),
        param=_opt(args, "param", float),
    )
    table_path = _opt(args, "table", str)
    table = parse_severity_table(Path(table_path).read_text()) if table_path else None
    images = corrupt(d.images, spec, seed, tag=f"corrupt/{kind}", table=table)
    write_dataset(LabeledDataset(images, d.labels.copy()), out)
    print(f"corrupted {len(d)} images ({kind})")
    return 0


def cmd_eval(args) -> int:
    d = load_dataset(_req(args, "input", str))
    predictions = _opt(args, "predictions", str)
    model_path = _opt(args, "model", str)
    if (predictions is None) == (model_path is None):
        raise ValueError("need exactly one of --predictions / --model")
    if predictions is not None:
        preds = np.array([int(tok) for tok in Path(predictions).read_text().split()], dtype=np.int64)
    else:
        preds = decode_model(Path(model_path).read_bytes()).predict(d.images)
    acc = accuracy(preds, d.labels)
    print(f"accuracy {acc:.4f}")
    _write_report(args, {"clean_accuracy": acc, "count": len(d)})
    return 0


def _read_error_map(path) -> dict:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "kind,severity,error":
        raise ValueError(f"bad error map header in {path}")
    out = {}
    for ln in lines[1:]:
        kind, severity, error = ln.split(",")
        out[(kind.strip(), int(severity))] = float(error)
    return out


def cmd_mce(args) -> int:
    model_err = _read_error_map(_req(args, "input", str))
    baseline_err = _read_error_map(_req(args, "baseline", str))
    ce = corruption_error(model_err, baseline_err)
    report = {"ce": dict(sorted(ce.items())), "mce": mce(ce)}
    if _opt(args, "exclude_noise", bool, False):
        report["mce_minus_noise"] = mce(ce, exclude_noise=True)
    print(f"mCE {report['mce']:.3f}")
    _write_report(args, report)
    return 0


def _read_candidates(path) -> list:
    expect = "label,clean_acc," + ",".join(f"acc_{s}" for s in SIGMA_SUITE)
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != expect:
        raise ValueError(f"bad candidates header in {path}: want {expect!r}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2 + len(SIGMA_SUITE):
            raise ValueError(f"bad candidates row: {ln!r}")
        result = EvalResult(
            clean_accuracy=float(cells[1]),
            per_sigma_accuracy={s: float(c) for s, c in zip(SIGMA_SUITE, cells[2:])},
        )
        out.append(Candidate(label=cells[0].strip(), result=result))
    return out


def cmd_select(args) -> int:
    winner = select_hparams(_read_candidates(_req(args, "input", str)), _req(args, "z", float))
    print(winner.label)
    _write_report(args, {
        "winner": winner.label,
        "clean_accuracy": winner.result.clean_accuracy,
        "robustness": relative_gaussian_robustness(winner.result),
    })
    return 0


def cmd_fourier(args) -> int:
    d = load_dataset(_req(args, "input", str))
    m = decode_model(Path(_req(args, "model", str)).read_bytes())
    seed = _opt(args, "seed", int, 0)
    h, w = d.images.shape[1:3]
    freqs = half_plane_frequencies(h, w)
    max_freq = _opt(args, "max_freq", float)
    if max_freq is not None:
        freqs = [(i, j) for (i, j) in freqs if math.hypot(i, j) <= max_freq]
    hm = sensitivity_heatmap(
        m, d,
        v=_req(args, "norm", float),
        probe=_opt(args, "probe", str, "test_error"),
        seed=seed,
        freqs=freqs,
        workers=_opt(args, "workers", int, 1),
    )
    _atomic_write(_req(args, "output", str), format_heatmap_csv(hm).encode("ascii"))
    ppm = _opt(args, "ppm", str)
    if ppm is not None:
        _atomic_write(ppm, write_ppm(np.repeat(render_heatmap(hm, h, w), 3, axis=2)))
    print(f"heatmap over {len(freqs)} frequencies ({hm.probe})")
    return 0


def cmd_highpass(args) -> int:
    d = load_dataset(_req(args, "input", str))
    radius = _req(args, "radius", float)
    images = high_pass(d.images, radius)
    write_dataset(LabeledDataset(images, d.labels.copy()), _req(args, "output", str))
    print(f"high-pass filtered {len(d)} images at radius {radius}")
    return 0


def cmd_train(args) -> int:
    d = load_dataset(_req(args, "input", str))
    seed = _opt(args, "seed", int, 0)
    classes = _opt(args, "classes", int, int(d.labels.max()) + 1 if len(d) else 2)
    m = init_toy_model(
        seed,
        k=_opt(args, "filters", int, 16),
        c=d.images.shape[3],
        g=_opt(args, "pool_grid", int, 4),
        classes=classes,
    )
    cfg = TrainConfig(
        epochs=_opt(args, "epochs", int, 10),
        learning_rate=_opt(args, "lr", float, 0.1),
        batch_size=_opt(args, "batch_size", int, 16),
        seed=seed,
        augment=_augment_spec(args, d),
    )
    trained = train(m, d, cfg)
    _atomic_write(_req(args, "output", str), encode_model(trained))
    print(f"train accuracy {evaluate(trained, d):.4f}")
    return 0


def cmd_synth(args) -> int:
    d = synth_dataset(_opt(args, "seed", int, 0), _opt(args, "count", int, 128))
    write_dataset(d, _req(args, "output", str))
    print(f"wrote {len(d)} synthetic images")
    return 0


# ---------------- parser ----------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--seed", type=int)
    common.add_argument("--workers", type=int)
    common.add_argument("--input")
    common.add_argument("--output")

    aug_flags = argparse.ArgumentParser(add_help=False)
    aug_flags.add_argument("--kind")
    aug_flags.add_argument("--sigma-max", type=float)
    aug_flags.add_argument("--patch-size", type=int)
    aug_flags.add_argument("--sample-up-to", action=argparse.BooleanOptionalAction, default=None)
    aug_flags.add_argument("--order", choices=ORDERS)
    aug_flags.add_argument("--pad", type=int)

    parser = argparse.ArgumentParser(prog="robustaug", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", parents=[common, aug_flags], help="augment a dataset")
    p.add_argument("--sheet", help="optional PPM contact sheet path")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("corrupt", parents=[common], help="corrupt a dataset")
    p.add_argument("--suite", action=argparse.BooleanOptionalAction, default=None,
                   help="write the fixed sigma suite instead of one corruption")
    p.add_argument("--kind", choices=CORRUPTION_KINDS)
    p.add_argument("--severity", type=int)
    p.add_argument("--param", type=float)
    p.add_argument("--table", help="severity table file")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("eval", parents=[common], help="score predictions or a checkpoint")
    p.add_argument("--predictions", help="text file, one label per line")
    p.add_argument("--model", help="TOYM checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mce", parents=[common], help="corruption error report")
    p.add_argument("--baseline", help="baseline error map CSV")
    p.add_argument("--exclude-noise", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_mce)

    p = sub.add_parser("select", parents=[common], help="hyperparameter selection")
    p.add_argument("--z", type=float, help="clean accuracy threshold")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fourier", parents=[common], help="sensitivity heatmap")
    p.add_argument("--model", help="TOYM checkpoint")
    p.add_argument("--probe", choices=("test_error", "first_layer"))
    p.add_argument("--norm", type=float, help="perturbation l2 norm")
    p.add_argument("--max-freq", type=float, help="keep frequencies within this magnitude")
    p.add_argument("--ppm", help="optional PPM rendering path")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("highpass", parents=[common], help="high-pass filter a dataset")
    p.add_argument("--radius", type=float)
    p.set_defaults(func=cmd_highpass)

    p = sub.add_parser("train", parents=[common, aug_flags], help="train the toy classifier")
    p.add_argument("--filters", type=int)
    p.add_argument("--pool-grid", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic dataset")
    p.add_argument("--count", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run_config = parse_config(Path(args.config).read_text()) if args.config else {}
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
