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
<index>.imgt tensors with a labels.txt.  Text inputs are UTF-8, and a bad input
file exits 1 with "error: PATH: [line N: ]what is wrong".  A --config file
holds flat key=value lines: each key is one of the command's long options
(dashes or underscores), an unknown key is an error, each value is checked as
its flag would be, and explicit flags override the file.  Every output file is
written to a temporary name and renamed into place, and every command is
deterministic given its seed and inputs.  Every command accepts --workers;
train (the epochs of a noise arm), fourier (the heatmap frequencies) and
corrupt --suite (the sigmas) spread their work over that many forked
processes with one BLAS thread each, and give the same bytes at every
worker count.  Where fork is missing they run sequentially and warn once;
the other commands run in one process, a chunk of images at a time.
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
    DEFAULT_SEVERITY,
    SIGMA_SUITE,
    corrupt,
    gaussian_eval_suite,
    parse_severity_table,
)
from .fourier import (
    PROBES,
    format_heatmap_csv,
    half_plane_frequencies,
    high_pass,
    render_heatmap,
    sensitivity_heatmap,
)
from .images import (
    LabeledDataset,
    channel_mean,
    check_encodable,
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
from .parallel import indexed_map
from .rng import lockstep_groups

_BOOL = {"1": True, "true": True, "yes": True, "on": True,
         "0": False, "false": False, "no": False, "off": False}


# ---------------- files ----------------

def _atomic_write(path, data: bytes) -> None:
    path = Path(path)
    if not path.parent.is_dir():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _image_name(i: int) -> str:
    return f"{i:05d}.imgt"


def _parse_file(path, parse):
    """parse(the bytes of the file at path), its ValueError or OSError raised again naming the file."""
    try:
        return parse(Path(path).read_bytes())
    except ValueError as e:  # UnicodeDecodeError is one
        raise ValueError(f"{path}: {e}") from None
    except OSError as e:  # the same type, so a caller can still catch FileNotFoundError
        raise type(e)(f"{path}: {e.strerror}") from None


def _read_ints(data: bytes) -> np.ndarray:
    """The whitespace-separated integers of a UTF-8 text file; a bad token raises ValueError naming its line."""
    values = []
    for no, line in enumerate(data.decode().splitlines(), 1):
        for tok in line.split():
            try:
                values.append(np.int64(tok))
            except (ValueError, OverflowError):
                raise ValueError(f"line {no}: {tok!r} is not a 64-bit integer") from None
    return np.array(values, dtype=np.int64)


def load_dataset(path) -> LabeledDataset:
    """CIFAR binary batch file, or a directory of equally shaped .imgt
    tensors + labels.txt."""
    p = Path(path)
    if not p.is_dir():
        return _parse_file(p, read_cifar10_batch)
    labels = _parse_file(p / "labels.txt", _read_ints)
    files = len(list(p.glob("*.imgt")))
    if files != len(labels):
        raise ValueError(f"{p}: {files} .imgt files for {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError(f"{p}: empty dataset, labels.txt lists no images")
    first = _parse_file(p / _image_name(0), decode_tensor)
    images = np.empty((len(labels),) + first.shape)

    def decode_like_first(data):
        if (image := decode_tensor(data)).shape != first.shape:
            raise ValueError(f"shape {image.shape} differs from {first.shape} of {_image_name(0)}")
        return image

    for i in range(len(labels)):
        images[i] = _parse_file(p / _image_name(i), decode_like_first) if i else first
    return LabeledDataset(images, labels)


def write_dataset(d: LabeledDataset, out_dir) -> None:
    """Write d as out_dir/NNNNN.imgt plus labels.txt, then delete the image
    files a larger dataset left there, so load_dataset reads d back."""
    check_encodable(d.images)  # before the first write, so a failure leaves no files
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(len(d)):  # one encoded file at a time
        _atomic_write(out / _image_name(i), encode_tensor(d.images[i]))
    _atomic_write(out / "labels.txt", ("\n".join(str(int(x)) for x in d.labels) + "\n").encode("ascii"))
    for path in out.glob("*.imgt"):
        if path.stem.isdigit() and int(path.stem) >= len(d) and path.name == _image_name(int(path.stem)):
            path.unlink()


def _write_report(args, report: dict) -> None:
    if args.output is not None:
        _atomic_write(args.output, (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii"))


def _contact_sheet(images: np.ndarray) -> np.ndarray:
    n, h, w, _ = images.shape
    cols = math.ceil(math.sqrt(n))
    rows = (n + cols - 1) // cols
    tiles = np.zeros((rows * cols, h, w, 3))
    tiles[:n] = images  # a 1-channel image broadcasts to gray RGB
    return tiles.reshape(rows, cols, h, w, 3).transpose(0, 2, 1, 3, 4).reshape(rows * h, cols * w, 3)


# ---------------- config / option resolution ----------------

def parse_config(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments are ignored."""
    cfg = {}
    for no, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"line {no}: {line!r} is not key=value")
        key, val = s.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _config_defaults(command: argparse.ArgumentParser, data: bytes) -> dict:
    """The --config file's values, each parsed by the action of the command
    option it names: its type and choices, or _BOOL for an on/off flag."""
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, raw in parse_config(data.decode()).items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{key} is not an option of {command.prog}")
        try:
            if isinstance(action, argparse.BooleanOptionalAction):
                defaults[key] = _BOOL[raw.lower()]
            else:
                defaults[key] = command._get_value(action, raw)
                command._check_value(action, defaults[key])
        except (KeyError, argparse.ArgumentError):
            raise ValueError(f"bad value for {key}: {raw!r}") from None
    return defaults


def _req(args, key: str):
    val = getattr(args, key)
    if val is None:
        raise ValueError(f"missing required option: --{key.replace('_', '-')}")
    return val


def _augment_spec(args, d: LabeledDataset) -> AugmentSpec:
    return AugmentSpec(
        kind=args.kind,
        sigma_max=args.sigma_max,
        patch_size=args.patch_size,
        sample_up_to=args.sample_up_to,
        fill=tuple(channel_mean(d)) if args.kind == "cutout" else (),
        order=args.order,
        pad=args.pad,
    )


# ---------------- commands ----------------

def cmd_augment(args) -> int:
    d = load_dataset(_req(args, "input"))
    spec = _augment_spec(args, d)
    images = np.empty_like(d.images)
    for rows in lockstep_groups(len(d)):
        group = slice(rows.start, rows.stop)
        images[group] = run_pipeline_batch(d.images[group], spec, args.seed, rows, "augment")
    write_dataset(LabeledDataset(images, d.labels.copy()), _req(args, "output"))
    if args.sheet is not None:
        _atomic_write(args.sheet, write_ppm(_contact_sheet(images)))
    print(f"augmented {len(d)} images ({spec.kind})")
    return 0


def cmd_corrupt(args) -> int:
    if args.suite and any(getattr(args, key) is not None for key in ("kind", "severity", "param", "table")):
        raise ValueError("--suite takes none of --kind / --severity / --param / --table")
    d = load_dataset(_req(args, "input"))
    out = Path(_req(args, "output"))
    if args.suite:
        def write_sigma(i):
            for sigma, corrupted in gaussian_eval_suite(d, args.seed, SIGMA_SUITE[i:i + 1]):
                write_dataset(corrupted, out / f"sigma_{sigma}")

        list(indexed_map(write_sigma, len(SIGMA_SUITE), args.workers))
        print(f"wrote {len(SIGMA_SUITE)}-sigma suite for {len(d)} images")
        return 0
    kind = _req(args, "kind")
    if (args.severity is None) == (args.param is None):
        raise ValueError("need exactly one of --severity / --param")
    table = _parse_file(args.table, lambda b: parse_severity_table(b.decode())) if args.table else DEFAULT_SEVERITY
    if args.param is None and kind not in table:
        raise ValueError(f"{args.table}: severity table has no rows for {kind}")
    param = table[kind][args.severity - 1] if args.param is None else args.param
    images = corrupt(d.images, kind, param, args.seed, tag=f"corrupt/{kind}")
    write_dataset(LabeledDataset(images, d.labels.copy()), out)
    print(f"corrupted {len(d)} images ({kind})")
    return 0


def cmd_eval(args) -> int:
    d = load_dataset(_req(args, "input"))
    if (args.predictions is None) == (args.model is None):
        raise ValueError("need exactly one of --predictions / --model")
    if args.predictions is not None:
        preds = _parse_file(args.predictions, _read_ints)
    else:
        preds = _parse_file(args.model, decode_model).predict(d.images)
    acc = accuracy(preds, d.labels)
    print(f"accuracy {acc:.4f}")
    _write_report(args, {"clean_accuracy": acc, "count": len(d)})
    return 0


def _rate(cell: str) -> float:
    if not 0.0 <= (value := float(cell)) <= 1.0:  # also true for nan
        raise ValueError(f"{cell.strip()!r} is not a rate in [0, 1]")
    return value


def _read_table(data: bytes, what: str, header: str, casts) -> list:
    """The rows below a UTF-8 CSV file's header line, each cell converted by
    its column's cast; a bad row or cell raises ValueError naming its line."""
    lines = [(no, ln) for no, ln in enumerate(data.decode().splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip() != header:
        raise ValueError(f"bad {what} header: want {header!r}")
    rows = []
    for no, ln in lines[1:]:
        try:
            if ln.count(",") != len(casts) - 1:
                raise ValueError(f"want {len(casts)} comma-separated columns")
            rows.append([cast(cell) for cast, cell in zip(casts, ln.split(","))])
        except ValueError as e:
            raise ValueError(f"line {no}: {e}") from None
    return rows


def _read_error_map(data: bytes) -> dict:
    out = {}
    for kind, severity, error in _read_table(data, "error map", "kind,severity,error", (str.strip, int, _rate)):
        if (kind, severity) in out:
            raise ValueError(f"repeated {kind},{severity} row")
        out[kind, severity] = error
    return out


def cmd_mce(args) -> int:
    model_err = _parse_file(_req(args, "input"), _read_error_map)
    baseline_err = _parse_file(_req(args, "baseline"), _read_error_map)
    ce = corruption_error(model_err, baseline_err)
    report = {"ce": dict(sorted(ce.items())), "mce": mce(ce)}
    if args.exclude_noise:
        report["mce_minus_noise"] = mce(ce, exclude_noise=True)
    print(f"mCE {report['mce']:.3f}")
    _write_report(args, report)
    return 0


def _read_candidates(data: bytes) -> list:
    header = "label,clean_acc," + ",".join(f"acc_{s}" for s in SIGMA_SUITE)
    rows = _read_table(data, "candidates", header, (str.strip,) + (_rate,) * (1 + len(SIGMA_SUITE)))
    return [Candidate(label, EvalResult(clean, dict(zip(SIGMA_SUITE, accs)))) for label, clean, *accs in rows]


def cmd_select(args) -> int:
    winner = select_hparams(_parse_file(_req(args, "input"), _read_candidates), _req(args, "z"))
    print(winner.label)
    _write_report(args, {
        "winner": winner.label,
        "clean_accuracy": winner.result.clean_accuracy,
        "robustness": relative_gaussian_robustness(winner.result),
    })
    return 0


def cmd_fourier(args) -> int:
    d = load_dataset(_req(args, "input"))
    m = _parse_file(_req(args, "model"), decode_model)
    h, w = d.images.shape[1:3]
    freqs = half_plane_frequencies(h, w)
    if args.max_freq is not None:
        if not args.max_freq >= 0:  # also true for nan
            raise ValueError(f"max_freq must be >= 0, got {args.max_freq!r}")
        freqs = [(i, j) for (i, j) in freqs if math.hypot(i, j) <= args.max_freq]
    hm = sensitivity_heatmap(
        m, d,
        v=_req(args, "norm"),
        probe=args.probe,
        seed=args.seed,
        freqs=freqs,
        workers=args.workers,
    )
    _atomic_write(_req(args, "output"), format_heatmap_csv(hm).encode("ascii"))
    if args.ppm is not None:
        _atomic_write(args.ppm, write_ppm(np.repeat(render_heatmap(hm, h, w), 3, axis=2)))
    print(f"heatmap over {len(freqs)} frequencies ({hm.probe})")
    return 0


def cmd_highpass(args) -> int:
    d = load_dataset(_req(args, "input"))
    radius = _req(args, "radius")
    images = high_pass(d.images, radius)
    write_dataset(LabeledDataset(images, d.labels.copy()), _req(args, "output"))
    print(f"high-pass filtered {len(d)} images at radius {radius}")
    return 0


def cmd_train(args) -> int:
    d = load_dataset(_req(args, "input"))
    m = init_toy_model(
        args.seed,
        k=args.filters,
        c=d.images.shape[3],
        g=args.pool_grid,
        classes=int(d.labels.max()) + 1 if args.classes is None else args.classes,
    )
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        augment=_augment_spec(args, d),
    )
    trained = train(m, d, cfg, args.workers)
    _atomic_write(_req(args, "output"), encode_model(trained))
    print(f"train accuracy {evaluate(trained, d):.4f}")
    return 0


def cmd_synth(args) -> int:
    d = synth_dataset(args.seed, args.count)
    write_dataset(d, _req(args, "output"))
    print(f"wrote {len(d)} synthetic images")
    return 0


# ---------------- parser ----------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--input")
    common.add_argument("--output")

    aug_flags = argparse.ArgumentParser(add_help=False)
    aug_flags.add_argument("--kind", default="none")
    aug_flags.add_argument("--sigma-max", type=float, default=0.0)
    aug_flags.add_argument("--patch-size", type=int, default=1)
    aug_flags.add_argument("--sample-up-to", action=argparse.BooleanOptionalAction, default=False)
    aug_flags.add_argument("--order", choices=ORDERS, default="augment_then_flipcrop")
    aug_flags.add_argument("--pad", type=int, default=0)

    parser = argparse.ArgumentParser(prog="robustaug", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", parents=[common, aug_flags], help="augment a dataset")
    p.add_argument("--sheet", help="optional PPM contact sheet path")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("corrupt", parents=[common], help="corrupt a dataset")
    p.add_argument("--suite", action=argparse.BooleanOptionalAction, default=False,
                   help="write the fixed sigma suite instead of one corruption")
    p.add_argument("--kind", choices=CORRUPTION_KINDS)
    p.add_argument("--severity", type=int, choices=range(1, 6))
    p.add_argument("--param", type=float)
    p.add_argument("--table", help="severity table file")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("eval", parents=[common], help="score predictions or a checkpoint")
    p.add_argument("--predictions", help="text file, one label per line")
    p.add_argument("--model", help="TOYM checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mce", parents=[common], help="corruption error report")
    p.add_argument("--baseline", help="baseline error map CSV")
    p.add_argument("--exclude-noise", action=argparse.BooleanOptionalAction, default=False)
    p.set_defaults(func=cmd_mce)

    p = sub.add_parser("select", parents=[common], help="hyperparameter selection")
    p.add_argument("--z", type=float, help="clean accuracy threshold")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fourier", parents=[common], help="sensitivity heatmap")
    p.add_argument("--model", help="TOYM checkpoint")
    p.add_argument("--probe", choices=PROBES, default="test_error")
    p.add_argument("--norm", type=float, help="perturbation l2 norm")
    p.add_argument("--max-freq", type=float, help="keep frequencies within this magnitude")
    p.add_argument("--ppm", help="optional PPM rendering path")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("highpass", parents=[common], help="high-pass filter a dataset")
    p.add_argument("--radius", type=float)
    p.set_defaults(func=cmd_highpass)

    p = sub.add_parser("train", parents=[common, aug_flags], help="train the toy classifier")
    p.add_argument("--filters", type=int, default=16)
    p.add_argument("--pool-grid", type=int, default=4)
    p.add_argument("--classes", type=int, help="default: the largest label + 1")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=16)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic dataset")
    p.add_argument("--count", type=int, default=128)
    p.set_defaults(func=cmd_synth)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the command's defaults, so flags still win
            command = commands[args.command]
            command.set_defaults(**_parse_file(args.config, lambda data: _config_defaults(command, data)))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
