"""End-to-end command-line behavior on temp directories."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustaug.cli as cli_module
from robustaug.cli import _contact_sheet, _read_ints, load_dataset, main, parse_config, write_dataset
from robustaug.corrupt import SIGMA_SUITE
from robustaug.images import LabeledDataset, decode_tensor, encode_tensor
from robustaug.model import decode_model, synth_dataset


def run(*argv):
    return main([str(a) for a in argv])


def dir_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def make_synth(tmp_path, name="data", count=8, seed=3):
    d = tmp_path / name
    assert run("synth", "--output", d, "--seed", seed, "--count", count) == 0
    return d


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    d = make_synth(tmp_path)
    assert (d / "labels.txt").exists()
    ds = load_dataset(d)
    assert ds.images.shape == (8, 32, 32, 1)
    assert "wrote 8 synthetic images" in capsys.readouterr().out


def test_load_rejects_stale_images_of_a_larger_dataset(tmp_path, capsys):
    d = make_synth(tmp_path, count=5)
    for i in (5, 6, 7):  # what a larger dataset would have left behind
        (d / f"{i:05d}.imgt").write_bytes((d / "00000.imgt").read_bytes())
    with pytest.raises(ValueError, match="8 .imgt files for 5 labels"):
        load_dataset(d)
    assert run("augment", "--input", d, "--output", tmp_path / "aug") == 1
    assert "8 .imgt files for 5 labels" in capsys.readouterr().err


def test_load_names_an_image_shaped_unlike_the_first(tmp_path, capsys):
    d = make_synth(tmp_path, count=5)
    (d / "00003.imgt").write_bytes(encode_tensor(np.zeros((32, 31, 1))))
    with pytest.raises(ValueError, match=r"00003\.imgt: shape \(32, 31, 1\) differs from \(32, 32, 1\) of 00000\.imgt"):
        load_dataset(d)
    assert run("highpass", "--input", d, "--output", tmp_path / "hp", "--radius", 2) == 1
    assert "00003.imgt: shape (32, 31, 1)" in capsys.readouterr().err


def test_smaller_dataset_replaces_a_larger_one(tmp_path):
    d = make_synth(tmp_path, count=8)
    (d / "notes.imgt").write_bytes(b"kept")
    assert run("synth", "--output", d, "--seed", 4, "--count", 5) == 0
    assert (d / "notes.imgt").read_bytes() == b"kept"
    (d / "notes.imgt").unlink()
    fresh = make_synth(tmp_path, name="fresh", count=5, seed=4)
    assert load_dataset(d).images.shape == (5, 32, 32, 1)
    assert dir_bytes(d) == dir_bytes(fresh)


def test_augment_reruns_and_workers_are_byte_identical(tmp_path):
    d = make_synth(tmp_path)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    base = ["augment", "--input", d, "--seed", "7",
            "--kind", "patch_gaussian", "--sigma-max", "1.0", "--patch-size", "8", "--pad", "2"]
    assert run(*base, "--output", outs[0]) == 0
    assert run(*base, "--output", outs[1]) == 0
    assert run(*base, "--output", outs[2], "--workers", "4") == 0
    assert dir_bytes(outs[0]) == dir_bytes(outs[1]) == dir_bytes(outs[2])
    assert not list(outs[0].glob("*.tmp"))


def test_augment_contact_sheet(tmp_path):
    d = make_synth(tmp_path, count=5)
    sheet = tmp_path / "sheet.ppm"
    assert run("augment", "--input", d, "--output", tmp_path / "aug",
               "--kind", "gaussian", "--sigma-max", "0.3", "--sheet", sheet) == 0
    data = sheet.read_bytes()
    # 5 images tile into a 3x2 grid of 32px cells
    assert data.startswith(b"P6\n96 64\n255\n")


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_contact_sheet_tiles_images_row_major(n, c):
    images = np.random.default_rng(n).random((n, 4, 3, c))
    cols = math.ceil(math.sqrt(n))
    want = np.zeros(((n + cols - 1) // cols * 4, cols * 3, 3))
    for i in range(n):  # one tile per image, gray images repeated into RGB
        r, col = divmod(i, cols)
        want[r * 4:(r + 1) * 4, col * 3:(col + 1) * 3] = images[i]
    assert np.array_equal(_contact_sheet(images), want)


def test_cifar_batch_input(tmp_path, capsys):
    records = b""
    for label in (3, 5):
        records += bytes([label]) + bytes(range(256)) * 12
    bin_path = tmp_path / "batch.bin"
    bin_path.write_bytes(records)
    preds = tmp_path / "preds.txt"
    preds.write_text("3\n5\n")
    report = tmp_path / "report.json"
    assert run("eval", "--input", bin_path, "--predictions", preds, "--output", report) == 0
    assert "accuracy 1.0000" in capsys.readouterr().out
    assert json.loads(report.read_text()) == {"clean_accuracy": 1.0, "count": 2}


def test_eval_needs_exactly_one_source(tmp_path, capsys):
    d = make_synth(tmp_path)
    assert run("eval", "--input", d) == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_single_kind_matches_library(tmp_path):
    d = make_synth(tmp_path)
    out = tmp_path / "bright"
    assert run("corrupt", "--input", d, "--output", out, "--kind", "brightness", "--param", "0.2") == 0
    src = load_dataset(d)
    got = decode_tensor((out / "00000.imgt").read_bytes())
    want = np.clip(src.images[0] + 0.2, 0.0, 1.0).astype(np.float32).astype(np.float64)
    assert np.array_equal(got, want)


def test_corrupt_severity_reads_its_level_from_the_table(tmp_path):
    d = make_synth(tmp_path, count=4)
    table = tmp_path / "table.txt"
    table.write_text("".join(f"brightness {level} {0.11 * level}\n" for level in range(1, 6)))
    by_level, by_param = tmp_path / "level", tmp_path / "param"
    assert run("corrupt", "--input", d, "--output", by_level, "--kind", "brightness", "--severity", "2",
               "--table", table) == 0
    assert run("corrupt", "--input", d, "--output", by_param, "--kind", "brightness", "--param", 0.11 * 2) == 0
    assert dir_bytes(by_level) == dir_bytes(by_param)


def test_corrupt_table_without_the_kind_exits_1_naming_the_file(tmp_path, capsys):
    d = make_synth(tmp_path, count=4)
    table, out = tmp_path / "table.txt", tmp_path / "out"
    table.write_text("".join(f"brightness {level} {0.1 * level}\n" for level in range(1, 6)))
    assert run("corrupt", "--input", d, "--output", out, "--kind", "contrast", "--severity", "1",
               "--table", table) == 1
    assert capsys.readouterr().err == f"error: {table}: severity table has no rows for contrast\n"
    assert not out.exists()


def test_corrupt_table_with_an_unknown_kind_exits_1_naming_the_file(tmp_path, capsys):
    d = make_synth(tmp_path, count=4)
    table, out = tmp_path / "table.txt", tmp_path / "out"
    table.write_text("".join(f"{kind} {level} {0.1 * level}\n" for kind in ("brightness", "fog")
                             for level in range(1, 6)))
    assert run("corrupt", "--input", d, "--output", out, "--kind", "brightness", "--severity", "1",
               "--table", table) == 1
    assert capsys.readouterr().err == f"error: {table}: unknown corruption kind: 'fog'\n"
    assert not out.exists()


@pytest.mark.parametrize("given", [[], ["--severity", "1", "--param", "0.1"]])
def test_corrupt_needs_exactly_one_of_severity_and_param(tmp_path, capsys, given):
    d, out = make_synth(tmp_path, count=4), tmp_path / "out"
    assert run("corrupt", "--input", d, "--output", out, "--kind", "brightness", *given) == 1
    assert capsys.readouterr().err == "error: need exactly one of --severity / --param\n"
    assert not out.exists()


def test_corrupt_severity_6_is_rejected(tmp_path, capsys):
    d, out = make_synth(tmp_path, count=4), tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        run("corrupt", "--input", d, "--output", out, "--kind", "brightness", "--severity", "6")
    assert e.value.code == 2
    assert "argument --severity: invalid choice: 6" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_suite_layout_and_determinism(tmp_path):
    d = make_synth(tmp_path, count=4)
    a, b = tmp_path / "suite_a", tmp_path / "suite_b"
    assert run("corrupt", "--input", d, "--output", a, "--seed", "11", "--suite") == 0
    assert run("corrupt", "--input", d, "--output", b, "--seed", "11", "--suite", "--workers", "3") == 0
    for sigma in SIGMA_SUITE:
        assert (a / f"sigma_{sigma}" / "labels.txt").exists()
    assert dir_bytes(a) == dir_bytes(b)


@pytest.mark.parametrize("given", [["--kind", "brightness", "--severity", "3"], ["--kind", "brightness"],
                                   ["--severity", "3"], ["--param", "0.2"], ["--table", "table.txt"],
                                   ["--config", "suite.cfg"]])
def test_corrupt_suite_refuses_one_corruption_flags(tmp_path, capsys, monkeypatch, given):
    d, out = make_synth(tmp_path, count=4), tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "suite.cfg").write_text("kind = brightness\nseverity = 3\n")
    assert run("corrupt", "--input", d, "--output", out, "--suite", *given) == 1
    assert capsys.readouterr().err == "error: --suite takes none of --kind / --severity / --param / --table\n"
    assert not out.exists()


def test_mce_self_baseline_prints_unity(tmp_path, capsys):
    rows = ["kind,severity,error"]
    for kind in ("gaussian_noise", "brightness"):
        for sev in range(1, 6):
            rows.append(f"{kind},{sev},{0.1 * sev:.3f}")
    err_csv = tmp_path / "err.csv"
    err_csv.write_text("\n".join(rows) + "\n")
    report = tmp_path / "mce.json"
    assert run("mce", "--input", err_csv, "--baseline", err_csv,
               "--exclude-noise", "--output", report) == 0
    assert "mCE 1.000" in capsys.readouterr().out
    got = json.loads(report.read_text())
    assert got["mce"] == 1.0
    assert got["mce_minus_noise"] == 1.0
    assert got["ce"] == {"brightness": 1.0, "gaussian_noise": 1.0}


ERROR_MAP = ["kind,severity,error"] + [f"gaussian_noise,{sev},0.5" for sev in range(1, 6)]


@pytest.mark.parametrize("row,why", [
    ("gaussian_noise,1", "want 3 comma-separated columns"),
    ("gaussian_noise,1,0.5,0.1", "want 3 comma-separated columns"),
    ("gaussian_noise,one,0.5", "invalid literal for int()"),
    ("gaussian_noise,1,half", "could not convert string to float"),
    ("gaussian_noise,1,nan", "'nan' is not a rate in [0, 1]"),
    ("gaussian_noise,1,1.5", "'1.5' is not a rate in [0, 1]"),
    ("gaussian_noise,1,-0.1", "'-0.1' is not a rate in [0, 1]"),
])
def test_mce_names_the_line_of_a_bad_error_row(tmp_path, capsys, row, why):
    good, bad, report = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "mce.json"
    good.write_text("\n".join(ERROR_MAP) + "\n")
    bad.write_text("\n".join([ERROR_MAP[0], "", row] + ERROR_MAP[2:]) + "\n")
    for model_csv, baseline_csv in ((bad, good), (good, bad)):
        assert run("mce", "--input", model_csv, "--baseline", baseline_csv, "--output", report) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 3: ") and why in err
    assert not report.exists()


def test_mce_rejects_a_repeated_error_row(tmp_path, capsys):
    rows = ["kind,severity,error"] + [f"gaussian_noise,{sev},0.5" for sev in range(1, 6)]
    good = tmp_path / "good.csv"
    good.write_text("\n".join(rows) + "\n")
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join(rows + ["gaussian_noise,1,0.1"]) + "\n")
    for model_csv, baseline_csv in ((repeated, good), (good, repeated)):
        assert run("mce", "--input", model_csv, "--baseline", baseline_csv) == 1
        assert "repeated gaussian_noise,1 row" in capsys.readouterr().err


def test_select_reproduces_hand_winner(tmp_path, capsys):
    header = "label,clean_acc," + ",".join(f"acc_{s}" for s in SIGMA_SUITE)
    rows = [
        header,
        "A,0.97," + ",".join(["0.92"] * 6),   # robustness -0.05
        "B,0.96," + ",".join(["0.94"] * 6),   # robustness -0.02, below gate
    ]
    cands = tmp_path / "cands.csv"
    cands.write_text("\n".join(rows) + "\n")
    report = tmp_path / "select.json"
    assert run("select", "--input", cands, "--z", "0.965", "--output", report) == 0
    assert capsys.readouterr().out.strip() == "A"
    got = json.loads(report.read_text())
    assert got["winner"] == "A"
    assert abs(got["robustness"] + 0.05) < 1e-12
    # nobody qualifies: fall back to best clean accuracy
    assert run("select", "--input", cands, "--z", "0.99") == 0
    assert capsys.readouterr().out.strip() == "A"


def test_select_rejects_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,clean\nA,0.9\n")
    assert run("select", "--input", bad, "--z", "0.9") == 1
    assert "bad candidates header" in capsys.readouterr().err


@pytest.mark.parametrize("row,why", [
    ("B,0.96," + ",".join(["0.94"] * 5), "want 8 comma-separated columns"),
    ("B,0.96," + ",".join(["0.94"] * 5) + ",high", "could not convert string to float"),
    ("B,1.2," + ",".join(["0.94"] * 6), "'1.2' is not a rate in [0, 1]"),
])
def test_select_names_the_line_of_a_bad_candidate_row(tmp_path, capsys, row, why):
    header = "label,clean_acc," + ",".join(f"acc_{s}" for s in SIGMA_SUITE)
    cands = tmp_path / "cands.csv"
    cands.write_text("\n".join([header, "A,0.97," + ",".join(["0.92"] * 6), row]) + "\n")
    assert run("select", "--input", cands, "--z", "0.9") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cands}: line 3: ") and why in err


def test_highpass_zero_radius_copies_bytes(tmp_path):
    d = make_synth(tmp_path)
    out = tmp_path / "hp"
    assert run("highpass", "--input", d, "--output", out, "--radius", "0") == 0
    assert dir_bytes(out) == dir_bytes(d)


def test_empty_dataset_directory_is_diagnosed(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    (d / "labels.txt").write_text("")
    with pytest.raises(ValueError, match="empty dataset"):
        load_dataset(d)
    assert run("highpass", "--input", d, "--output", tmp_path / "hp", "--radius", "1") == 1
    assert f"error: {d}: empty dataset" in capsys.readouterr().err
    assert not (tmp_path / "hp").exists()


def test_non_integer_label_names_file_and_line(tmp_path, capsys):
    d = make_synth(tmp_path, count=4)
    (d / "labels.txt").write_text("0\n1\n0x\n1\n")
    with pytest.raises(ValueError, match=r"labels.txt: line 3: '0x' is not a 64-bit integer"):
        load_dataset(d)
    assert run("highpass", "--input", d, "--output", tmp_path / "hp", "--radius", "1") == 1
    assert f"error: {d / 'labels.txt'}: line 3: '0x' is not a 64-bit integer" in capsys.readouterr().err


def test_non_integer_prediction_names_file_and_line(tmp_path, capsys):
    d = make_synth(tmp_path, count=4)
    preds = tmp_path / "preds.txt"
    preds.write_text("0 1\n0 1.5\n")
    assert run("eval", "--input", d, "--predictions", preds) == 1
    assert f"error: {preds}: line 2: '1.5' is not a 64-bit integer" in capsys.readouterr().err


def test_empty_cifar_batch_is_diagnosed(tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="empty dataset"):
        load_dataset(empty)
    for argv in (["highpass", "--radius", "1"], ["augment"]):
        assert run(*argv, "--input", empty, "--output", tmp_path / "out") == 1
        assert f"error: {empty}: empty dataset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, why", [
    (bytes(3072), "malformed batch: 3072 bytes is not a multiple of 3073"),
    (bytes([10]) + bytes(3072), "label out of range: 10"),
], ids=["malformed", "label"])
def test_cifar_batch_errors_name_the_file(tmp_path, capsys, payload, why):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(payload)
    assert run("eval", "--input", bad, "--predictions", bad) == 1
    assert capsys.readouterr().err == f"error: {bad}: {why}\n"


GOOD_MAP = "kind,severity,error\n" + "".join(f"gaussian_noise,{sev},0.5\n" for sev in range(1, 6))
# input -> (argv before --output, the file it reads, bad bytes for it, whether it is text);
# "{data}" is a four-image dataset directory, "{map}" a valid error map and "{bad}" a file of its own
BAD_INPUTS = {
    "labels": (["highpass", "--input", "{data}", "--radius", "1"], "{data}/labels.txt", b"0\n1\nx\n1\n", True),
    "imgt": (["highpass", "--input", "{data}", "--radius", "1"], "{data}/00001.imgt", b"JUNK" * 5, False),
    "cifar": (["highpass", "--input", "{bad}", "--radius", "1"], "{bad}", bytes(3072), False),
    "eval-predictions": (["eval", "--input", "{data}", "--predictions", "{bad}"], "{bad}", b"0 x\n", True),
    "eval-model": (["eval", "--input", "{data}", "--model", "{bad}"], "{bad}", b"JUNK" + bytes(40), False),
    "fourier-model": (["fourier", "--input", "{data}", "--model", "{bad}", "--norm", "1"], "{bad}",
                      b"JUNK" + bytes(40), False),
    "config": (["augment", "--input", "{data}", "--config", "{bad}"], "{bad}", b"seed 5\n", True),
    "corrupt-table": (["corrupt", "--input", "{data}", "--kind", "brightness", "--severity", "1", "--table", "{bad}"],
                      "{bad}", b"brightness 1\n", True),
    "mce-input": (["mce", "--input", "{bad}", "--baseline", "{map}"], "{bad}", b"kind,severity\n", True),
    "mce-baseline": (["mce", "--input", "{map}", "--baseline", "{bad}"], "{bad}", b"kind,severity\n", True),
    "select-input": (["select", "--input", "{bad}", "--z", "0.9"], "{bad}", b"label\n", True),
}


# inputs that cannot be read: None leaves the path missing, DIRECTORY makes it a directory
DIRECTORY = "directory"
UNREADABLE = [("cifar", None, "No such file or directory"), ("eval-predictions", None, "No such file or directory"),
              ("eval-model", DIRECTORY, "Is a directory")]


@pytest.mark.parametrize("name,payload,why",
                         [pytest.param(name, case[2], None, id=f"{name}-bad") for name, case in BAD_INPUTS.items()]
                         + [pytest.param(name, b"0\n\xff\n", None, id=f"{name}-non-utf-8")
                            for name, case in BAD_INPUTS.items() if case[3]]
                         + [pytest.param(name, payload, why, id=f"{name}-{payload or 'missing'}")
                            for name, payload, why in UNREADABLE])
def test_every_bad_input_file_exits_1_naming_it(tmp_path, capsys, name, payload, why):
    argv, target, _, _ = BAD_INPUTS[name]
    places = {"data": make_synth(tmp_path, count=4), "map": tmp_path / "map.csv", "bad": tmp_path / "bad"}
    places["map"].write_text(GOOD_MAP)
    bad, out = Path(target.format(**places)), tmp_path / "out"
    if payload == DIRECTORY:
        bad.mkdir()
    elif payload is not None:
        bad.write_bytes(payload)
    assert run(*[arg.format(**places) for arg in argv], "--output", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert why is None or err == f"error: {bad}: {why}\n", err
    assert not out.exists()


@pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809", "1" + "0" * 30])
def test_integer_beyond_int64_names_file_and_line(tmp_path, capsys, token):
    d = make_synth(tmp_path, count=4)
    preds = tmp_path / "preds.txt"
    preds.write_text(f"0 1\n{token} 1\n")
    assert run("eval", "--input", d, "--predictions", preds) == 1
    assert capsys.readouterr().err == f"error: {preds}: line 2: {token!r} is not a 64-bit integer\n"
    assert list(_read_ints(b"9223372036854775807 -9223372036854775808")) == [2**63 - 1, -2**63]


def test_train_eval_fourier_round_trip(tmp_path, capsys):
    d = make_synth(tmp_path, count=8)
    ckpt = tmp_path / "model.toym"
    assert run("train", "--input", d, "--output", ckpt, "--seed", "2",
               "--filters", "2", "--pool-grid", "2", "--epochs", "1",
               "--lr", "0.2", "--batch-size", "4") == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out
    m = decode_model(ckpt.read_bytes())
    assert m.filters.shape == (2, 3, 3, 1)

    assert run("eval", "--input", d, "--model", ckpt) == 0
    assert "accuracy" in capsys.readouterr().out

    hm_a, hm_b = tmp_path / "a.csv", tmp_path / "b.csv"
    ppm = tmp_path / "hm.ppm"
    base = ["fourier", "--input", d, "--model", ckpt, "--norm", "2.0",
            "--probe", "first_layer", "--seed", "4", "--max-freq", "3"]
    assert run(*base, "--output", hm_a, "--ppm", ppm) == 0
    assert run(*base, "--output", hm_b, "--workers", "3") == 0
    assert hm_a.read_bytes() == hm_b.read_bytes()
    lines = hm_a.read_text().splitlines()
    assert lines[0] == "# probe=first_layer v=2.0 seed=4"
    assert lines[1] == "i,j,value,absolute"
    assert ppm.read_bytes().startswith(b"P6\n32 32\n255\n")


def test_config_file_defaults_and_flag_override(tmp_path):
    d = make_synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nseed=5\nkind=gaussian\nsigma-max=0.7\n")
    a, b, c = tmp_path / "ca", tmp_path / "cb", tmp_path / "cc"
    assert run("augment", "--input", d, "--output", a, "--config", cfg) == 0
    assert run("augment", "--input", d, "--output", b,
               "--seed", "5", "--kind", "gaussian", "--sigma-max", "0.7") == 0
    assert dir_bytes(a) == dir_bytes(b)
    assert run("augment", "--input", d, "--output", c, "--config", cfg, "--seed", "6") == 0
    assert dir_bytes(c) != dir_bytes(a)


@pytest.fixture(scope="module")
def data_and_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    data, ckpt = root / "data", root / "model.toym"
    assert run("synth", "--output", data, "--seed", 3, "--count", 8) == 0
    assert run("train", "--input", data, "--output", ckpt, "--filters", 2, "--pool-grid", 2, "--epochs", 1) == 0
    return data, ckpt


PATCH = ["--kind", "patch_gaussian", "--sigma-max", "1.0", "--patch-size", "8"]
TRAIN = ["--filters", "2", "--pool-grid", "2", "--epochs", "1"]
NOISY_TRAIN = TRAIN + ["--kind", "gaussian", "--sigma-max", "0.5", "--pad", "2"]
FOURIER = ["--max-freq", "2", "--norm", "2.0"]

# (command, flags given both ways, the flags under test, the config line in their place);
# "{out}" stands for the run's output directory
CONFIG_CASES = {
    "augment-int": ("augment", PATCH, ["--seed", "7"], "seed=7"),
    "augment-float": ("augment", ["--kind", "gaussian"], ["--sigma-max", "0.7"], "sigma-max = 0.7"),
    "augment-true": ("augment", PATCH, ["--sample-up-to"], "sample_up_to=yes"),
    "augment-false": ("augment", PATCH, ["--no-sample-up-to"], "sample_up_to=Off"),
    "augment-path": ("augment", PATCH, ["--sheet", "{out}/sheet.ppm"], "sheet={out}/sheet.ppm"),
    "train-int": ("train", NOISY_TRAIN, ["--batch-size", "3"], "batch_size=3"),
    "train-float": ("train", NOISY_TRAIN, ["--lr", "0.3"], "lr=0.3"),
    "train-true": ("train", TRAIN + PATCH, ["--sample-up-to"], "sample-up-to=1"),
    "train-false": ("train", TRAIN + PATCH, ["--no-sample-up-to"], "sample-up-to=false"),
    "train-choices": ("train", NOISY_TRAIN, ["--order", "flipcrop_then_augment"], "order=flipcrop_then_augment"),
    "fourier-int": ("fourier", FOURIER, ["--seed", "5"], "seed=5"),
    "fourier-float": ("fourier", ["--max-freq", "2"], ["--norm", "3.5"], "norm=3.5"),
    "fourier-choices": ("fourier", FOURIER, ["--probe", "first_layer"], "probe=first_layer"),
    "fourier-path": ("fourier", FOURIER, ["--ppm", "{out}/hm.ppm"], "ppm={out}/hm.ppm"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_line_matches_its_flag(tmp_path, data_and_model, case):
    command, both, flags, line = CONFIG_CASES[case]
    data, ckpt = data_and_model
    trees = []
    for name in ("flags", "config"):
        out = tmp_path / name
        argv = [command, "--input", data, "--output", out / "result", *both]
        argv += ["--model", ckpt] if command == "fourier" else []
        if name == "flags":
            argv += [flag.format(out=out) for flag in flags]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"# {case}\n{line.format(out=out)}\n")
            argv += ["--config", cfg]
        assert run(*argv) == 0
        trees.append(dir_bytes(out))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("command,text,named", [
    ("augment", "kind=gaussian\nsigma_mx=0.7", "sigma_mx is not an option of robustaug augment"),
    ("augment", "radius=2", "radius is not an option of robustaug augment"),
    ("augment", "config=other.cfg", "config is not an option of robustaug augment"),
    ("train", "order=sideways", "bad value for order: 'sideways'"),
    ("fourier", "probe=last_layer", "bad value for probe: 'last_layer'"),
    ("train", "epochs=2.5", "bad value for epochs: '2.5'"),
    ("augment", "sample-up-to=maybe", "bad value for sample_up_to: 'maybe'"),
    ("augment", "# defaults\nseed=5\nseed 5", "line 3: 'seed 5' is not key=value"),
    ("corrupt", "kind=brightness\nseverity=6", "bad value for severity: '6'"),
])
def test_bad_config_line_exits_1_naming_the_key(tmp_path, capsys, data_and_model, command, text, named):
    data, ckpt = data_and_model
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(text + "\n")
    model = ["--model", ckpt] if command == "fourier" else []
    assert run(command, "--input", data, *model, "--output", out, "--config", cfg) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {named}\n"
    assert not out.exists()


def test_bad_severity_table_line_exits_1_naming_the_file_and_line(tmp_path, capsys):
    d = make_synth(tmp_path, count=4)
    table, out = tmp_path / "table.txt", tmp_path / "out"
    table.write_text("brightness 1 0.05\nbrightness 2\n")
    assert run("corrupt", "--input", d, "--output", out, "--kind", "brightness", "--severity", "1",
               "--table", table) == 1
    assert capsys.readouterr().err == f"error: {table}: line 2: expected 'kind level parameter'\n"
    assert not out.exists()


# (argv before --input and --output, the error); "{model}" stands for a checkpoint;
# select reads a one-row candidates file, the others a dataset
NON_FINITE_CASES = {
    "highpass-radius-nan": (["highpass", "--radius", "nan"], "radius must be >= 0, got nan"),
    "fourier-norm-nan": (["fourier", "--model", "{model}", "--norm", "nan"],
                         "perturbation norm must be finite and >= 0, got nan"),
    "fourier-norm-inf": (["fourier", "--model", "{model}", "--norm", "inf"],
                         "perturbation norm must be finite and >= 0, got inf"),
    "fourier-max-freq-nan": (["fourier", "--model", "{model}", "--norm", "1", "--max-freq", "nan"],
                             "max_freq must be >= 0, got nan"),
    "fourier-max-freq-negative": (["fourier", "--model", "{model}", "--norm", "1", "--max-freq", "-1"],
                                  "max_freq must be >= 0, got -1.0"),
    "select-z-nan": (["select", "--z", "nan"], "clean accuracy threshold z is nan"),
    "augment-sigma-max-nan": (["augment", "--kind", "gaussian", "--sigma-max", "nan"],
                              "sigma_max must be finite and >= 0, got nan"),
    "train-sigma-max-inf": (["train", *TRAIN, "--kind", "gaussian", "--sigma-max", "inf"],
                            "sigma_max must be finite and >= 0, got inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_option_exits_1_before_any_output(tmp_path, capsys, data_and_model, case):
    argv, named = NON_FINITE_CASES[case]
    data, ckpt = data_and_model
    cands, out = tmp_path / "cands.csv", tmp_path / "out"
    cands.write_text("label,clean_acc," + ",".join(f"acc_{s}" for s in SIGMA_SUITE) + "\nA,0.97" + ",0.9" * 6 + "\n")
    argv = [arg.format(model=ckpt) for arg in argv]
    assert run(*argv, "--input", cands if argv[0] == "select" else data, "--output", out) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match=r"^line 1: 'seed 5' is not key=value$"):
        parse_config("seed 5\n")
    assert parse_config("a=1\n\n# note\nb-c = x\n") == {"a": "1", "b_c": "x"}


def test_non_finite_image_mid_dataset_leaves_no_files(tmp_path):
    d = synth_dataset(0, 9)
    d.images[4, 7, 3, 0] = math.nan
    with pytest.raises(ValueError, match="non-finite values"):
        write_dataset(d, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_image_beyond_float32_mid_dataset_leaves_no_files(tmp_path, value):
    # float32 stores such a finite float64 as inf, which load_dataset would refuse.
    d = synth_dataset(0, 9)
    d.images[4, 7, 3, 0] = value
    with pytest.raises(ValueError, match="non-finite values as float32"):
        write_dataset(d, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    d.images[4, 7, 3, 0] = math.copysign(float(np.finfo(np.float32).max), value)  # the largest float32 is kept
    write_dataset(d, tmp_path / "out")
    assert load_dataset(tmp_path / "out").images[4, 7, 3, 0] == d.images[4, 7, 3, 0]


def test_two_channel_images_leave_no_files(tmp_path):
    with pytest.raises(ValueError, match=r"bad dimensions: \(4, 4, 2\)"):
        write_dataset(LabeledDataset(np.zeros((3, 4, 4, 2)), np.zeros(3, dtype=np.int64)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_load_decodes_each_file_once_and_a_write_makes_its_directory_once(tmp_path, monkeypatch):
    d, decoded, made = synth_dataset(0, 5), [], []
    decode, mkdir = cli_module.decode_tensor, Path.mkdir
    monkeypatch.setattr(cli_module, "decode_tensor", lambda data: decoded.append(1) or decode(data))
    monkeypatch.setattr(Path, "mkdir", lambda self, *a, **k: made.append(self) or mkdir(self, *a, **k))
    write_dataset(d, tmp_path / "data")
    assert made == [tmp_path / "data"]
    assert np.array_equal(load_dataset(tmp_path / "data").images, d.images.astype(np.float32))
    assert len(decoded) == 5


def test_failed_command_leaves_no_output(tmp_path, capsys):
    d = make_synth(tmp_path)
    out = tmp_path / "never"
    assert run("augment", "--input", d, "--output", out, "--kind", "bogus") == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_option(tmp_path, capsys):
    d = make_synth(tmp_path)
    assert run("corrupt", "--input", d, "--output", tmp_path / "x") == 1
    assert "--kind" in capsys.readouterr().err


def test_missing_input_file_is_diagnosed(tmp_path, capsys):
    assert run("eval", "--input", tmp_path / "nope", "--predictions", tmp_path / "p.txt") == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy takes most of a second to import; only two corruptions need it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, robustaug.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
