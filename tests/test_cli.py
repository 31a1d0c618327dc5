"""End-to-end command-line behavior on temp directories."""

import json
import struct

import numpy as np
import pytest

from robustaug.cli import load_dataset, main, parse_config
from robustaug.corrupt import SIGMA_SUITE
from robustaug.images import decode_tensor
from robustaug.model import decode_model


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
    d = make_synth(tmp_path, count=8)
    assert run("synth", "--output", d, "--seed", 4, "--count", 5) == 0
    with pytest.raises(ValueError, match="8 .imgt files for 5 labels"):
        load_dataset(d)
    assert run("augment", "--input", d, "--output", tmp_path / "aug") == 1
    assert "8 .imgt files for 5 labels" in capsys.readouterr().err


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


def test_corrupt_suite_layout_and_determinism(tmp_path):
    d = make_synth(tmp_path, count=4)
    a, b = tmp_path / "suite_a", tmp_path / "suite_b"
    assert run("corrupt", "--input", d, "--output", a, "--seed", "11", "--suite") == 0
    assert run("corrupt", "--input", d, "--output", b, "--seed", "11", "--suite", "--workers", "3") == 0
    for sigma in SIGMA_SUITE:
        assert (a / f"sigma_{sigma}" / "labels.txt").exists()
    assert dir_bytes(a) == dir_bytes(b)


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


def test_highpass_zero_radius_copies_bytes(tmp_path):
    d = make_synth(tmp_path)
    out = tmp_path / "hp"
    assert run("highpass", "--input", d, "--output", out, "--radius", "0") == 0
    assert dir_bytes(out) == dir_bytes(d)


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


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match="bad config line"):
        parse_config("seed 5\n")
    assert parse_config("a=1\n\n# note\nb-c = x\n") == {"a": "1", "b_c": "x"}


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
