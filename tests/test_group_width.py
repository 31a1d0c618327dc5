"""Outputs do not depend on the lockstep group width.

Batch callers step LOCKSTEP_STREAMS streams together. The streams are
derived from counters (seed, index, tag), so which of them share a step must
never change a bit. These cases run with groups of 16, 96 and the package's
width and compare the bytes: 130 images make 9, 2 and 1 groups, and in
batches of 7 groups of 14, 91 and 399 images.
"""

import hashlib

import numpy as np
import pytest

from robustaug import rng
from robustaug.augment import AugmentSpec
from robustaug.cli import main as cli_main
from robustaug.corrupt import CorruptionSpec, corrupt
from robustaug.model import TrainConfig, encode_model, init_toy_model, synth_dataset, train

WIDTHS = (16, 96, rng.LOCKSTEP_STREAMS)


def outputs_at_each_width(monkeypatch, build) -> list:
    outs = []
    for width in WIDTHS:
        monkeypatch.setattr(rng, "LOCKSTEP_STREAMS", width)
        outs.append(build())
    return outs


@pytest.mark.parametrize("multiple", [1, 7])
def test_widths_group_130_images_differently(monkeypatch, multiple):
    # The comparisons below show something only if the groupings differ.
    counts = outputs_at_each_width(monkeypatch, lambda: len(rng.lockstep_groups(130, multiple)))
    assert len(set(counts)) == 3


def test_train_checkpoint(monkeypatch):
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.5, patch_size=8, sample_up_to=True, pad=4,
                       order="flipcrop_then_augment")
    cfg = TrainConfig(epochs=2, learning_rate=0.2, batch_size=7, seed=4, augment=spec)
    d = synth_dataset(4, 130)
    outs = outputs_at_each_width(monkeypatch, lambda: encode_model(train(init_toy_model(4, 6, 1, 2, 2), d, cfg)))
    assert outs[0] == outs[1] == outs[2]


def test_synth_dataset(monkeypatch):
    outs = outputs_at_each_width(monkeypatch, lambda: synth_dataset(5, 130).images.tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_corrupt_gaussian_noise(monkeypatch):
    # 9x7x3 fields hold 189 values: each image leaves a pending normal.
    images = np.random.default_rng(6).random((130, 9, 7, 3))
    spec = CorruptionSpec("gaussian_noise", severity=5)
    outs = outputs_at_each_width(monkeypatch, lambda: corrupt(images, spec, 6, tag="width").tobytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("order", ["augment_then_flipcrop", "flipcrop_then_augment"])
def test_cli_augment(monkeypatch, tmp_path, order):
    data = tmp_path / "data"
    assert cli_main(["synth", "--output", str(data), "--seed", "7", "--count", "130"]) == 0

    def augment_tree():
        out = tmp_path / f"aug{rng.LOCKSTEP_STREAMS}"
        assert cli_main(["augment", "--input", str(data), "--output", str(out), "--seed", "8",
                         "--kind", "patch_gaussian", "--sigma-max", "2.0", "--patch-size", "12",
                         "--sample-up-to", "--pad", "2", "--order", order]) == 0
        return hashlib.sha256(b"".join(p.read_bytes() for p in sorted(out.iterdir()))).hexdigest()

    outs = outputs_at_each_width(monkeypatch, augment_tree)
    assert outs[0] == outs[1] == outs[2]
