"""Outputs do not depend on the lockstep group width.

Batch callers step LOCKSTEP_STREAMS streams together. The streams are
derived from counters (seed, index, tag), so which of them share a step must
never change a bit. These cases run with groups of 16, 96 and the package's
width and compare the bytes: 130 images make 9, 2 and 1 groups, and in
batches of 7 groups of 14, 91 and 399 images. Scores are checked on 97
images, which leave a one-image group at widths 16 and 96, with a near-tie
head, whose two logits differ only in their rounding.
"""

import hashlib

import numpy as np
import pytest

from robustaug import rng
from robustaug.augment import AugmentSpec
from robustaug.cli import main as cli_main
from robustaug.corrupt import DEFAULT_SEVERITY, NOISE_KINDS, corrupt, gaussian_eval_suite
from robustaug.fourier import half_plane_frequencies, sensitivity_heatmap
from robustaug.images import LabeledDataset
from robustaug.model import (
    ToyModel,
    TrainConfig,
    encode_model,
    evaluate,
    init_toy_model,
    predict,
    synth_dataset,
    train,
)

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


def near_tie_model() -> ToyModel:
    """Two classes whose head columns are one random column and the same
    column times 1 - 2**-52: each logit pair differs by rounding alone, so a
    label follows the order of the head's sums."""
    m = init_toy_model(2, 48, 1, 4, 2)
    column = np.random.default_rng(0).standard_normal(m.head.shape[0])
    return ToyModel(filters=m.filters, head=np.outer(column, [1.0 - 2.0 ** -52, 1.0]), pool_grid=4)


def test_near_tie_label_alone_and_in_a_401_image_call():
    m = near_tie_model()
    images = synth_dataset(3, 401).images
    together = predict(m, images)
    assert 0 < np.count_nonzero(together) < len(images)  # the tie splits both ways
    alone = [predict(m, images[i:i + 1])[0] for i in range(len(images))]
    assert together.tolist() == alone


def test_predict(monkeypatch):
    m, images = near_tie_model(), synth_dataset(9, 97).images
    outs = outputs_at_each_width(monkeypatch, lambda: predict(m, images).tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_evaluate(monkeypatch):
    m, d = near_tie_model(), synth_dataset(9, 97)
    outs = outputs_at_each_width(monkeypatch, lambda: evaluate(m, d))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("probe", ["test_error", "first_layer"])
def test_heatmap(monkeypatch, probe):
    m, d = near_tie_model(), synth_dataset(9, 97)
    freqs = half_plane_frequencies(32, 32)[::100]
    outs = outputs_at_each_width(monkeypatch, lambda: sensitivity_heatmap(m, d, 3.0, probe, 11, freqs))
    assert outs[0] == outs[1] == outs[2]


def test_synth_dataset(monkeypatch):
    outs = outputs_at_each_width(monkeypatch, lambda: synth_dataset(5, 130).images.tobytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_corrupt_noise_kind(monkeypatch, kind):
    # 9x7x3 fields hold 189 values: each gaussian_noise image leaves a pending normal.
    images = np.random.default_rng(6).random((130, 9, 7, 3))
    param = DEFAULT_SEVERITY[kind][4]
    outs = outputs_at_each_width(monkeypatch, lambda: corrupt(images, kind, param, 6, tag="width").tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_gaussian_eval_suite(monkeypatch):
    d = LabeledDataset(np.random.default_rng(7).random((130, 9, 7, 3)), np.zeros(130, dtype=np.int64))
    outs = outputs_at_each_width(
        monkeypatch, lambda: b"".join(corrupted.images.tobytes() for _, corrupted in gaussian_eval_suite(d, 7)))
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
