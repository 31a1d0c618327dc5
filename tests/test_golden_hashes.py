"""SHA-256 digests of the package's deterministic outputs.

Each case builds one output (a trained checkpoint, a stack of pipeline
outputs, a dataset, the sigma suite, a CLI output tree) and compares its
digest with the value recorded from the scalar RNG engine, so an engine or
batching change that moves a single bit fails here. The cases cover more
images than one lockstep group (train on 300 examples, synth and suite on
150 and 140), odd batch sizes, odd field sizes (a pending normal between
draws), both pipeline orders and pad 0 and 4.
"""

import hashlib

import numpy as np
import pytest

from robustaug.augment import AugmentSpec, run_pipeline
from robustaug.cli import main as cli_main
from robustaug.corrupt import gaussian_eval_suite
from robustaug.images import channel_mean
from robustaug.model import TrainConfig, encode_model, init_toy_model, synth_dataset, train
from robustaug.rng import derive_stream


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str(a.shape).encode("ascii"))
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


# name -> (dataset size, epochs, batch size, augmentation fields)
TRAIN_CASES = {
    "none": (40, 2, 16, {}),
    "gaussian": (40, 2, 16, {"kind": "gaussian", "sigma_max": 1.0}),
    "cutout": (40, 2, 16, {"kind": "cutout", "patch_size": 8}),
    "patch_up_to": (300, 1, 16, {"kind": "patch_gaussian", "sigma_max": 2.5, "patch_size": 32,
                                 "sample_up_to": True}),
    "patch_pad4_flipcrop_first": (40, 2, 7, {"kind": "patch_gaussian", "sigma_max": 1.5, "patch_size": 8,
                                             "sample_up_to": True, "pad": 4,
                                             "order": "flipcrop_then_augment"}),
}

TRAIN_DIGESTS = {
    "none": "c48766bffdd0bfb22971a2b874d87027ee7f1b7bcf44118bdd781f81f6f5b5ce",
    "gaussian": "3d8a5ab9bc7046b06504266f9d27f3291b05257fe3fc741da94754a9c7dc1ea1",
    "cutout": "81180230773e915c6ba44aa2e9f4bc96e950631337d895e391937713454ae6db",
    "patch_up_to": "44df916180ead3b10080dc5f94e88fd8220cd6e4bcbbdced1451e5c0a3835ccb",
    "patch_pad4_flipcrop_first": "384bcb56609ab9bd89b56c4d866e5de85644dcf41eb77ed38836e4693faf5be8",
}


def train_digest(name: str) -> str:
    n, epochs, batch_size, fields = TRAIN_CASES[name]
    d = synth_dataset(3, n)
    if fields.get("kind") == "cutout":
        fields = dict(fields, fill=tuple(channel_mean(d)))
    cfg = TrainConfig(epochs=epochs, learning_rate=0.2, batch_size=batch_size, seed=3,
                      augment=AugmentSpec(**fields))
    m = train(init_toy_model(3, 6, 1, 2, 2), d, cfg)
    return hashlib.sha256(encode_model(m)).hexdigest()


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_train_checkpoint_digest(name):
    assert train_digest(name) == TRAIN_DIGESTS[name]


PIPELINE_DIGESTS = {
    ("augment_then_flipcrop", 0): "8b52d71c8d793690b8068cdd2f50ed651183a9b3315144872917b9a696a8375d",
    ("augment_then_flipcrop", 4): "7031c568f2f57fbae61537ba9a11e2135e1bca031e5487a28eba0448c3ba79d7",
    ("flipcrop_then_augment", 0): "84412470e4908b85ab7d258dc6edfdc3794b83d265dea092761f0da04b9a59eb",
    ("flipcrop_then_augment", 4): "86237872a401911fc1263186e0c85d90c4c2252942a8d2b6df68f0c46c237d6d",
}


def pipeline_digest(order: str, pad: int) -> str:
    """Every kind on 1-channel 32x32 images and on 3-channel 9x7 images,
    whose 189-value field leaves a pending normal."""
    gray = synth_dataset(5, 6).images
    color = np.random.default_rng(6).random((5, 9, 7, 3))
    outputs = []
    for kind in ("none", "gaussian", "cutout", "patch_gaussian"):
        for images in (gray, color):
            fill = tuple(images.mean(axis=(0, 1, 2))) if kind == "cutout" else ()
            spec = AugmentSpec(kind=kind, sigma_max=1.2, patch_size=5, sample_up_to=kind == "patch_gaussian",
                               fill=fill, order=order, pad=pad)
            outputs.append(np.stack([
                run_pipeline(img, spec, derive_stream(8, i, f"golden/{kind}")) for i, img in enumerate(images)
            ]))
    return _sha(*outputs)


@pytest.mark.parametrize("order,pad", sorted(PIPELINE_DIGESTS))
def test_pipeline_digest(order, pad):
    assert pipeline_digest(order, pad) == PIPELINE_DIGESTS[order, pad]


SYNTH_DIGEST = "dc4dad84659aedb0044d766c2c387098b7073b27ce3afc9b3f497d18c98d8ebf"
SUITE_DIGEST = "8d41d5c6cde0b6a6fda77766cb0d4eb08f51c94fbb8341d327cc6904b6fb9acf"
CLI_AUGMENT_DIGEST = "2165efaf24354806f138a932dab6baa7be429ebdaef407cbee72f475d9aa1f83"


def synth_digest() -> str:
    d = synth_dataset(11, 150)
    return _sha(d.images, d.labels)


def suite_digest() -> str:
    suite = gaussian_eval_suite(synth_dataset(12, 140), 4242)
    return _sha(np.array([sigma for sigma, _ in suite]), *[s.images for _, s in suite],
                *[s.labels for _, s in suite])


def cli_augment_digest(tmp_path) -> str:
    data, out = tmp_path / "data", tmp_path / "aug"
    assert cli_main(["synth", "--output", str(data), "--seed", "13", "--count", "20"]) == 0
    assert cli_main(["augment", "--input", str(data), "--output", str(out), "--seed", "14",
                     "--kind", "patch_gaussian", "--sigma-max", "2.0", "--patch-size", "12",
                     "--sample-up-to", "--pad", "2", "--order", "flipcrop_then_augment"]) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data_bytes = path.read_bytes()
        h.update(f"{path.relative_to(out).as_posix()}\0{len(data_bytes)}\0".encode("utf-8"))
        h.update(data_bytes)
    return h.hexdigest()


def test_synth_dataset_digest():
    assert synth_digest() == SYNTH_DIGEST


def test_gaussian_eval_suite_digest():
    assert suite_digest() == SUITE_DIGEST


def test_cli_augment_tree_digest(tmp_path):
    assert cli_augment_digest(tmp_path) == CLI_AUGMENT_DIGEST
