"""SHA-256 digests of the package's deterministic outputs.

Each case builds one output (a trained checkpoint, a stack of pipeline
outputs, a dataset, the sigma suite, a CLI output tree) and compares its
digest with the value recorded from the scalar RNG engine, so an engine or
batching change that moves a single bit fails here. The cases cover odd
batch sizes, odd field sizes (a pending normal between draws), both
pipeline orders and pad 0 and 4. Most were recorded with 96-wide lockstep
groups, which the 101- to 400-image cases crossed; at the current width
tests/test_group_width.py checks group boundaries instead. The
feature-layer cases (heatmaps, predict labels, the 3-channel flip-only
checkpoint) cover more images than two feature chunks and batches that do
not divide the dataset. The uneven-band cases pool on a 3x3 grid whose
row bands differ in height (10/11/11 rows on 32x32, 4/4/5 on 13x11). The
patch-edge cases pin patch Gaussian where few or all of a field's values
are inside the patch. The 3-channel patch checkpoint and the CLI
gaussian_noise tree cover uneven batches, crop rejection and a pending
normal on the batch paths. The CLI corrupt trees (every other kind at
severities 1 and 5) and the highpass tree run on 101 images of 1 and 3
channels each.

The digests were recorded with numpy's bundled OpenBLAS, whose DYNAMIC_ARCH
build picks its kernels for the CPU at run time, so a failure message names
the BLAS and its live configuration: a digest that differs only on another
machine or BLAS points at the environment before it points at the code.
"""

import ctypes
import hashlib

import numpy as np
import pytest

from robustaug.augment import AugmentSpec, run_pipeline, run_pipeline_batch
from robustaug.cli import main as cli_main
from robustaug.cli import write_dataset
from robustaug.corrupt import gaussian_eval_suite
from robustaug.fourier import format_heatmap_csv, half_plane_frequencies, sensitivity_heatmap
from robustaug.images import LabeledDataset, channel_mean
from robustaug.model import TrainConfig, encode_model, first_layer, init_toy_model, predict, synth_dataset, train
from robustaug.parallel import openblas_functions


def blas_environment() -> str:
    """numpy's BLAS build, then the run-time configuration (the kernel core
    chosen) and thread count of each OpenBLAS loaded into this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        notes = [f"numpy {np.__version__} built with {blas['name']} {blas['version']}"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no dict
        notes = [f"numpy {np.__version__}"]
    for config, threads in zip(openblas_functions("get_config"), openblas_functions("get_num_threads")):
        config.argtypes, config.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        notes.append(f"{config().decode('ascii', 'replace')}, {threads()} threads")
    return "; ".join(notes)


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
    assert train_digest(name) == TRAIN_DIGESTS[name], blas_environment()


CRITERION_8_PATCH_DIGEST = "48c5d1b9a90f5064cb0749a0339e6c75bc78d3330472751faee340812b185732"


def criterion_8_patch_model():
    """Two epochs of the criterion-8 patch arm on its 400-image dataset and
    48-filter model, in batches of 16, recorded with 96-wide lockstep groups
    (four group boundaries per epoch)."""
    spec = AugmentSpec(kind="patch_gaussian", patch_size=32, sigma_max=2.5, sample_up_to=True)
    cfg = TrainConfig(epochs=2, learning_rate=0.2, batch_size=16, seed=1, augment=spec)
    return train(init_toy_model(1, 48, 1, 4, 2), synth_dataset(1, 400), cfg)


def test_criterion_8_patch_checkpoint_digest():
    digest = hashlib.sha256(encode_model(criterion_8_patch_model())).hexdigest()
    assert digest == CRITERION_8_PATCH_DIGEST, blas_environment()


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
                run_pipeline(img, spec, 8, i, f"golden/{kind}") for i, img in enumerate(images)
            ]))
    return _sha(*outputs)


@pytest.mark.parametrize("order,pad", sorted(PIPELINE_DIGESTS))
def test_pipeline_digest(order, pad):
    assert pipeline_digest(order, pad) == PIPELINE_DIGESTS[order, pad], blas_environment()


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


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data_bytes = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data_bytes)}\0".encode("utf-8"))
        h.update(data_bytes)
    return h.hexdigest()


def cli_augment_digest(tmp_path) -> str:
    data, out = tmp_path / "data", tmp_path / "aug"
    assert cli_main(["synth", "--output", str(data), "--seed", "13", "--count", "20"]) == 0
    assert cli_main(["augment", "--input", str(data), "--output", str(out), "--seed", "14",
                     "--kind", "patch_gaussian", "--sigma-max", "2.0", "--patch-size", "12",
                     "--sample-up-to", "--pad", "2", "--order", "flipcrop_then_augment"]) == 0
    return tree_digest(out)


def test_synth_dataset_digest():
    assert synth_digest() == SYNTH_DIGEST, blas_environment()


def test_gaussian_eval_suite_digest():
    assert suite_digest() == SUITE_DIGEST, blas_environment()


def test_cli_augment_tree_digest(tmp_path):
    assert cli_augment_digest(tmp_path) == CLI_AUGMENT_DIGEST, blas_environment()


CLI_GAUSSIAN_NOISE_DIGEST = "9f5f4dee831f74433d5e3c0e94fae059f5a126875ba18240d6821873ee8f165b"


def cli_gaussian_noise_digest(tmp_path) -> str:
    """corrupt --kind gaussian_noise on 101 random 9x7x3 images with 2
    workers: a 189-value field that leaves a pending normal."""
    data, out = tmp_path / "data", tmp_path / "noisy"
    write_dataset(LabeledDataset(np.random.default_rng(22).random((101, 9, 7, 3)), np.arange(101) % 2), data)
    assert cli_main(["corrupt", "--input", str(data), "--output", str(out), "--seed", "23",
                     "--kind", "gaussian_noise", "--severity", "5", "--workers", "2"]) == 0
    return tree_digest(out)


def test_cli_gaussian_noise_tree_digest(tmp_path):
    assert cli_gaussian_noise_digest(tmp_path) == CLI_GAUSSIAN_NOISE_DIGEST, blas_environment()


def color_dataset(seed: int, n: int) -> LabeledDataset:
    """n random 3-channel 12x12 images whose label i % 3 names a brighter channel."""
    labels = np.arange(n) % 3
    images = 0.7 * np.random.default_rng(seed).random((n, 12, 12, 3))
    images += 0.3 * np.eye(3)[labels][:, None, None, :]
    return LabeledDataset(images, labels)


FLIP_ONLY_COLOR_DIGEST = "678072f1b509ca2070dc610e9337db233df03e3b64b1bd6572c86f916b3eeda4"
PREDICT_COLOR_DIGEST = "57e73c9a28ade3903d3d0830812cbdc2497e0eae99361fa52deb5cf953752f7a"


def flip_only_color_model():
    """The none arm (flips only) on 110 3-channel images in batches of 7, so
    the last batch of each epoch is uneven."""
    cfg = TrainConfig(epochs=3, learning_rate=0.5, batch_size=7, seed=15, augment=AugmentSpec())
    return train(init_toy_model(15, 5, 3, 3, 3), color_dataset(15, 110), cfg)


PATCH_COLOR_DIGEST = "a7b85b7e0b68652d3eab5910ab79a7c3a9c6917a41aa2c981f0e9cb8c5c05c2f"


def patch_color_model():
    """The patch arm with sizes sampled up to 6 on 130 3-channel images in
    batches of 7 with pad 4: uneven batches, and crop offsets over span 9,
    which rejects almost half its draws."""
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.5, patch_size=6, sample_up_to=True, pad=4)
    cfg = TrainConfig(epochs=2, learning_rate=0.5, batch_size=7, seed=20, augment=spec)
    return train(init_toy_model(20, 5, 3, 3, 3), color_dataset(20, 130), cfg)


def test_patch_color_checkpoint_digest():
    assert hashlib.sha256(encode_model(patch_color_model())).hexdigest() == PATCH_COLOR_DIGEST, blas_environment()


def test_flip_only_color_checkpoint_digest():
    assert hashlib.sha256(encode_model(flip_only_color_model())).hexdigest() == FLIP_ONLY_COLOR_DIGEST, blas_environment()


def test_predict_color_labels_digest():
    rng = np.random.default_rng(16)
    labels = predict(flip_only_color_model(), rng.random((37, 1, 1, 3)) * rng.random((37, 12, 12, 3)))
    assert len(set(labels.tolist())) == 3
    assert _sha(labels) == PREDICT_COLOR_DIGEST, blas_environment()


HEATMAP_DIGESTS = {
    "first_layer": "a87689a3affb6b7d3829c2609dee0f78228d4a3549ac8ce33210bd1a32bef8af",
    "test_error": "355487a221c025c20e6a815596dc1ee2641484058162c20ff50793beb62ed90a",
}


def heatmap_csv(probe: str) -> str:
    """Heatmap of a partly trained 1-channel model (held-out error 0.3, so
    the test errors differ between frequencies) on 40 synth images, more
    than two feature chunks, over the 15 half-plane frequencies within
    magnitude 3."""
    d = synth_dataset(17, 40)
    cfg = TrainConfig(epochs=40, learning_rate=0.2, batch_size=16, seed=17)
    m = train(init_toy_model(17, 8, 1, 4, 2), synth_dataset(18, 64), cfg)
    freqs = [(i, j) for i, j in half_plane_frequencies(32, 32) if np.hypot(i, j) <= 3]
    return format_heatmap_csv(sensitivity_heatmap(m, d, 4.0, probe, seed=19, freqs=freqs))


@pytest.mark.parametrize("probe", sorted(HEATMAP_DIGESTS))
def test_heatmap_csv_digest(probe):
    assert hashlib.sha256(heatmap_csv(probe).encode("ascii")).hexdigest() == HEATMAP_DIGESTS[probe], blas_environment()


def cli_tree_digest(tmp_path, *argv) -> str:
    """Run one CLI command on 101 random 9x7 images with 1 and 3 channels
    and digest both output trees."""
    out = tmp_path / "out"
    for c in (1, 3):
        data = tmp_path / f"data{c}"
        images = np.random.default_rng(30 + c).random((101, 9, 7, c))
        write_dataset(LabeledDataset(images, np.arange(101) % 2), data)
        assert cli_main([*argv, "--input", str(data), "--output", str(out / f"c{c}"), "--workers", "2"]) == 0
    return tree_digest(out)


CLI_CORRUPT_DIGESTS = {
    ("shot_noise", 1): "985c135157f579eed225f71801e586a7d6f598aa36e4fb6bb93fdbe882042f5b",
    ("shot_noise", 5): "99f5764cdd0f5a7153e9b9d33d12c4a025898fba37049865f920ff25cf666fa3",
    ("impulse_noise", 1): "06c6c36629e09f9f8cc0e50213b64bff486add88ce62876ca29046bbf9b8b3aa",
    ("impulse_noise", 5): "6bfcaddeff4d850fab991c8c34af30bf818c48c3da1a4046d22c20d91a7b80ef",
    ("brightness", 1): "8a57b9d47ab0792f60bb56d5aa31ae9cf22bf938c658afca54e085c6b3792ac4",
    ("brightness", 5): "5096d280f62cacb56d25b917222b02deb7d9ef6bac2316f9681ba701eea88d33",
    ("contrast", 1): "fa7c3a43851f9c970bc0f4a04bbc639b1b0ffcb1fe3e82acc8fec57796bf2464",
    ("contrast", 5): "1ac086b243677e64b5708c1a51929a249ba08ff7e0b839f8eda00f0354c7906e",
    ("defocus_blur", 1): "78a43dd6335cbd5776a9f84eca7f9d79296a316dd5ddfe3cc35c438033f51e57",
    ("defocus_blur", 5): "7e1fc37187f9529fc013ce480205d84aa4b233adc725ed934aebc849ce5453ab",
    ("pixelate", 1): "cd90cb1c1e25b0657b030dbcb7593f91854d6b450d7483f4737be833b47aa2de",
    ("pixelate", 5): "0df7f7d5e1b8648b4f04369a24deb62fa18e487d6d443f325ee3c7553cbc6670",
}


@pytest.mark.parametrize("kind,severity", sorted(CLI_CORRUPT_DIGESTS))
def test_cli_corrupt_tree_digest(tmp_path, kind, severity):
    digest = cli_tree_digest(tmp_path, "corrupt", "--seed", "24", "--kind", kind, "--severity", str(severity))
    assert digest == CLI_CORRUPT_DIGESTS[kind, severity], blas_environment()


CLI_HIGHPASS_DIGEST = "a2dd315b9dd7e6883fd4918889f163358afa6b769b198f07c5f67eb0bc828679"


def test_cli_highpass_tree_digest(tmp_path):
    assert cli_tree_digest(tmp_path, "highpass", "--radius", "2.5") == CLI_HIGHPASS_DIGEST, blas_environment()


UNEVEN_BAND_DIGESTS = {
    "synth_32x32_flip_only": "21f44d58113a4975122d0f6018facf74ce6d5422b8db36221f5795b72add1c1d",
    "color_13x11_patch": "c75939ee03812c1c2b5b3aff51f557f7d42785ed0344b6487ce0a85dd8626597",
    "color_13x11_first_layer": "ef3e35bec3a574032776e3ec4575935e5e1cd19dba277d5c930d627dc788e051",
}


def uneven_band_digest(name: str) -> str:
    """A pool grid of 3 on images whose height it does not divide: the none
    arm on 40 synth 32x32 images (a feature cache over several chunks), the
    patch arm on 37 random 13x11x3 images in uneven batches of 7, and the
    first_layer activations of 37 random 13x11x3 images."""
    if name == "synth_32x32_flip_only":
        cfg = TrainConfig(epochs=3, learning_rate=0.5, batch_size=16, seed=25, augment=AugmentSpec())
        return hashlib.sha256(encode_model(train(init_toy_model(25, 6, 1, 3, 2), synth_dataset(25, 40), cfg))).hexdigest()
    images = np.random.default_rng(26).random((37, 13, 11, 3))
    if name == "color_13x11_patch":
        spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.5, patch_size=5, sample_up_to=True)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, batch_size=7, seed=26, augment=spec)
        m = train(init_toy_model(26, 5, 3, 3, 3), LabeledDataset(images, np.arange(37) % 3), cfg)
        return hashlib.sha256(encode_model(m)).hexdigest()
    return _sha(first_layer(init_toy_model(27, 7, 3, 3, 2), images))


@pytest.mark.parametrize("name", sorted(UNEVEN_BAND_DIGESTS))
def test_uneven_band_digest(name):
    assert uneven_band_digest(name) == UNEVEN_BAND_DIGESTS[name], blas_environment()


PATCH_EDGE_DIGESTS = {
    "whole_image_patch": "a9bbd8b0d0d9bfd9adab7f488650d367faac8b2141631657242758db2808a88a",
    "one_pixel_patch": "b2ca999c25d6b017f4919def770740ffb8465706869df197f2c59a46449ae69c",
    "color_9x7_pad4_flipcrop_first": "3768e384f2ef0f0f576469cdb5ecc7b155f0949e3b75c0cf1130f947d05167b4",
}


def patch_edge_digest(name: str) -> str:
    """Patch Gaussian batches of 37 1-channel 32x32 synth images and 37
    3-channel 9x7 images (a 189-value field, whose pending normal is
    dropped): a fixed patch twice the image side, which covers every pixel
    from any center, so the output is whole-image noise from the full field;
    one-pixel patches, fixed and sampled up to 1 (a draw-free size); and
    sizes sampled up to 6 at pad 4, cropped before the noise."""
    gray = synth_dataset(30, 37).images
    color = np.random.default_rng(31).random((37, 9, 7, 3))
    if name == "whole_image_patch":
        specs = [(gray, AugmentSpec(kind="patch_gaussian", sigma_max=1.2, patch_size=64)),
                 (color, AugmentSpec(kind="patch_gaussian", sigma_max=1.2, patch_size=18))]
    elif name == "one_pixel_patch":
        specs = [(images, AugmentSpec(kind="patch_gaussian", sigma_max=2.0, patch_size=1, sample_up_to=up_to))
                 for images in (gray, color) for up_to in (False, True)]
    else:
        specs = [(color, AugmentSpec(kind="patch_gaussian", sigma_max=1.5, patch_size=6, sample_up_to=True,
                                     pad=4, order="flipcrop_then_augment"))]
    return _sha(*[run_pipeline_batch(images, spec, 32, range(len(images)), f"edge/{name}") for images, spec in specs])


@pytest.mark.parametrize("name", sorted(PATCH_EDGE_DIGESTS))
def test_patch_edge_digest(name):
    assert patch_edge_digest(name) == PATCH_EDGE_DIGESTS[name], blas_environment()
