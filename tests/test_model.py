"""Toy classifier: conv oracle, gradient check, training, synth data."""

from dataclasses import replace

import numpy as np
import pytest

from robustaug import model as model_module, rng as rng_module
from robustaug.augment import AugmentSpec
from robustaug.fourier import centered_distances, dft2
from robustaug.images import LabeledDataset
from robustaug.model import (
    HIGH_FREQS,
    LOW_FREQS,
    TOYM_MAGIC,
    ToyModel,
    TrainConfig,
    _features,
    cross_entropy,
    decode_model,
    encode_model,
    evaluate,
    first_layer,
    head_gradient,
    init_toy_model,
    predict,
    synth_dataset,
    train,
)
from robustaug.parallel import indexed_map

import model_reference as reference


def conv_relu_oracle(images, filters):
    """Nested-loop 3x3 correlation with clamped indices, then ReLU."""
    n, h, w, c = images.shape
    k = len(filters)
    out = np.zeros((n, h, w, k))
    for ni in range(n):
        for y in range(h):
            for x in range(w):
                for kk in range(k):
                    acc = 0.0
                    for dy in range(3):
                        for dx in range(3):
                            yy = min(max(y + dy - 1, 0), h - 1)
                            xx = min(max(x + dx - 1, 0), w - 1)
                            for cc in range(c):
                                acc += images[ni, yy, xx, cc] * filters[kk, dy, dx, cc]
                    out[ni, y, x, kk] = max(acc, 0.0)
    return out


def test_init_deterministic():
    a = init_toy_model(3, k=4, c=3, g=2, classes=10)
    b = init_toy_model(3, k=4, c=3, g=2, classes=10)
    assert np.array_equal(a.filters, b.filters)
    assert np.array_equal(a.head, b.head) and not a.head.any()
    c = init_toy_model(4, k=4, c=3, g=2, classes=10)
    assert not np.array_equal(a.filters, c.filters)


def test_init_filter_variance():
    m = init_toy_model(7, k=400, c=3, g=1, classes=2)
    assert m.filters.size >= 10_000
    assert abs(np.var(m.filters) * 27.0 - 1.0) < 0.2


def test_init_validation():
    with pytest.raises(ValueError, match="bad dimensions"):
        init_toy_model(0, k=0, c=1, g=2, classes=2)
    dims = {"k": 2, "c": 1, "g": 2, "classes": 2}
    for field in dims:
        for bad in (2.5, 3.0, "2"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                init_toy_model(0, **dict(dims, **{field: bad}))
    with pytest.raises(ValueError, match="seed must be an integer"):
        init_toy_model(1.5, **dims)
    m = init_toy_model(np.int64(0), k=np.int64(2), c=np.int32(1), g=np.uint8(2), classes=np.int16(2))
    assert m.filters.shape == (2, 3, 3, 1) and m.classes == 2
    assert m.filters.tobytes() == init_toy_model(0, **dims).filters.tobytes()
    for k, c, g in ((0, 1, 2), (1, 0, 2), (1, 1, 0)):  # each head is shaped to match
        with pytest.raises(ValueError, match="bad dimensions"):
            ToyModel(np.zeros((k, 3, 3, c)), np.zeros((k * g * g + 1, 2)), g)


def test_zero_head_predicts_class_zero():
    m = init_toy_model(5, k=3, c=1, g=2, classes=4)
    images = np.random.default_rng(0).random((6, 8, 8, 1))
    assert np.array_equal(predict(m, images), np.zeros(6, dtype=np.int64))


def test_argmax_tie_breaks_low():
    filters = np.zeros((1, 3, 3, 1))
    filters[0, 1, 1, 0] = 1.0
    head = np.zeros((5, 3))
    head[-1] = [1.0, 1.0, 0.0]  # bias row ties classes 0 and 1
    m = ToyModel(filters=filters, head=head, pool_grid=2)
    assert predict(m, np.full((2, 4, 4, 1), 0.5)).tolist() == [0, 0]


def test_forward_zero_image_zero_head():
    m = init_toy_model(1, k=3, c=2, g=2, classes=4)
    images = np.zeros((1, 8, 8, 2))
    logits = _features(m, images) @ m.head
    acts = first_layer(m, images)
    assert not logits.any() and logits.shape == (1, 4)
    assert not acts.any() and acts.shape == (1, 8, 8, 3)
    assert predict(m, images).tolist() == [0]


def test_identity_kernel_gives_relu_of_image():
    filters = np.zeros((1, 3, 3, 1))
    filters[0, 1, 1, 0] = 1.0
    m = ToyModel(filters=filters, head=np.zeros((5, 2)), pool_grid=2)
    img = np.random.default_rng(1).random((8, 8, 1))
    assert np.array_equal(first_layer(m, img[None])[0], img)


def test_conv_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    m = init_toy_model(9, k=3, c=2, g=2, classes=3)
    images = rng.random((2, 8, 8, 2))
    got = first_layer(m, images)
    want = conv_relu_oracle(images, m.filters)
    assert np.max(np.abs(got - want)) < 1e-9


def test_feature_order_and_bias():
    filters = np.zeros((1, 3, 3, 1))
    filters[0, 1, 1, 0] = 1.0
    m = ToyModel(filters=filters, head=np.eye(5), pool_grid=2)
    img = np.zeros((4, 4, 1))
    img[:2, :2] = 0.1
    img[:2, 2:] = 0.2
    img[2:, :2] = 0.3
    img[2:, 2:] = 0.4
    logits = (_features(m, img[None]) @ m.head)[0]
    # pooled quadrants in (row band, col band) order, then the bias
    assert np.max(np.abs(logits - [0.1, 0.2, 0.3, 0.4, 1.0])) < 1e-12


@pytest.mark.parametrize("h,w,g", [(32, 32, 4), (13, 11, 3)])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("n", [1, 16, 17, 37])
def test_chunked_features_match_one_image_at_a_time(n, channels, h, w, g):
    m = init_toy_model(6, k=5, c=channels, g=g, classes=2)
    images = np.random.default_rng(n * channels).random((n, h, w, channels))
    want = np.concatenate([_features(m, img[None]) for img in images])
    assert np.array_equal(_features(m, images), want)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("h,w,channels", [(13, 11, 3), (32, 32, 1)])
def test_one_filter_features_do_not_depend_on_the_batch(h, w, channels, g):
    # numpy's one-column matmul is a GEMV whose sums depend on the number of rows
    m = init_toy_model(g * h + w, k=1, c=channels, g=g, classes=2)
    images = np.random.default_rng(g * h).random((17, h, w, channels))
    for forward in (_features, first_layer):
        alone = np.concatenate([forward(m, img[None]) for img in images])
        assert np.array_equal(forward(m, images), alone)


# (h, w) per grid: one size that the grid divides and one or two it does not
# divide in height, width or both; 32x32 at g = 3 has bands of 10, 11 and 11
# rows.  The models have 5 filters: with one, the reference's matmul takes
# numpy's GEMV path, whose results here depend on the number of rows.
REFERENCE_SIZES = {
    1: [(8, 8), (5, 7)],
    2: [(8, 8), (7, 9)],
    3: [(12, 12), (32, 32), (13, 11)],
    4: [(32, 32), (10, 12), (13, 13)],
    5: [(20, 15), (17, 23)],
}


@pytest.mark.parametrize("g,h,w", [(g, h, w) for g, sizes in REFERENCE_SIZES.items() for h, w in sizes])
@pytest.mark.parametrize("channels", [1, 3])
def test_band_kernel_bit_equal_to_reference(g, h, w, channels):
    m = init_toy_model(g * h + w, k=5, c=channels, g=g, classes=2)
    rng = np.random.default_rng(g * 1000 + h * w + channels)
    for n in (1, 15, 16, 17, 37):
        for images in (rng.random((n, h, w, channels)), rng.normal(size=(n, h, w, channels))):
            assert np.array_equal(_features(m, images), reference.features(m.filters, g, images))
            assert np.array_equal(first_layer(m, images), reference.conv_relu(m.filters, images))


def test_forward_shape_checks():
    m = init_toy_model(0, k=2, c=1, g=2, classes=2)
    with pytest.raises(ValueError, match="shape mismatch"):
        first_layer(m, np.zeros((1, 8, 8, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        predict(m, np.zeros((8, 8, 1)))
    wide = ToyModel(m.filters, np.zeros((2 * 16 * 16 + 1, 2)), pool_grid=16)
    for forward in (predict, first_layer):
        with pytest.raises(ValueError, match="pool grid"):
            forward(wide, np.zeros((1, 8, 8, 1)))


def test_model_validation():
    good = init_toy_model(0, k=2, c=1, g=2, classes=2)
    with pytest.raises(ValueError, match="filters must be"):
        ToyModel(filters=np.zeros((2, 2, 2, 1)), head=good.head, pool_grid=2)
    with pytest.raises(ValueError, match="head must be"):
        ToyModel(filters=good.filters, head=np.zeros((4, 2)), pool_grid=2)
    bad = good.head.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ToyModel(filters=good.filters, head=bad, pool_grid=2)


def test_filters_are_immutable():
    m = init_toy_model(0, k=2, c=1, g=2, classes=2)
    with pytest.raises(ValueError):
        m.filters[0, 0, 0, 0] = 1.0


def test_gradient_matches_finite_differences():
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        base = init_toy_model(seed, k=2, c=1, g=2, classes=3)
        m = ToyModel(base.filters, rng.normal(scale=0.3, size=base.head.shape), 2)
        images = rng.random((6, 8, 8, 1))
        labels = rng.integers(0, 3, size=6)
        analytic = head_gradient(m, images, labels)
        numeric = np.zeros_like(analytic)
        eps = 1e-6
        for r in range(numeric.shape[0]):
            for col in range(numeric.shape[1]):
                up = m.head.copy()
                up[r, col] += eps
                dn = m.head.copy()
                dn[r, col] -= eps
                numeric[r, col] = (
                    cross_entropy(ToyModel(m.filters, up, 2), images, labels)
                    - cross_entropy(ToyModel(m.filters, dn, 2), images, labels)
                ) / (2 * eps)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


def test_label_validation():
    m = init_toy_model(0, k=2, c=1, g=2, classes=2)
    images = np.zeros((2, 8, 8, 1))
    with pytest.raises(ValueError, match="label out of range"):
        cross_entropy(m, images, [0, 5])
    with pytest.raises(ValueError, match="label out of range"):
        head_gradient(m, images, [-1, 0])


def separable_dataset(n=40, seed=5):
    """Brightness-separable two-class set; any mean-like feature splits it."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    base = np.where(labels == 1, 0.85, 0.15)[:, None, None, None]
    images = np.clip(base + rng.normal(0, 0.02, (n, 8, 8, 1)), 0, 1)
    return LabeledDataset(images, labels)


def test_train_zero_rate_leaves_head():
    d = separable_dataset(8)
    base = init_toy_model(2, k=2, c=1, g=2, classes=2)
    m = ToyModel(base.filters, np.random.default_rng(3).normal(size=base.head.shape), 2)
    out = train(m, d, TrainConfig(epochs=2, learning_rate=0.0, batch_size=4, seed=1))
    assert np.array_equal(out.head, m.head)
    assert np.array_equal(out.filters, m.filters)


def test_train_converges_on_separable_set():
    d = separable_dataset(40)
    m = init_toy_model(2, k=2, c=1, g=2, classes=2)
    cfg = TrainConfig(epochs=50, learning_rate=0.5, batch_size=8, seed=1)
    trained = train(m, d, cfg)
    assert evaluate(trained, d) >= 0.95


def test_train_bit_reproducible():
    d = separable_dataset(16)
    m = init_toy_model(4, k=2, c=1, g=2, classes=2)
    cfg = TrainConfig(
        epochs=3, learning_rate=0.2, batch_size=4, seed=9,
        augment=AugmentSpec(kind="gaussian", sigma_max=0.5, pad=2),
    )
    a = train(m, d, cfg)
    b = train(m, d, cfg)
    assert np.array_equal(a.head, b.head)


@pytest.mark.parametrize("width", [16, rng_module.LOCKSTEP_STREAMS])
def test_flip_only_feature_cache_matches_group_features(monkeypatch, width):
    """Zero-sigma Gaussian noise leaves every pixel as it is but is not
    flip_only, so its head comes from each lockstep group's features of the
    same images that the none arm reads from its feature cache. At width 16
    the 40 images make three groups of up to 14, at the package's width one."""
    monkeypatch.setattr(rng_module, "LOCKSTEP_STREAMS", width)
    d = LabeledDataset(np.random.default_rng(5).random((40, 9, 9, 3)), np.arange(40) % 2)
    m = init_toy_model(4, k=3, c=3, g=2, classes=2)
    heads = []
    for spec in (AugmentSpec(), AugmentSpec(kind="gaussian", sigma_max=0.0)):
        cfg = TrainConfig(epochs=3, learning_rate=0.5, batch_size=7, seed=2, augment=spec)
        heads.append(train(m, d, cfg).head)
    assert np.array_equal(heads[0], heads[1])


def test_train_computes_features_once_per_lockstep_group(monkeypatch):
    """A noise arm calls _features once per epoch and lockstep group, and
    its batches step on rows of that array; the flip-only arm calls it only
    for the two variants of its cache."""
    monkeypatch.setattr(rng_module, "LOCKSTEP_STREAMS", 16)
    calls = []

    def counted(m, images, out=None):
        calls.append(len(images))
        return _features(m, images, out)

    monkeypatch.setattr(model_module, "_features", counted)
    d = LabeledDataset(np.random.default_rng(8).random((130, 8, 8, 1)), np.arange(130) % 2)
    m = init_toy_model(3, k=2, c=1, g=2, classes=2)
    groups = [len(group) for group in rng_module.lockstep_groups(130, 7)]
    assert groups == [14] * 9 + [4]
    patch = AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=4)
    train(m, d, TrainConfig(epochs=3, batch_size=7, seed=1, augment=patch))
    assert calls == groups * 3
    calls.clear()
    train(m, d, TrainConfig(epochs=3, batch_size=7, seed=1))
    assert calls == [130, 130]


def test_train_augmentation_changes_outcome():
    d = separable_dataset(16)
    m = init_toy_model(4, k=2, c=1, g=2, classes=2)
    plain = TrainConfig(epochs=2, learning_rate=0.2, batch_size=4, seed=9)
    noisy = TrainConfig(
        epochs=2, learning_rate=0.2, batch_size=4, seed=9,
        augment=AugmentSpec(kind="gaussian", sigma_max=1.0),
    )
    assert not np.array_equal(train(m, d, plain).head, train(m, d, noisy).head)


def test_train_validation():
    m = init_toy_model(0, k=2, c=1, g=2, classes=2)
    cfg = TrainConfig(epochs=1, learning_rate=0.1, batch_size=4, seed=0)
    empty = LabeledDataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        train(m, empty, cfg)
    bad = LabeledDataset(np.zeros((2, 8, 8, 1)), np.array([0, 7]))
    with pytest.raises(ValueError, match="label out of range"):
        train(m, bad, cfg)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(batch_size=0)
    for field, name in (("epochs", "epochs"), ("batch_size", "batch size"), ("seed", "seed")):
        for bad in (2.5, 3.0, "2"):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{field: bad})
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(3), seed=np.uint64(2**64 - 1))
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 3, 2**64 - 1)
    data = LabeledDataset(np.random.default_rng(1).random((4, 8, 8, 1)), np.array([0, 1, 0, 1]))
    assert train(m, data, cfg).head.tobytes() == train(m, data, replace(cfg, seed=-1)).head.tobytes()


def test_predict_thread_safe_reads():
    rng = np.random.default_rng(6)
    m = init_toy_model(6, k=3, c=1, g=2, classes=3)
    m = ToyModel(filters=m.filters, head=rng.normal(size=m.head.shape), pool_grid=2)  # a zero head predicts all 0
    images = rng.random((8, 8, 8, 1))
    sequential = predict(m, images)
    assert len(set(sequential.tolist())) > 1
    chunks = list(indexed_map(lambda i: predict(m, images[i * 2:i * 2 + 2]), 4, workers=4))
    assert np.array_equal(np.concatenate(chunks), sequential)


def test_evaluate_arithmetic():
    m = init_toy_model(0, k=2, c=1, g=2, classes=2)  # zero head: all class 0
    d = separable_dataset(10)
    assert evaluate(m, d) == 0.5


def test_evaluate_rejects_empty_dataset():
    m = init_toy_model(0, k=2, c=1, g=2, classes=2)
    empty = LabeledDataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        evaluate(m, empty)


def test_synth_balanced_and_in_range():
    d = synth_dataset(11, 21)
    counts = np.bincount(d.labels, minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) <= 1
    assert d.images.shape == (21, 32, 32, 1)
    assert d.images.min() >= 0.0 and d.images.max() <= 1.0


def test_synth_deterministic():
    a = synth_dataset(11, 6)
    b = synth_dataset(11, 6)
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, synth_dataset(12, 6).images)


def test_synth_kind_and_size_validation():
    with pytest.raises(ValueError, match="at least 2"):
        synth_dataset(0, 1)


def test_synth_frequency_tables_respect_band_split():
    assert all(np.hypot(*f) <= 2.0 for f in LOW_FREQS)
    assert all(8.0 <= np.hypot(*f) <= 10.0 for f in HIGH_FREQS)


def test_synth_spectral_energy_split():
    # Class-1 signal energy lives at radius >= 6, class-0 energy below it.
    d = synth_dataset(13, 20)
    dist = centered_distances(32, 32)
    high_band = dist >= 6.0
    dc = dist == 0.0
    for img, label in zip(d.images, d.labels):
        power = np.abs(dft2(img[:, :, 0])) ** 2
        total = power[~dc].sum()
        high = power[high_band].sum()
        if label == 1:
            assert high / total >= 0.9
        else:
            assert high / total <= 0.1


def test_checkpoint_round_trip():
    base = init_toy_model(8, k=3, c=2, g=2, classes=4)
    m = ToyModel(base.filters, np.random.default_rng(8).normal(size=base.head.shape), 2)
    data = encode_model(m)
    assert data[:4] == TOYM_MAGIC
    back = decode_model(data)
    assert np.array_equal(back.filters, m.filters)
    assert np.array_equal(back.head, m.head)
    assert back.pool_grid == m.pool_grid
    images = np.random.default_rng(9).random((4, 8, 8, 2))
    assert np.array_equal(predict(back, images), predict(m, images))
    assert encode_model(back) == data


def test_checkpoint_errors():
    m = init_toy_model(0, k=1, c=1, g=1, classes=2)
    data = encode_model(m)
    with pytest.raises(ValueError, match="truncated payload"):
        decode_model(data[:10])
    with pytest.raises(ValueError, match="bad magic"):
        decode_model(b"XXXX" + data[4:])
    wrong_version = bytearray(data)
    wrong_version[4] = 2
    with pytest.raises(ValueError, match="unsupported version"):
        decode_model(bytes(wrong_version))
    zero_dim = bytearray(data)
    zero_dim[8:12] = (0).to_bytes(4, "little")
    with pytest.raises(ValueError, match="bad dimensions"):
        decode_model(bytes(zero_dim))
    with pytest.raises(ValueError, match="length mismatch"):
        decode_model(data + b"\x00")
    corrupt = bytearray(data)
    corrupt[-8:] = np.array([np.inf]).tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        decode_model(bytes(corrupt))
