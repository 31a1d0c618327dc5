"""Corruption semantics, severity plumbing, and the sigma suite."""

import math

import numpy as np
import pytest
from scipy import stats

from robustaug.augment import apply_gaussian_kernel
from robustaug.corrupt import (
    CORRUPTION_KINDS,
    DEFAULT_SEVERITY,
    NOISE_KINDS,
    SIGMA_SUITE,
    CorruptionSpec,
    corrupt,
    format_severity_table,
    gaussian_eval_suite,
    parse_severity_table,
    resolve_param,
    validate_severity_table,
)
from robustaug.images import LabeledDataset, clip_unit
from robustaug.rng import derive_stream


def random_image(seed, h=16, w=16, c=3):
    return np.random.default_rng(seed).random((h, w, c))


def corrupt_one(img, spec, seed=None, index=0, tag=""):
    """corrupt on a batch of one image whose stream origin is (seed, index, tag)."""
    return corrupt(img[None], spec, seed, [index], tag)[0]


def scalar_noise(img, kind, param, rng):
    """Reference noise kinds on one image, drawing from one RngStream in the
    order the corrupt module documents."""
    if kind == "gaussian_noise":
        return apply_gaussian_kernel(img, param, rng.normal_field(img.shape))
    if kind == "shot_noise":
        u = rng.unit_array(img.size).reshape(img.shape)
        return clip_unit(np.maximum(stats.poisson.ppf(u, img * param), 0.0) / param)
    u = rng.unit_array(img.shape[0] * img.shape[1]).reshape(img.shape[:2])
    out = img.copy()
    out[u < param / 2] = 0.0
    out[(u >= param / 2) & (u < param)] = 1.0
    return out


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown corruption kind"):
        CorruptionSpec(kind="fog", severity=1)
    with pytest.raises(ValueError, match="exactly one"):
        CorruptionSpec(kind="brightness")
    with pytest.raises(ValueError, match="exactly one"):
        CorruptionSpec(kind="brightness", severity=1, param=0.1)
    with pytest.raises(ValueError, match="severity level"):
        CorruptionSpec(kind="brightness", severity=6)


def test_brightness_zero_identity():
    img = random_image(0)
    out = corrupt_one(img, CorruptionSpec(kind="brightness", param=0.0))
    assert np.array_equal(out, img)


def test_brightness_shifts_and_clips():
    out = corrupt_one(np.full((2, 2, 1), 0.9), CorruptionSpec(kind="brightness", param=0.3))
    assert np.all(out == 1.0)


def test_contrast_zero_collapses_to_channel_mean():
    img = random_image(1)
    out = corrupt_one(img, CorruptionSpec(kind="contrast", param=0.0))
    m = img.mean(axis=(0, 1))
    for c in range(3):
        assert np.allclose(out[:, :, c], m[c], atol=1e-12)


def test_contrast_one_identity():
    img = random_image(2)
    out = corrupt_one(img, CorruptionSpec(kind="contrast", param=1.0))
    assert np.allclose(out, img, atol=1e-15)


def test_pixelate_full_width_block_average():
    img = np.random.default_rng(3).random((4, 4, 1))
    out = corrupt_one(img, CorruptionSpec(kind="pixelate", param=4.0))
    expected = math.fsum(img[y, x, 0] for y in range(4) for x in range(4)) / 16
    assert np.allclose(out, expected, atol=1e-12)


def test_pixelate_hand_blocks():
    img = np.random.default_rng(4).random((4, 6, 1))
    out = corrupt_one(img, CorruptionSpec(kind="pixelate", param=2.0))
    for by in range(0, 4, 2):
        for bx in range(0, 6, 2):
            block = img[by : by + 2, bx : bx + 2, 0]
            assert np.allclose(out[by : by + 2, bx : bx + 2, 0], block.mean(), atol=1e-12)


def test_pixelate_ragged_blocks():
    img = np.random.default_rng(5).random((5, 5, 1))
    out = corrupt_one(img, CorruptionSpec(kind="pixelate", param=3.0))
    corner = img[3:5, 3:5, 0]
    assert np.allclose(out[3:5, 3:5, 0], corner.mean(), atol=1e-12)


def test_defocus_matches_nested_loop_oracle():
    img = np.random.default_rng(6).random((6, 7, 1))
    radius = 2.0
    out = corrupt_one(img, CorruptionSpec(kind="defocus_blur", param=radius))
    span = 2
    taps = [
        (dy, dx)
        for dy in range(-span, span + 1)
        for dx in range(-span, span + 1)
        if dy * dy + dx * dx <= radius * radius
    ]
    for y in range(6):
        for x in range(7):
            acc = math.fsum(
                img[min(max(y + dy, 0), 5), min(max(x + dx, 0), 6), 0] for dy, dx in taps
            )
            assert abs(out[y, x, 0] - acc / len(taps)) < 1e-12


def test_defocus_radius_zero_identity():
    img = random_image(7)
    out = corrupt_one(img, CorruptionSpec(kind="defocus_blur", param=0.0))
    assert np.allclose(out, img, atol=1e-15)


def test_gaussian_noise_shares_augment_kernel():
    img = random_image(8)
    sigma = 0.37
    out = corrupt_one(img, CorruptionSpec(kind="gaussian_noise", param=sigma), 5, 4, "gn")
    field = derive_stream(5, 4, "gn").normal_field(img.shape)
    assert np.array_equal(out, apply_gaussian_kernel(img, sigma, field))


@pytest.mark.parametrize("n", [1, 7, 130])
@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_batch_matches_batches_of_one(kind, n):
    # 5x3x3 fields are odd-sized, and 130 images span two lockstep groups.
    images = np.random.default_rng(n).random((n, 5, 3, 3))
    indices = np.arange(n) * 7 - 3
    spec = CorruptionSpec(kind=kind, severity=5)
    got = corrupt(images, spec, 9, indices, "batch")
    for j in range(n):
        one = corrupt_one(images[j], spec, 9, indices[j], "batch")
        assert np.array_equal(got[j], one)
        if kind in NOISE_KINDS:
            stream = derive_stream(9, int(indices[j]), "batch")
            want = scalar_noise(images[j], kind, DEFAULT_SEVERITY[kind][4], stream)
            assert np.array_equal(one, want)


def test_shot_noise_large_lambda_near_identity():
    img = np.full((32, 32, 1), 0.5)
    out = corrupt_one(img, CorruptionSpec(kind="shot_noise", param=1e6), 1, 0, "shot")
    assert np.abs(out - img).mean() < 1e-2


def test_shot_noise_counts_are_integers():
    img = random_image(9, 8, 8, 1)
    lam = 60.0
    out = corrupt_one(img, CorruptionSpec(kind="shot_noise", param=lam), 2, 0, "shot")
    unclipped = out[out < 1.0]
    counts = unclipped * lam
    assert np.allclose(counts, np.round(counts), atol=1e-9)


def test_shot_noise_black_stays_black():
    img = np.zeros((4, 4, 1))
    out = corrupt_one(img, CorruptionSpec(kind="shot_noise", param=100.0), 3, 0, "shot")
    assert np.array_equal(out, img)


def test_impulse_noise_extremes():
    img = random_image(10, 8, 8, 3)
    out = corrupt_one(img, CorruptionSpec(kind="impulse_noise", param=0.0), 4, 0, "imp")
    assert np.array_equal(out, img)
    out = corrupt_one(img, CorruptionSpec(kind="impulse_noise", param=1.0), 4, 0, "imp")
    assert np.all((out == 0.0) | (out == 1.0))
    frac_white = np.count_nonzero(out[:, :, 0] == 1.0) / 64
    assert 0.2 < frac_white < 0.8  # equal probability, small sample


def test_impulse_noise_whole_pixel_replacement():
    img = random_image(11, 16, 16, 3)
    out = corrupt_one(img, CorruptionSpec(kind="impulse_noise", param=0.5), 5, 0, "imp")
    changed = np.any(out != img, axis=2)
    for y, x in zip(*np.nonzero(changed)):
        assert out[y, x, 0] == out[y, x, 1] == out[y, x, 2]
        assert out[y, x, 0] in (0.0, 1.0)


def test_outputs_stay_in_unit_range():
    img = random_image(12)
    for kind in CORRUPTION_KINDS:
        for level in range(1, 6):
            out = corrupt_one(img, CorruptionSpec(kind=kind, severity=level), 6, level, kind)
            assert out.min() >= 0.0 and out.max() <= 1.0, kind


def test_severity_monotone_mean_change():
    # 32x32 is the size this toolkit's default table is documented for.
    images = np.stack([random_image(100 + i, 32, 32, 3) for i in range(6)])
    for kind in CORRUPTION_KINDS:
        changes = []
        for level in range(1, 6):
            spec = CorruptionSpec(kind=kind, severity=level)
            # Same stream per image across levels: paired comparison.
            out = corrupt(images, spec, 7, tag=f"mono/{kind}")
            total = 0.0
            for i, img in enumerate(images):
                total += np.abs(out[i] - img).mean()
            changes.append(total / len(images))
        for a, b in zip(changes, changes[1:]):
            assert b >= a - 1e-12, (kind, changes)


def test_unknown_kind_and_domain_errors():
    img = random_image(13)
    with pytest.raises(ValueError, match="out of domain"):
        corrupt_one(img, CorruptionSpec(kind="impulse_noise", param=1.5), 0, 0, "x")
    with pytest.raises(ValueError, match="out of domain"):
        corrupt_one(img, CorruptionSpec(kind="shot_noise", param=0.0), 0, 0, "x")
    with pytest.raises(ValueError, match="out of domain"):
        corrupt_one(img, CorruptionSpec(kind="pixelate", param=2.5))
    for kind in CORRUPTION_KINDS:
        for param in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="out of domain"):
                corrupt_one(img, CorruptionSpec(kind=kind, param=param), 0, 0, "x")
    with pytest.raises(ValueError, match="image batch"):
        corrupt(img, CorruptionSpec(kind="brightness", param=0.1))  # one image, not a batch
    with pytest.raises(ValueError, match="requires an rng"):
        corrupt_one(img, CorruptionSpec(kind="gaussian_noise", param=0.1))


def test_severity_table_round_trip():
    text = format_severity_table(DEFAULT_SEVERITY)
    parsed = parse_severity_table(text)
    assert parsed == {k: tuple(map(float, v)) for k, v in DEFAULT_SEVERITY.items()}


def test_severity_table_validation():
    bad = dict(DEFAULT_SEVERITY)
    bad["brightness"] = (0.05, 0.05, 0.15, 0.20, 0.30)
    with pytest.raises(ValueError, match="monotone"):
        validate_severity_table(bad)
    with pytest.raises(ValueError, match="levels must be exactly"):
        parse_severity_table("brightness 1 0.05\nbrightness 2 0.1\n")
    with pytest.raises(ValueError, match="expected"):
        parse_severity_table("brightness 1\n")


def test_resolve_param_precedence():
    assert resolve_param(CorruptionSpec(kind="brightness", severity=3)) == 0.15
    assert resolve_param(CorruptionSpec(kind="brightness", param=0.42)) == 0.42
    custom = {"brightness": (0.1, 0.2, 0.3, 0.4, 0.5)}
    assert resolve_param(CorruptionSpec(kind="brightness", severity=1), custom) == 0.1
    with pytest.raises(ValueError, match="no entry"):
        resolve_param(CorruptionSpec(kind="contrast", severity=1), custom)


def make_dataset(seed, n=5):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.random((n, 8, 8, 3)), rng.integers(0, 10, n))


def test_suite_has_paper_sigmas_in_order():
    suite = gaussian_eval_suite(make_dataset(14), seed=3)
    assert [s for s, _ in suite] == [0.1, 0.2, 0.3, 0.5, 0.8, 1.0]
    assert list(SIGMA_SUITE) == [0.1, 0.2, 0.3, 0.5, 0.8, 1.0]


def test_suite_preserves_labels():
    d = make_dataset(15)
    for _, corrupted in gaussian_eval_suite(d, seed=4):
        assert np.array_equal(corrupted.labels, d.labels)


def test_suite_determinism():
    d = make_dataset(16)
    a = gaussian_eval_suite(d, seed=5)
    b = gaussian_eval_suite(d, seed=5)
    c = gaussian_eval_suite(d, seed=6)
    for (_, da), (_, db) in zip(a, b):
        assert np.array_equal(da.images, db.images)
    assert not np.array_equal(a[0][1].images, c[0][1].images)


def test_suite_empty_dataset():
    empty = LabeledDataset(np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty dataset"):
        gaussian_eval_suite(empty, seed=0)
