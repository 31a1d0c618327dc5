"""Corruption semantics, severity plumbing, and the sigma suite."""

import math

import numpy as np
import pytest
from scipy import stats

from robustaug.augment import gaussian_batch
from robustaug.corrupt import (
    CORRUPTION_KINDS,
    DEFAULT_SEVERITY,
    NOISE_KINDS,
    SIGMA_SUITE,
    corrupt,
    gaussian_eval_suite,
    parse_severity_table,
    validate_severity_table,
)
from robustaug.images import LabeledDataset

from rng_reference import Reference


# DEFAULT_SEVERITY as a severity table file
DEFAULT_TABLE = """\
# kind level parameter
brightness 1 0.05
brightness 2 0.1
brightness 3 0.15
brightness 4 0.2
brightness 5 0.3
contrast 1 0.75
contrast 2 0.5
contrast 3 0.4
contrast 4 0.3
contrast 5 0.15
defocus_blur 1 1.0
defocus_blur 2 2.0
defocus_blur 3 3.0
defocus_blur 4 4.0
defocus_blur 5 6.0
gaussian_noise 1 0.04
gaussian_noise 2 0.06
gaussian_noise 3 0.08
gaussian_noise 4 0.09
gaussian_noise 5 0.1
impulse_noise 1 0.01
impulse_noise 2 0.02
impulse_noise 3 0.03
impulse_noise 4 0.05
impulse_noise 5 0.07
pixelate 1 2.0
pixelate 2 4.0
pixelate 3 8.0
pixelate 4 12.0
pixelate 5 16.0
shot_noise 1 500.0
shot_noise 2 250.0
shot_noise 3 100.0
shot_noise 4 75.0
shot_noise 5 50.0
"""


def random_image(seed, h=16, w=16, c=3):
    return np.random.default_rng(seed).random((h, w, c))


def corrupt_one(img, kind, param, seed=None, index=0, tag=""):
    """corrupt of img at stream origin (seed, index, tag): image index of a
    batch of index + 1 copies of it."""
    return corrupt(np.repeat(img[None], index + 1, axis=0), kind, param, seed, tag)[index]


def scalar_noise(img, kind, param, rng):
    """Reference noise kinds on one image, drawing from one reference stream
    in the order the corrupt module documents."""
    if kind == "gaussian_noise":
        return np.clip(img + param * rng.normal_field(img.shape), 0.0, 1.0)
    if kind == "shot_noise":
        u = np.array([rng.unit() for _ in range(img.size)]).reshape(img.shape)
        return np.clip(np.maximum(stats.poisson.ppf(u, img * param), 0.0) / param, 0.0, 1.0)
    u = np.array([rng.unit() for _ in range(img.shape[0] * img.shape[1])]).reshape(img.shape[:2])
    out = img.copy()
    out[u < param / 2] = 0.0
    out[(u >= param / 2) & (u < param)] = 1.0
    return out


def test_spec_validation():
    # corrupt takes a raw parameter; severity levels and their tables are the CLI's (tests/test_cli.py)
    img = random_image(0)
    with pytest.raises(ValueError, match="unknown corruption kind: 'fog'"):
        corrupt_one(img, "fog", 0.1, 0)


def test_brightness_zero_identity():
    img = random_image(0)
    out = corrupt_one(img, "brightness", 0.0)
    assert np.array_equal(out, img)


def test_brightness_shifts_and_clips():
    out = corrupt_one(np.full((2, 2, 1), 0.9), "brightness", 0.3)
    assert np.all(out == 1.0)


def test_contrast_zero_collapses_to_channel_mean():
    img = random_image(1)
    out = corrupt_one(img, "contrast", 0.0)
    m = img.mean(axis=(0, 1))
    for c in range(3):
        assert np.allclose(out[:, :, c], m[c], atol=1e-12)


def test_contrast_one_identity():
    img = random_image(2)
    out = corrupt_one(img, "contrast", 1.0)
    assert np.allclose(out, img, atol=1e-15)


def test_pixelate_full_width_block_average():
    img = np.random.default_rng(3).random((4, 4, 1))
    out = corrupt_one(img, "pixelate", 4.0)
    expected = math.fsum(img[y, x, 0] for y in range(4) for x in range(4)) / 16
    assert np.allclose(out, expected, atol=1e-12)


def test_pixelate_hand_blocks():
    img = np.random.default_rng(4).random((4, 6, 1))
    out = corrupt_one(img, "pixelate", 2.0)
    for by in range(0, 4, 2):
        for bx in range(0, 6, 2):
            block = img[by : by + 2, bx : bx + 2, 0]
            assert np.allclose(out[by : by + 2, bx : bx + 2, 0], block.mean(), atol=1e-12)


def test_pixelate_ragged_blocks():
    img = np.random.default_rng(5).random((5, 5, 1))
    out = corrupt_one(img, "pixelate", 3.0)
    corner = img[3:5, 3:5, 0]
    assert np.allclose(out[3:5, 3:5, 0], corner.mean(), atol=1e-12)


def test_defocus_matches_nested_loop_oracle():
    img = np.random.default_rng(6).random((6, 7, 1))
    radius = 2.0
    out = corrupt_one(img, "defocus_blur", radius)
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
    out = corrupt_one(img, "defocus_blur", 0.0)
    assert np.allclose(out, img, atol=1e-15)


def test_gaussian_noise_shares_augment_kernel():
    img = random_image(8)
    sigma = 0.37
    out = corrupt_one(img, "gaussian_noise", sigma, 5, 4, "gn")
    field = Reference(5, 4, "gn").normal_field(img.shape)
    assert np.array_equal(out, gaussian_batch(img[None], [sigma], field[None])[0])


@pytest.mark.parametrize("n", [1, 7, 130])
@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_batch_matches_batches_of_one(kind, n):
    # 5x3x3 fields are odd-sized; tests/test_group_width.py covers group boundaries.
    images = np.random.default_rng(n).random((n, 5, 3, 3))
    param = DEFAULT_SEVERITY[kind][4]
    got = corrupt(images, kind, param, 9, "batch")
    for j in range(n):
        if kind in NOISE_KINDS:
            want = scalar_noise(images[j], kind, param, Reference(9, j, "batch"))
            assert np.array_equal(got[j], want)
        # Image j alone at its origin; a noise kind needs a batch of j + 1 for that, so only the first few.
        if j < 8 or kind not in NOISE_KINDS:
            assert np.array_equal(got[j], corrupt_one(images[j], kind, param, 9, j, "batch"))


@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_corrupt_leaves_its_input_unchanged(kind):
    images = np.random.default_rng(11).random((5, 9, 7, 3))
    before = images.copy()
    out = corrupt(images, kind, DEFAULT_SEVERITY[kind][4], 3, tag="immutable")
    assert np.array_equal(images, before)
    assert not np.shares_memory(out, images)


def test_shot_noise_large_lambda_near_identity():
    img = np.full((32, 32, 1), 0.5)
    out = corrupt_one(img, "shot_noise", 1e6, 1, 0, "shot")
    assert np.abs(out - img).mean() < 1e-2


def test_shot_noise_counts_are_integers():
    img = random_image(9, 8, 8, 1)
    lam = 60.0
    out = corrupt_one(img, "shot_noise", lam, 2, 0, "shot")
    unclipped = out[out < 1.0]
    counts = unclipped * lam
    assert np.allclose(counts, np.round(counts), atol=1e-9)


def test_shot_noise_black_stays_black():
    img = np.zeros((4, 4, 1))
    out = corrupt_one(img, "shot_noise", 100.0, 3, 0, "shot")
    assert np.array_equal(out, img)


def test_impulse_noise_extremes():
    img = random_image(10, 8, 8, 3)
    out = corrupt_one(img, "impulse_noise", 0.0, 4, 0, "imp")
    assert np.array_equal(out, img)
    out = corrupt_one(img, "impulse_noise", 1.0, 4, 0, "imp")
    assert np.all((out == 0.0) | (out == 1.0))
    frac_white = np.count_nonzero(out[:, :, 0] == 1.0) / 64
    assert 0.2 < frac_white < 0.8  # equal probability, small sample


def test_impulse_noise_whole_pixel_replacement():
    img = random_image(11, 16, 16, 3)
    out = corrupt_one(img, "impulse_noise", 0.5, 5, 0, "imp")
    changed = np.any(out != img, axis=2)
    for y, x in zip(*np.nonzero(changed)):
        assert out[y, x, 0] == out[y, x, 1] == out[y, x, 2]
        assert out[y, x, 0] in (0.0, 1.0)


def test_outputs_stay_in_unit_range():
    img = random_image(12)
    for kind in CORRUPTION_KINDS:
        for level in range(1, 6):
            out = corrupt_one(img, kind, DEFAULT_SEVERITY[kind][level - 1], 6, level, kind)
            assert out.min() >= 0.0 and out.max() <= 1.0, kind


def test_severity_monotone_mean_change():
    # 32x32 is the size this toolkit's default table is documented for.
    images = np.stack([random_image(100 + i, 32, 32, 3) for i in range(6)])
    for kind in CORRUPTION_KINDS:
        changes = []
        for level in range(1, 6):
            # Same stream per image across levels: paired comparison.
            out = corrupt(images, kind, DEFAULT_SEVERITY[kind][level - 1], 7, tag=f"mono/{kind}")
            total = 0.0
            for i, img in enumerate(images):
                total += np.abs(out[i] - img).mean()
            changes.append(total / len(images))
        for a, b in zip(changes, changes[1:]):
            assert b >= a - 1e-12, (kind, changes)


def test_unknown_kind_and_domain_errors():
    img = random_image(13)
    with pytest.raises(ValueError, match="out of domain"):
        corrupt_one(img, "impulse_noise", 1.5, 0, 0, "x")
    with pytest.raises(ValueError, match="out of domain"):
        corrupt_one(img, "shot_noise", 0.0, 0, 0, "x")
    with pytest.raises(ValueError, match="out of domain"):
        corrupt_one(img, "pixelate", 2.5)
    for kind in CORRUPTION_KINDS:
        for param in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="out of domain"):
                corrupt_one(img, kind, param, 0, 0, "x")
    with pytest.raises(ValueError, match="image batch"):
        corrupt(img, "brightness", 0.1)  # one image, not a batch
    with pytest.raises(ValueError, match="requires an rng"):
        corrupt_one(img, "gaussian_noise", 0.1)


# (kind, a parameter on an edge of its domain, the nearest float outside that edge)
# for every bounded side of every kind's domain
DOMAIN_EDGES = [
    ("gaussian_noise", 0.0, -math.ulp(0.0)),
    ("shot_noise", math.ulp(0.0), 0.0),
    ("impulse_noise", 0.0, -math.ulp(0.0)),
    ("impulse_noise", 1.0, math.nextafter(1.0, 2.0)),
    ("brightness", -1.0, math.nextafter(-1.0, -2.0)),
    ("brightness", 1.0, math.nextafter(1.0, 2.0)),
    ("contrast", 0.0, -math.ulp(0.0)),
    ("defocus_blur", 0.0, -math.ulp(0.0)),
    ("pixelate", 1.0, 0.0),  # the nearest integer: pixelate takes integers only
]


@pytest.mark.parametrize("kind,edge,outside", DOMAIN_EDGES)
def test_domain_edges(kind, edge, outside):
    img = random_image(14, 4, 4, 1)
    corrupt_one(img, kind, edge, 0, 0, "x")
    with pytest.raises(ValueError, match=f"out of domain for {kind}"):
        corrupt_one(img, kind, outside, 0, 0, "x")


def test_severity_table_round_trip():
    parsed = parse_severity_table(DEFAULT_TABLE)
    assert parsed == {k: tuple(map(float, v)) for k, v in DEFAULT_SEVERITY.items()}


def test_severity_table_validation():
    bad = dict(DEFAULT_SEVERITY)
    bad["brightness"] = (0.05, 0.05, 0.15, 0.20, 0.30)
    with pytest.raises(ValueError, match="monotone"):
        validate_severity_table(bad)
    with pytest.raises(ValueError, match="brightness: need exactly 5 severity parameters, got 4"):
        validate_severity_table({"brightness": (0.05, 0.1, 0.15, 0.2)})
    with pytest.raises(ValueError, match="levels must be exactly"):
        parse_severity_table("brightness 1 0.05\nbrightness 2 0.1\n")
    with pytest.raises(ValueError, match="expected"):
        parse_severity_table("brightness 1\n")


def test_severity_table_rejects_a_repeated_level():
    text = DEFAULT_TABLE + "gaussian_noise 1 0.15\ngaussian_noise 1 0.1\n"
    with pytest.raises(ValueError, match="repeated gaussian_noise level 1"):
        parse_severity_table(text)
    with pytest.raises(ValueError, match="line 2: repeated brightness level 1"):
        parse_severity_table("brightness 1 0.05\nbrightness 1 0.05\n")


@pytest.mark.parametrize("bad_line", ["brightness x 0.1", "brightness 2 abc", "brightness 2.5 0.1"])
def test_severity_table_names_the_line_of_a_bad_level_or_parameter(bad_line):
    with pytest.raises(ValueError, match=r"^severity table line 3: "):
        parse_severity_table(f"# kind level parameter\nbrightness 1 0.05\n{bad_line}\n")


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
