"""Augmentation kernels, draw orders, and the pipeline contract."""

import numpy as np
import pytest

from robustaug.augment import (
    KINDS,
    ORDERS,
    AugmentSpec,
    PatchRect,
    apply_augment,
    apply_cutout,
    apply_gaussian,
    apply_gaussian_kernel,
    apply_patch_gaussian,
    cutout_kernel,
    draw_flips,
    flip_and_crop,
    flip_only,
    mirror,
    patch_gaussian_kernel,
    rect_from_center,
    run_pipeline,
    run_pipeline_batch,
    sample_patch_bounds,
)
from robustaug.parallel import indexed_map
from robustaug.rng import derive_states, derive_stream

import rng_reference


class ScriptedStream:
    """Duck-typed stream with forced draws, for hand-constructed cases."""

    def __init__(self, ints=(), units=(), normals=None):
        self.ints = list(ints)
        self.units = list(units)
        self.normals = normals
        self.int_calls = []

    def next_int(self, lo, hi):
        self.int_calls.append((lo, hi))
        v = self.ints.pop(0)
        assert lo <= v <= hi
        return v

    def next_unit(self):
        return self.units.pop(0)

    def normal_field(self, shape):
        if self.normals is None:
            return np.zeros(shape)
        return np.asarray(self.normals, dtype=np.float64).reshape(shape)


def gray(h, w, c=1, value=0.5):
    return np.full((h, w, c), value, dtype=np.float64)


# --- patch bounds ---------------------------------------------------------


def test_rect_saturates_for_oversized_patch():
    for cx in range(32):
        for cy in range(32):
            rect = rect_from_center(cx, cy, 32, 32, 64)
            assert rect == PatchRect(0, 0, 32, 32)


def test_rect_hand_case_and_draw_order():
    stream = ScriptedStream(ints=[0, 0])
    rect = sample_patch_bounds(stream, 4, 4, 2)
    assert rect == PatchRect(start_x=0, start_y=0, end_x=1, end_y=1)
    # x is drawn first: both draws range over the full axis here, so check
    # a non-square image instead.
    stream = ScriptedStream(ints=[6, 2])
    sample_patch_bounds(stream, 3, 8, 1)
    assert stream.int_calls == [(0, 7), (0, 2)]


def test_rect_odd_patch_floor_ceil_split():
    rect = rect_from_center(1, 1, 5, 5, 3)
    assert rect == PatchRect(0, 0, 3, 3)
    rect = rect_from_center(2, 3, 6, 6, 5)
    assert rect == PatchRect(0, 1, 5, 6)


def test_rect_never_empty_and_contains_center():
    for patch in (1, 2, 3, 7, 11):
        for cx in range(7):
            for cy in range(5):
                r = rect_from_center(cx, cy, 5, 7, patch)
                assert r.start_x <= cx < r.end_x
                assert r.start_y <= cy < r.end_y


def test_patch_bounds_rejects_bad_args():
    stream = derive_stream(0, 0, "bad")
    with pytest.raises(ValueError):
        sample_patch_bounds(stream, 4, 4, 0)
    with pytest.raises(ValueError):
        sample_patch_bounds(stream, 0, 4, 2)


def test_inclusion_probability_matches_center_count():
    # Independent derivation: pixel p is inside the rect for center (cx, cy)
    # iff cx - floor(patch/2) <= px < cx + ceil(patch/2), same for y.
    h = w = 32
    patch = 8
    lo, hi = patch // 2, patch - patch // 2
    px, py = 5, 20
    admissible = sum(
        1
        for cx in range(w)
        for cy in range(h)
        if cx - lo <= px < cx + hi and cy - lo <= py < cy + hi
    )
    stream = derive_stream(424242, 0, "inclusion")
    n = 100_000
    hits = 0
    for _ in range(n):
        r = sample_patch_bounds(stream, h, w, patch)
        if r.start_x <= px < r.end_x and r.start_y <= py < r.end_y:
            hits += 1
    assert abs(hits / n - admissible / (h * w)) < 0.01


# --- gaussian -------------------------------------------------------------


def test_gaussian_kernel_sigma_zero_identity():
    rng = np.random.default_rng(3)
    img = rng.random((8, 8, 3))
    noise = rng.normal(size=(8, 8, 3))
    assert np.array_equal(apply_gaussian_kernel(img, 0.0, noise), img)


def test_gaussian_kernel_forced_clip():
    out = apply_gaussian_kernel(gray(4, 4, 3), 1.0, np.full((4, 4, 3), 3.0))
    assert np.all(out == 1.0)


def test_gaussian_kernel_elementwise_oracle():
    rng = np.random.default_rng(4)
    img = rng.random((6, 5, 3))
    noise = rng.normal(size=(6, 5, 3))
    out = apply_gaussian_kernel(img, 0.3, noise)
    for idx in np.ndindex(img.shape):
        expected = min(max(img[idx] + 0.3 * noise[idx], 0.0), 1.0)
        assert out[idx] == expected  # same arithmetic order, 0 ulps


def test_gaussian_kernel_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        apply_gaussian_kernel(gray(4, 4), 1.0, np.zeros((4, 5, 1)))


def test_apply_gaussian_sigma_max_zero_identity():
    img = gray(5, 5, 3, 0.7)
    out = apply_gaussian(img, AugmentSpec(kind="gaussian", sigma_max=0.0), derive_stream(1, 2, "g"))
    assert np.array_equal(out, img)


def test_apply_gaussian_golden_compose():
    seed, index, tag = 42, 0, "golden"
    ref = rng_reference.Reference(seed, index, tag)
    u = ref.unit()
    z = ref.normal()
    expected = min(max(0.5 + 1.0 * u * z, 0.0), 1.0)
    out = apply_gaussian(
        gray(1, 1), AugmentSpec(kind="gaussian", sigma_max=1.0), derive_stream(seed, index, tag)
    )
    assert out[0, 0, 0] == expected


def test_apply_gaussian_rarely_clips_at_small_sigma():
    img = gray(32, 32, 3)
    unclipped = 0
    for i in range(20):
        out = apply_gaussian(
            img, AugmentSpec(kind="gaussian", sigma_max=0.1), derive_stream(9, i, "smallsig")
        )
        unclipped += np.count_nonzero((out > 0.0) & (out < 1.0))
    assert unclipped / (20 * 32 * 32 * 3) >= 0.99


# --- cutout ---------------------------------------------------------------


def test_cutout_oversized_patch_fills_everything():
    img = np.random.default_rng(5).random((8, 6, 3))
    spec = AugmentSpec(kind="cutout", patch_size=16, fill=(0.1, 0.2, 0.3))
    out = apply_cutout(img, spec, derive_stream(0, 0, "c"))
    assert np.all(out == np.array([0.1, 0.2, 0.3]))


def test_cutout_own_color_is_identity():
    img = gray(7, 7, 3, 0.25)
    spec = AugmentSpec(kind="cutout", patch_size=3, fill=(0.25, 0.25, 0.25))
    out = apply_cutout(img, spec, derive_stream(1, 1, "c"))
    assert np.array_equal(out, img)


def test_cutout_hand_rect():
    img = gray(4, 4, 1, 0.5)
    spec = AugmentSpec(kind="cutout", patch_size=2, fill=(0.0,))
    out = apply_cutout(img, spec, ScriptedStream(ints=[1, 1]))
    assert np.count_nonzero(out == 0.0) == 4
    assert np.all(out[:2, :2] == 0.0)
    assert np.all(out[2:, :] == 0.5) and np.all(out[:, 2:] == 0.5)


def test_cutout_requires_fill():
    with pytest.raises(ValueError, match="fill"):
        apply_cutout(gray(4, 4), AugmentSpec(kind="cutout", patch_size=2), derive_stream(0, 0, "c"))


# --- patch gaussian -------------------------------------------------------


def test_patch_gaussian_sigma_zero_identity():
    img = np.random.default_rng(6).random((9, 9, 3))
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=0.0, patch_size=4)
    out = apply_patch_gaussian(img, spec, derive_stream(3, 3, "pg"))
    assert np.array_equal(out, img)


def test_patch_gaussian_limit_equals_whole_image_gaussian():
    rng = np.random.default_rng(7)
    for i in range(5):
        img = rng.random((16, 16, 3))
        spec = AugmentSpec(kind="patch_gaussian", sigma_max=0.8, patch_size=32)
        out = apply_patch_gaussian(img, spec, derive_stream(11, i, "limit"))
        # Replay the documented draw order with a twin stream.
        twin = derive_stream(11, i, "limit")
        twin.next_int(0, 15)
        twin.next_int(0, 15)
        sigma = 0.8 * twin.next_unit()
        field = twin.normal_field(img.shape)
        assert np.array_equal(out, apply_gaussian_kernel(img, sigma, field))


def test_patch_gaussian_cutout_limit_saturates():
    # At sigma = 1e4 the patch interior collapses to 0/1 noise.
    rng = np.random.default_rng(8)
    ones = zeros = middle = total = 0
    for i in range(34):
        img = rng.random((32, 32, 3))
        field = derive_stream(13, i, "sat").normal_field(img.shape)
        out = patch_gaussian_kernel(img, PatchRect(0, 0, 32, 32), 1e4, field)
        ones += np.count_nonzero(out == 1.0)
        zeros += np.count_nonzero(out == 0.0)
        middle += np.count_nonzero((out > 0.0) & (out < 1.0))
        total += out.size
    assert total >= 100_000
    assert abs(ones / total - 0.5) < 0.02
    assert abs(zeros / total - 0.5) < 0.02
    assert middle / total < 1e-3


def test_patch_gaussian_sample_up_to_inclusive_draw():
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=5, sample_up_to=True)
    stream = ScriptedStream(ints=[1, 0, 0], units=[0.0])
    out = apply_patch_gaussian(gray(8, 8), spec, stream)
    # First draw is the effective patch size over the inclusive range [1, 5].
    assert stream.int_calls[0] == (1, 5)
    assert out.shape == (8, 8, 1)


def test_patch_gaussian_locality_replay():
    # Pixels outside the sampled rect are bit-identical to the input.
    rng = np.random.default_rng(9)
    for i in range(50):
        img = rng.random((8, 8, 3))
        spec = AugmentSpec(kind="patch_gaussian", sigma_max=0.9, patch_size=3)
        out = apply_patch_gaussian(img, spec, derive_stream(21, i, "loc"))
        ref = rng_reference.Reference(21, i, "loc")
        cx = ref.integer(0, 7)
        cy = ref.integer(0, 7)
        x0, x1 = max(0, cx - 1), min(8, cx + 2)
        y0, y1 = max(0, cy - 1), min(8, cy + 2)
        mask = np.ones((8, 8, 3), dtype=bool)
        mask[y0:y1, x0:x1] = False
        assert np.array_equal(out[mask], img[mask])
        assert not np.array_equal(out[~mask], img[~mask])


def test_cutout_locality_replay():
    rng = np.random.default_rng(10)
    for i in range(50):
        img = rng.random((8, 8, 1))
        spec = AugmentSpec(kind="cutout", patch_size=4, fill=(0.33,))
        out = apply_cutout(img, spec, derive_stream(22, i, "loc"))
        ref = rng_reference.Reference(22, i, "loc")
        cx = ref.integer(0, 7)
        cy = ref.integer(0, 7)
        x0, x1 = max(0, cx - 2), min(8, cx + 2)
        y0, y1 = max(0, cy - 2), min(8, cy + 2)
        mask = np.ones((8, 8, 1), dtype=bool)
        mask[y0:y1, x0:x1] = False
        assert np.array_equal(out[mask], img[mask])
        assert np.all(out[~mask] == 0.33)


# --- flip and crop --------------------------------------------------------


def test_flip_and_crop_pad_zero_identity_or_mirror():
    img = np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 12.0
    out = flip_and_crop(img, 0, ScriptedStream(units=[0.9]))
    assert np.array_equal(out, img)
    out = flip_and_crop(img, 0, ScriptedStream(units=[0.1]))
    assert np.array_equal(out, img[:, ::-1, :])


def test_flip_and_crop_window_rule():
    a, b, c, d = 0.1, 0.2, 0.3, 0.4
    img = np.array([[[a], [b]], [[c], [d]]])
    # Offsets (0,0): content flush top-left, zero border right/bottom.
    out = flip_and_crop(img, 1, ScriptedStream(units=[0.9], ints=[0, 0]))
    assert np.array_equal(out[:, :, 0], np.array([[d, 0.0], [0.0, 0.0]]))
    # Offsets (2,2): content pushed fully down-right.
    out = flip_and_crop(img, 1, ScriptedStream(units=[0.9], ints=[2, 2]))
    assert np.array_equal(out[:, :, 0], np.array([[0.0, 0.0], [0.0, a]]))
    # Centered offsets (1,1) recover the original.
    out = flip_and_crop(img, 1, ScriptedStream(units=[0.9], ints=[1, 1]))
    assert np.array_equal(out, img)


def test_flip_and_crop_offset_draw_order():
    stream = ScriptedStream(units=[0.9], ints=[0, 0])
    flip_and_crop(gray(4, 4), 2, stream)
    assert stream.int_calls == [(0, 4), (0, 4)]


# --- pipeline -------------------------------------------------------------


def find_seed(tag, want_flip, start=0):
    """Smallest seed whose derived child stream makes the flip decision."""
    for seed in range(start, start + 10_000):
        u = derive_stream(seed, 0, tag).next_unit()
        if (u < 0.5) == want_flip:
            return seed
    raise AssertionError("no seed found")


def test_pipeline_none_pad_zero_identity():
    seed = find_seed("flipcrop", want_flip=False)
    img = np.random.default_rng(11).random((6, 6, 3))
    out = run_pipeline(img, AugmentSpec(kind="none", pad=0), derive_stream(seed, 0, ""))
    assert np.array_equal(out, img)


@pytest.mark.parametrize("order", ORDERS)
def test_draw_flips_agrees_with_run_pipeline(order):
    """Under a flip_only spec run_pipeline mirrors exactly the images whose
    "flipcrop" child draws a first unit below 0.5, the rule by which train
    reads its feature cache."""
    img = np.random.default_rng(13).random((5, 4, 3))
    spec = AugmentSpec(order=order)
    assert flip_only(spec)
    flips = draw_flips(derive_states(21, range(200), "flips/flipcrop"))
    for i in range(200):
        out = run_pipeline(img, spec, derive_stream(21, i, "flips"))
        assert np.array_equal(out, mirror(img) if flips[i] else img)
    assert 60 < flips.sum() < 140


def test_flip_only_reads_kind_and_pad():
    assert not flip_only(AugmentSpec(pad=1))
    assert not flip_only(AugmentSpec(kind="gaussian"))
    assert not flip_only(AugmentSpec(kind="cutout", fill=(0.5,)))


def test_pipeline_matches_bare_augmentation_when_flip_off():
    seed = find_seed("flipcrop", want_flip=False)
    img = np.random.default_rng(12).random((6, 6, 3))
    spec = AugmentSpec(kind="gaussian", sigma_max=0.5, pad=0)
    out = run_pipeline(img, spec, derive_stream(seed, 0, ""))
    bare = apply_gaussian(img, spec, derive_stream(seed, 0, "aug"))
    assert np.array_equal(out, bare)


def test_pipeline_orders_differ():
    seed = find_seed("flipcrop", want_flip=True)
    img = np.random.default_rng(13).random((8, 8, 3))
    a = run_pipeline(
        img,
        AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=4, pad=0),
        derive_stream(seed, 0, ""),
    )
    b = run_pipeline(
        img,
        AugmentSpec(
            kind="patch_gaussian", sigma_max=1.0, patch_size=4, pad=0,
            order="flipcrop_then_augment",
        ),
        derive_stream(seed, 0, ""),
    )
    assert not np.array_equal(a, b)


def test_pipeline_range_invariant():
    img = np.random.default_rng(14).random((10, 10, 3))
    specs = [
        AugmentSpec(kind="gaussian", sigma_max=2.0, pad=2),
        AugmentSpec(kind="patch_gaussian", sigma_max=3.0, patch_size=6, sample_up_to=True, pad=1),
        AugmentSpec(kind="cutout", patch_size=5, fill=(0.5, 0.5, 0.5), pad=3),
    ]
    for spec in specs:
        for i in range(10):
            out = run_pipeline(img, spec, derive_stream(77, i, "range"))
            assert out.min() >= 0.0 and out.max() <= 1.0


def test_pipeline_parallel_map_equals_sequential():
    rng = np.random.default_rng(15)
    images = rng.random((24, 8, 8, 3))
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=4, pad=1)

    def work(i):
        return run_pipeline(images[i], spec, derive_stream(5, i, "par"))

    seq = indexed_map(work, len(images), workers=1)
    par = indexed_map(work, len(images), workers=4)
    for s, p in zip(seq, par):
        assert np.array_equal(s, p)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("pad", [0, 4])
@pytest.mark.parametrize("channels", [1, 3])
def test_pipeline_batch_matches_per_image_pipeline(kind, order, pad, channels):
    spec = AugmentSpec(kind=kind, sigma_max=1.5, patch_size=5, sample_up_to=kind == "patch_gaussian",
                       fill=(0.25,) * channels, order=order, pad=pad)
    rng = np.random.default_rng(16 + channels)
    for size in (1, 15, 17):
        # 9x7 images: odd-sized fields and patches clipped at the border.
        # Indices from -3 up in steps of 7: a negative one, and gaps.
        images = rng.random((size, 9, 7, channels))
        indices = np.arange(size) * 7 - 3
        batch = run_pipeline_batch(images, spec, 21, indices, "batch")
        single = np.stack([run_pipeline(img, spec, derive_stream(21, int(i), "batch"))
                           for img, i in zip(images, indices)])
        assert batch.shape == single.shape
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        AugmentSpec(kind="blur")
    with pytest.raises(ValueError, match="order"):
        AugmentSpec(order="sideways")
    with pytest.raises(ValueError, match="sigma_max"):
        AugmentSpec(sigma_max=-1.0)
    with pytest.raises(ValueError, match="patch_size"):
        AugmentSpec(patch_size=0)
    with pytest.raises(ValueError, match="pad"):
        AugmentSpec(pad=-1)


def test_apply_augment_none_copies():
    img = gray(3, 3)
    out = apply_augment(img, AugmentSpec(kind="none"), derive_stream(0, 0, "n"))
    assert np.array_equal(out, img)
    assert out is not img
