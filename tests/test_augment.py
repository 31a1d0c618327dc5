"""Augmentation kernels, draw orders, and the pipeline contract."""

import numpy as np
import pytest

from robustaug.augment import (
    KINDS,
    ORDERS,
    AugmentSpec,
    _flip_and_crop_batch,
    cutout_batch,
    draw_flips,
    flip_only,
    gaussian_batch,
    mirror,
    rect_masks,
    run_pipeline,
    run_pipeline_batch,
)
from robustaug.parallel import indexed_map
from robustaug.rng import derive_states, derive_stream, lockstep_fields, next_ints

import augment_reference as reference
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


def box(h, w, x0, y0, x1, y1):
    """(h, w) mask of the half-open rect [x0, x1) x [y0, y1)."""
    mask = np.zeros((h, w), dtype=bool)
    mask[y0:y1, x0:x1] = True
    return mask


def find_seed(tag, want_flip, start=0):
    """Smallest seed whose derived child stream makes the flip decision."""
    for seed in range(start, start + 10_000):
        u = derive_stream(seed, 0, tag).next_unit()
        if (u < 0.5) == want_flip:
            return seed
    raise AssertionError("no seed found")


def unflip(out, seed, indices, tag):
    """Undo the flips run_pipeline_batch made at pad 0: mirror back the
    images whose "flipcrop" child drew a flip."""
    flips = draw_flips(derive_states(seed, indices, tag + "/flipcrop"))
    return np.where(flips[:, None, None, None], mirror(out), out)


# --- patch bounds ---------------------------------------------------------


def test_rect_saturates_for_oversized_patch():
    cx, cy = np.divmod(np.arange(32 * 32), 32)
    assert rect_masks(cx, cy, 32, 32, 64).all()


def test_rect_hand_case_and_draw_order():
    assert np.array_equal(rect_masks([0], [0], 4, 4, 2)[0], box(4, 4, 0, 0, 1, 1))
    stream = ScriptedStream(ints=[0, 0])
    rect = reference.sample_patch_bounds(stream, 4, 4, 2)
    assert rect == reference.PatchRect(start_x=0, start_y=0, end_x=1, end_y=1)
    # x is drawn first: both draws range over the full axis here, so check
    # a non-square image instead.
    stream = ScriptedStream(ints=[6, 2])
    reference.sample_patch_bounds(stream, 3, 8, 1)
    assert stream.int_calls == [(0, 7), (0, 2)]


def test_rect_odd_patch_floor_ceil_split():
    assert np.array_equal(rect_masks([1], [1], 5, 5, 3)[0], box(5, 5, 0, 0, 3, 3))
    assert np.array_equal(rect_masks([2], [3], 6, 6, 5)[0], box(6, 6, 0, 1, 5, 6))
    # Even sides: one more pixel after the center than before it.
    assert np.array_equal(rect_masks([3], [3], 8, 8, 4)[0], box(8, 8, 1, 1, 5, 5))
    # One size per image.
    masks = rect_masks([1, 1], [1, 1], 5, 5, np.array([3, 2]))
    assert np.array_equal(masks[0], box(5, 5, 0, 0, 3, 3))
    assert np.array_equal(masks[1], box(5, 5, 0, 0, 2, 2))


def test_rect_never_empty_and_contains_center():
    cx, cy = np.divmod(np.arange(7 * 5), 5)
    for patch in (1, 2, 3, 7, 11):
        masks = rect_masks(cx, cy, 5, 7, patch)
        assert masks[np.arange(len(cx)), cy, cx].all()


def test_patch_bounds_rejects_bad_args():
    with pytest.raises(ValueError, match="patch_size"):
        AugmentSpec(kind="cutout", patch_size=0, fill=(0.5,))
    spec = AugmentSpec(kind="patch_gaussian", patch_size=2, sigma_max=1.0)
    with pytest.raises(ValueError, match="empty range"):
        run_pipeline_batch(np.zeros((2, 0, 4, 1)), spec, 0, [0, 1], "bad")


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
    n = 100_000
    hits = 0
    for start in range(0, n, 10_000):
        # The center draws of run_pipeline_batch: x, then y.
        states = derive_states(424242, range(start, start + 10_000), "inclusion")
        cx = next_ints(states, 0, w - 1)
        cy = next_ints(states, 0, h - 1)
        hits += np.count_nonzero(rect_masks(cx, cy, h, w, patch)[:, py, px])
    assert abs(hits / n - admissible / (h * w)) < 0.01


# --- gaussian -------------------------------------------------------------


def test_gaussian_kernel_sigma_zero_identity():
    rng = np.random.default_rng(3)
    img = rng.random((2, 8, 8, 3))
    noise = rng.normal(size=(2, 8, 8, 3))
    assert np.array_equal(gaussian_batch(img, [0.0, 0.0], noise), img)


def test_gaussian_kernel_forced_clip():
    out = gaussian_batch(gray(4, 4, 3)[None], [1.0], np.full((1, 4, 4, 3), 3.0))
    assert np.all(out == 1.0)


def test_gaussian_kernel_elementwise_oracle():
    rng = np.random.default_rng(4)
    img = rng.random((2, 6, 5, 3))
    noise = rng.normal(size=(2, 6, 5, 3))
    sigma = [0.3, 1.7]
    out = gaussian_batch(img, sigma, noise)
    for idx in np.ndindex(img.shape):
        expected = min(max(img[idx] + sigma[idx[0]] * noise[idx], 0.0), 1.0)
        assert out[idx] == expected  # same arithmetic order, 0 ulps


def test_gaussian_kernel_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        gaussian_batch(gray(4, 4)[None], [1.0], np.zeros((1, 4, 5, 1)))


def test_apply_gaussian_sigma_max_zero_identity():
    img = gray(5, 5, 3, 0.7)
    out = run_pipeline(img, AugmentSpec(kind="gaussian", sigma_max=0.0), derive_stream(1, 2, "g"))
    assert np.array_equal(out, img)


def test_apply_gaussian_golden_compose():
    # A 1x1 image: the flip is the identity, and the "aug" child draws
    # sigma's unit, then the pixel's normal.
    seed, index, tag = 42, 0, "golden"
    ref = rng_reference.Reference(seed, index, tag + "/aug")
    u = ref.unit()
    z = ref.normal()
    expected = min(max(0.5 + 1.0 * u * z, 0.0), 1.0)
    out = run_pipeline(
        gray(1, 1), AugmentSpec(kind="gaussian", sigma_max=1.0), derive_stream(seed, index, tag)
    )
    assert out[0, 0, 0] == expected


def test_apply_gaussian_rarely_clips_at_small_sigma():
    images = np.full((20, 32, 32, 3), 0.5)
    out = run_pipeline_batch(images, AugmentSpec(kind="gaussian", sigma_max=0.1), 9, range(20), "smallsig")
    unclipped = np.count_nonzero((out > 0.0) & (out < 1.0))
    assert unclipped / (20 * 32 * 32 * 3) >= 0.99


# --- cutout ---------------------------------------------------------------


def test_cutout_oversized_patch_fills_everything():
    img = np.random.default_rng(5).random((8, 6, 3))
    spec = AugmentSpec(kind="cutout", patch_size=16, fill=(0.1, 0.2, 0.3))
    out = run_pipeline(img, spec, derive_stream(0, 0, "c"))
    assert np.all(out == np.array([0.1, 0.2, 0.3]))


def test_cutout_own_color_is_identity():
    img = gray(7, 7, 3, 0.25)
    spec = AugmentSpec(kind="cutout", patch_size=3, fill=(0.25, 0.25, 0.25))
    out = run_pipeline(img, spec, derive_stream(1, 1, "c"))
    assert np.array_equal(out, img)


def test_cutout_hand_rect():
    img = gray(4, 4, 1, 0.5)[None]
    out = cutout_batch(img, rect_masks([1], [1], 4, 4, 2), (0.0,))[0]
    assert np.count_nonzero(out == 0.0) == 4
    assert np.all(out[:2, :2] == 0.0)
    assert np.all(out[2:, :] == 0.5) and np.all(out[:, 2:] == 0.5)


def test_cutout_requires_fill():
    with pytest.raises(ValueError, match="fill"):
        run_pipeline(gray(4, 4), AugmentSpec(kind="cutout", patch_size=2), derive_stream(0, 0, "c"))
    spec = AugmentSpec(kind="cutout", patch_size=2, fill=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="got 3 for 1"):
        run_pipeline_batch(np.zeros((2, 4, 4, 1)), spec, 0, [0, 1], "c")


# --- patch gaussian -------------------------------------------------------


def test_patch_gaussian_sigma_zero_identity():
    seed = find_seed("flipcrop", want_flip=False)
    img = np.random.default_rng(6).random((9, 9, 3))
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=0.0, patch_size=4)
    out = run_pipeline(img, spec, derive_stream(seed, 0, ""))
    assert np.array_equal(out, img)


def test_patch_gaussian_limit_equals_whole_image_gaussian():
    rng = np.random.default_rng(7)
    images = rng.random((5, 16, 16, 3))
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=0.8, patch_size=32)
    out = unflip(run_pipeline_batch(images, spec, 11, range(5), "limit"), 11, range(5), "limit")
    for i in range(5):
        # Replay the documented draw order with a scalar twin stream.
        twin = derive_stream(11, i, "limit/aug")
        twin.next_int(0, 15)
        twin.next_int(0, 15)
        sigma = 0.8 * twin.next_unit()
        field = twin.normal_field(images[i].shape)
        assert np.array_equal(out[i], gaussian_batch(images[i][None], [sigma], field[None])[0])


def test_patch_gaussian_cutout_limit_saturates():
    # At sigma = 1e4 the patch interior collapses to 0/1 noise.
    images = np.random.default_rng(8).random((34, 32, 32, 3))
    fields = lockstep_fields(derive_states(13, range(34), "sat"), (32, 32, 3))
    out = gaussian_batch(images, np.full(34, 1e4), fields)
    ones = np.count_nonzero(out == 1.0)
    zeros = np.count_nonzero(out == 0.0)
    middle = np.count_nonzero((out > 0.0) & (out < 1.0))
    total = out.size
    assert total >= 100_000
    assert abs(ones / total - 0.5) < 0.02
    assert abs(zeros / total - 0.5) < 0.02
    assert middle / total < 1e-3


def test_patch_gaussian_sample_up_to_inclusive_draw():
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=5, sample_up_to=True)
    stream = ScriptedStream(ints=[1, 0, 0], units=[0.0])
    out = reference.apply_patch_gaussian(gray(8, 8), spec, stream)
    # First draw is the effective patch size over the inclusive range [1, 5].
    assert stream.int_calls[0] == (1, 5)
    assert out.shape == (8, 8, 1)


def test_patch_gaussian_locality_replay():
    # Pixels outside the sampled rect are bit-identical to the input; the
    # rect is replayed with the independent generator.
    images = np.random.default_rng(9).random((50, 8, 8, 3))
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=0.9, patch_size=3)
    out = unflip(run_pipeline_batch(images, spec, 21, range(50), "loc"), 21, range(50), "loc")
    for i in range(50):
        ref = rng_reference.Reference(21, i, "loc/aug")
        cx = ref.integer(0, 7)
        cy = ref.integer(0, 7)
        x0, x1 = max(0, cx - 1), min(8, cx + 2)
        y0, y1 = max(0, cy - 1), min(8, cy + 2)
        mask = np.ones((8, 8, 3), dtype=bool)
        mask[y0:y1, x0:x1] = False
        assert np.array_equal(out[i][mask], images[i][mask])
        assert not np.array_equal(out[i][~mask], images[i][~mask])


def test_cutout_locality_replay():
    images = np.random.default_rng(10).random((50, 8, 8, 1))
    spec = AugmentSpec(kind="cutout", patch_size=4, fill=(0.33,))
    out = unflip(run_pipeline_batch(images, spec, 22, range(50), "loc"), 22, range(50), "loc")
    for i in range(50):
        ref = rng_reference.Reference(22, i, "loc/aug")
        cx = ref.integer(0, 7)
        cy = ref.integer(0, 7)
        x0, x1 = max(0, cx - 2), min(8, cx + 2)
        y0, y1 = max(0, cy - 2), min(8, cy + 2)
        mask = np.ones((8, 8, 1), dtype=bool)
        mask[y0:y1, x0:x1] = False
        assert np.array_equal(out[i][mask], images[i][mask])
        assert np.all(out[i][~mask] == 0.33)


# --- flip and crop --------------------------------------------------------


def test_flip_and_crop_pad_zero_identity_or_mirror():
    img = np.arange(12, dtype=np.float64).reshape(1, 2, 2, 3) / 12.0
    out = _flip_and_crop_batch(img.copy(), np.array([False]), 0, None)
    assert np.array_equal(out, img)
    out = _flip_and_crop_batch(img.copy(), np.array([True]), 0, None)
    assert np.array_equal(out, img[:, :, ::-1, :])


def test_flip_and_crop_window_rule():
    a, b, c, d = 0.1, 0.2, 0.3, 0.4
    img = np.array([[[a], [b]], [[c], [d]]])
    images = np.stack([img] * 4)
    # One (ox, oy) pair per image: (0, 0), (2, 2), (1, 1) and (2, 0).
    offsets = np.array([0, 2, 1, 2]), np.array([0, 2, 1, 0])
    out = _flip_and_crop_batch(images, np.zeros(4, dtype=bool), 1, offsets)[..., 0]
    # Offsets (0,0): content flush top-left, zero border right/bottom.
    assert np.array_equal(out[0], np.array([[d, 0.0], [0.0, 0.0]]))
    # Offsets (2,2): content pushed fully down-right.
    assert np.array_equal(out[1], np.array([[0.0, 0.0], [0.0, a]]))
    # Centered offsets (1,1) recover the original.
    assert np.array_equal(out[2], img[..., 0])
    # ox shifts the content right, oy down.
    assert np.array_equal(out[3], np.array([[0.0, c], [0.0, 0.0]]))
    # The border is +0.0 under negative content too, flipped or not.
    out = _flip_and_crop_batch(-images, np.array([False, True, False, True]), 1, offsets)
    assert not np.any(np.signbit(out[out == 0.0]))


def test_flip_and_crop_offset_draw_order():
    stream = ScriptedStream(units=[0.9], ints=[0, 0])
    reference.flip_and_crop(gray(4, 4), 2, stream)
    assert stream.int_calls == [(0, 4), (0, 4)]


# --- pipeline -------------------------------------------------------------


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
    bare = reference.apply_gaussian(img, spec, derive_stream(seed, 0, "aug"))
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

    seq = list(indexed_map(work, len(images), workers=1))
    par = list(indexed_map(work, len(images), workers=4))
    assert len(seq) == len(par) == len(images)
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
        single = np.stack([reference.run_pipeline(img, spec, derive_stream(21, int(i), "batch"))
                           for img, i in zip(images, indices)])
        assert batch.shape == single.shape
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("origins", [1, 2])
def test_pipeline_batch_rejects_an_origin_count_mismatch(kind, origins):
    # One origin must not be broadcast over the batch: every image would
    # get the same cutout, crop and flip.
    spec = AugmentSpec(kind=kind, patch_size=3, fill=(0.5,), pad=2)
    with pytest.raises(ValueError, match="indices for 5 images"):
        run_pipeline_batch(np.zeros((5, 6, 6, 1)), spec, 0, list(range(7, 7 + origins)), "batch")


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        AugmentSpec(kind="blur")
    with pytest.raises(ValueError, match="order"):
        AugmentSpec(order="sideways")
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma_max"):
            AugmentSpec(sigma_max=bad)
    with pytest.raises(ValueError, match="patch_size"):
        AugmentSpec(patch_size=0)
    with pytest.raises(ValueError, match="pad"):
        AugmentSpec(pad=-1)
    for field in ("patch_size", "pad"):
        for bad in (2.5, 3.0, "2"):
            with pytest.raises(ValueError, match=field):
                AugmentSpec(**{field: bad})
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=np.int64(3), pad=np.int32(1))
    assert run_pipeline_batch(np.zeros((2, 6, 6, 1)), spec, 0, [0, 1], "np").shape == (2, 6, 6, 1)


def test_apply_augment_none_copies():
    img = gray(3, 3)
    out = run_pipeline(img, AugmentSpec(kind="none"), derive_stream(0, 0, "n"))
    assert np.array_equal(out, img)
    assert not np.shares_memory(out, img)


@pytest.mark.parametrize("pad", [0, 4])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_pipeline_batch_leaves_its_input_unchanged(kind, order, pad):
    # The kernels work in place on the pipeline's copy; a write into the input raises.
    images = np.random.default_rng(4).random((6, 9, 7, 3))
    images.setflags(write=False)
    before = images.copy()
    spec = AugmentSpec(kind=kind, sigma_max=1.0, patch_size=4, sample_up_to=True, fill=(0.5, 0.5, 0.5),
                       order=order, pad=pad)
    out = run_pipeline_batch(images, spec, 2, range(6), "immutable")
    assert np.array_equal(images, before)
    assert not np.shares_memory(out, images)


@pytest.mark.parametrize("pad", [0, 4])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_pipeline_batch_ignores_its_input_layout(kind, order, pad):
    # The kernels write through a flat view of the pipeline's copy, so that copy
    # must be C-ordered whatever the input's layout.
    images = np.random.default_rng(6).random((6, 9, 7, 3))
    spec = AugmentSpec(kind=kind, sigma_max=1.0, patch_size=4, sample_up_to=True, fill=(0.5, 0.5, 0.5),
                       order=order, pad=pad)
    expected = run_pipeline_batch(images, spec, 3, range(6), "layout")
    transposed = np.ascontiguousarray(images.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    for batch in (np.asfortranarray(images), transposed):
        assert np.array_equal(batch, images) and not batch.flags.c_contiguous
        assert np.array_equal(run_pipeline_batch(batch, spec, 3, range(6), "layout"), expected)


def test_gaussian_batch_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(5)
    images, noise = rng.random((4, 6, 6, 2)), rng.standard_normal((4, 6, 6, 2))
    before = [images.copy(), noise.copy()]
    gaussian_batch(images, [0.5, 1.0, 1.5, 2.0], noise)
    for a, b in zip([images, noise], before):
        assert np.array_equal(a, b)
