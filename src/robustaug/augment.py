"""Noise augmentations: whole-image Gaussian, Cutout, and patch Gaussian.

Patch Gaussian adds a square patch of Gaussian noise instead of erasing a
square (Cutout) or corrupting every pixel (Gaussian). Its two parameters
interpolate between those endpoints: growing the patch to cover the image
recovers whole-image Gaussian exactly, and large sigma saturates the patch
interior to pure 0/1 noise, an approximation of Cutout.

Every op draws from an RngStream in a fixed, documented order so that runs
are reproducible across processes and implementations:

    apply_gaussian        sigma = sigma_max * next_unit, then one
                          next_normal per element (row-major,
                          channel-interleaved)
    apply_cutout          center x, then center y (next_int)
    apply_patch_gaussian  effective patch size (next_int, only when
                          sample_up_to), center x, center y,
                          sigma = sigma_max * next_unit, then the
                          full-image normal field
    flip_and_crop         flip decision (next_unit < 0.5 flips), then crop
                          offset x, then y (next_int over [0, 2*pad])

run_pipeline_batch is run_pipeline over a batch of origins (seed, index,
tag) that builds no stream per image: it derives the state arrays of the
batch's "aug" and "flipcrop" children, makes each draw above for the whole
batch in lockstep, and applies each kernel to the whole batch at once.

The noisy copy is clipped to [0, 1] before the patch is combined with the
original, so border pixels of the patch never exceed the unit range. All
ops return new arrays and leave pixels outside the sampled rect
bit-identical to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import clip_unit
from .rng import RngStream, child_tag_of, derive_states, lockstep_fields, next_ints, next_units

KINDS = ("none", "gaussian", "cutout", "patch_gaussian")
ORDERS = ("augment_then_flipcrop", "flipcrop_then_augment")


@dataclass(frozen=True)
class PatchRect:
    """Half-open pixel rectangle [start, end) on each axis."""

    start_x: int
    start_y: int
    end_x: int
    end_y: int

    @property
    def width(self) -> int:
        return self.end_x - self.start_x

    @property
    def height(self) -> int:
        return self.end_y - self.start_y


@dataclass(frozen=True)
class AugmentSpec:
    """Parameters for one augmentation pipeline.

    Fields irrelevant to the chosen kind are ignored. fill is the
    per-channel constant used by cutout, normally the dataset channel mean.
    """

    kind: str = "none"
    sigma_max: float = 0.0
    patch_size: int = 1
    sample_up_to: bool = False
    fill: tuple = ()
    order: str = "augment_then_flipcrop"
    pad: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind: {self.kind!r}")
        if self.order not in ORDERS:
            raise ValueError(f"unknown pipeline order: {self.order!r}")
        if self.sigma_max < 0:
            raise ValueError("sigma_max must be >= 0")
        if self.patch_size < 1:
            raise ValueError("patch_size must be >= 1")
        if self.pad < 0:
            raise ValueError("pad must be >= 0")


def rect_from_center(cx: int, cy: int, h: int, w: int, patch: int) -> PatchRect:
    """Rect of side `patch` centered at (cx, cy), clipped to the image.

    start = center - floor(patch/2), end = center + ceil(patch/2). The
    unclipped rect always contains the center, so a clipped rect is never
    empty when the center lies inside the image.
    """
    lo = patch // 2
    hi = patch - lo
    return PatchRect(
        start_x=max(0, cx - lo),
        start_y=max(0, cy - lo),
        end_x=min(w, cx + hi),
        end_y=min(h, cy + hi),
    )


def sample_patch_bounds(rng: RngStream, h: int, w: int, patch: int) -> PatchRect:
    """Draw a patch center uniformly over the image (x first, then y)."""
    if patch < 1:
        raise ValueError("patch must be >= 1")
    if h < 1 or w < 1:
        raise ValueError("image extent must be >= 1")
    cx = rng.next_int(0, w - 1)
    cy = rng.next_int(0, h - 1)
    return rect_from_center(cx, cy, h, w, patch)


def apply_gaussian_kernel(img: np.ndarray, sigma: float, noise: np.ndarray) -> np.ndarray:
    """clip_unit(img + sigma * noise) with an explicit noise field."""
    if noise.shape != img.shape:
        raise ValueError(f"shape mismatch: img {img.shape} vs noise {noise.shape}")
    return clip_unit(img + sigma * noise)


def patch_gaussian_kernel(
    img: np.ndarray, rect: PatchRect, sigma: float, noise: np.ndarray
) -> np.ndarray:
    """Noisy copy inside rect, original outside (clip before combine)."""
    noisy = apply_gaussian_kernel(img, sigma, noise)
    out = img.copy()
    out[rect.start_y : rect.end_y, rect.start_x : rect.end_x] = noisy[
        rect.start_y : rect.end_y, rect.start_x : rect.end_x
    ]
    return out


def cutout_kernel(img: np.ndarray, rect: PatchRect, fill) -> np.ndarray:
    """Constant per-channel fill inside rect, original outside."""
    out = img.copy()
    out[rect.start_y : rect.end_y, rect.start_x : rect.end_x] = np.asarray(fill, dtype=np.float64)
    return out


def apply_gaussian(img: np.ndarray, spec: AugmentSpec, rng: RngStream) -> np.ndarray:
    """Whole-image Gaussian noise with sigma drawn from [0, sigma_max)."""
    sigma = spec.sigma_max * rng.next_unit()
    noise = rng.normal_field(img.shape)
    return apply_gaussian_kernel(img, sigma, noise)


def apply_cutout(img: np.ndarray, spec: AugmentSpec, rng: RngStream) -> np.ndarray:
    """Square patch replaced by the constant fill color."""
    if len(spec.fill) == 0:
        raise ValueError("cutout requires a fill color")
    h, w, _ = img.shape
    rect = sample_patch_bounds(rng, h, w, spec.patch_size)
    return cutout_kernel(img, rect, spec.fill)


def apply_patch_gaussian(img: np.ndarray, spec: AugmentSpec, rng: RngStream) -> np.ndarray:
    """Square patch of Gaussian noise; see the module draw-order table."""
    h, w, _ = img.shape
    patch = spec.patch_size
    if spec.sample_up_to:
        # Inclusive upper end: the configured size is the maximum.
        patch = rng.next_int(1, spec.patch_size)
    rect = sample_patch_bounds(rng, h, w, patch)
    sigma = spec.sigma_max * rng.next_unit()
    noise = rng.normal_field(img.shape)
    return patch_gaussian_kernel(img, rect, sigma, noise)


def mirror(images: np.ndarray) -> np.ndarray:
    """Horizontal flip of an (h, w, c) image or an (n, h, w, c) stack (a view)."""
    return images[..., ::-1, :]


def draw_flips(states) -> np.ndarray:
    """The flip decisions of flip_and_crop, its first draw, for the columns
    of a "flipcrop" state array."""
    return next_units(states) < 0.5


def flip_only(spec: AugmentSpec) -> bool:
    """Whether run_pipeline can only mirror an image: no noise op, no crop."""
    return spec.kind == "none" and spec.pad == 0


def flip_and_crop(img: np.ndarray, pad: int, rng: RngStream) -> np.ndarray:
    """Random horizontal flip, zero-pad by `pad`, crop back to size.

    The offset pair (ox, oy) is the translation of the content measured
    from its most up-left position: with offsets (0, 0) the content sits
    flush with the top-left of the window and the zero border shows at the
    right and bottom; offsets (2*pad, 2*pad) push it fully down-right.
    """
    h, w, c = img.shape
    flipped = mirror(img) if rng.next_unit() < 0.5 else img
    if pad == 0:
        return flipped.copy()
    ox = rng.next_int(0, 2 * pad)
    oy = rng.next_int(0, 2 * pad)
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=img.dtype)
    padded[pad : pad + h, pad : pad + w] = flipped
    y0 = 2 * pad - oy
    x0 = 2 * pad - ox
    return padded[y0 : y0 + h, x0 : x0 + w].copy()


def apply_augment(img: np.ndarray, spec: AugmentSpec, rng: RngStream) -> np.ndarray:
    """Dispatch on spec.kind; `none` is the identity."""
    if spec.kind == "none":
        return img.copy()
    if spec.kind == "gaussian":
        return apply_gaussian(img, spec, rng)
    if spec.kind == "cutout":
        return apply_cutout(img, spec, rng)
    return apply_patch_gaussian(img, spec, rng)


def run_pipeline(img: np.ndarray, spec: AugmentSpec, rng: RngStream) -> np.ndarray:
    """Augmentation plus flip/crop in the configured order.

    Each stage draws from its own child stream (op tags "aug" and
    "flipcrop"), so the stages cannot perturb each other's draws and the
    order only changes the composition, not the randomness.
    """
    if spec.order == "augment_then_flipcrop":
        out = apply_augment(img, spec, rng.derive("aug"))
        return flip_and_crop(out, spec.pad, rng.derive("flipcrop"))
    out = flip_and_crop(img, spec.pad, rng.derive("flipcrop"))
    return apply_augment(out, spec, rng.derive("aug"))


def _rect_masks(states, h: int, w: int, patch) -> np.ndarray:
    """(n, h, w) masks of the rects sample_patch_bounds draws from the
    columns of a state array; patch is an int or one size per column."""
    if h < 1 or w < 1:
        raise ValueError("image extent must be >= 1")
    cx = next_ints(states, 0, w - 1)
    cy = next_ints(states, 0, h - 1)
    lo = np.asarray(patch) // 2
    hi = patch - lo
    rows = np.arange(h) - cy[:, None]
    cols = np.arange(w) - cx[:, None]
    in_rows = (rows >= -lo[..., None]) & (rows < hi[..., None])
    in_cols = (cols >= -lo[..., None]) & (cols < hi[..., None])
    return in_rows[:, :, None] & in_cols[:, None, :]


def _augment_batch(images: np.ndarray, spec: AugmentSpec, states) -> np.ndarray:
    """apply_augment over a batch whose "aug" draws come from the columns of
    states; all prefix draws precede the lockstep noise fields."""
    _, h, w, c = images.shape
    if spec.kind == "none":
        return images
    if spec.kind == "cutout":
        if len(spec.fill) == 0:
            raise ValueError("cutout requires a fill color")
        mask = _rect_masks(states, h, w, spec.patch_size)
        return np.where(mask[..., None], np.asarray(spec.fill, dtype=np.float64), images)
    mask = None
    if spec.kind == "patch_gaussian":
        # Inclusive upper end: the configured size is the maximum.
        patch = next_ints(states, 1, spec.patch_size) if spec.sample_up_to else spec.patch_size
        mask = _rect_masks(states, h, w, patch)
    sigma = spec.sigma_max * next_units(states)
    noisy = clip_unit(images + sigma[:, None, None, None] * lockstep_fields(states, (h, w, c)))
    return noisy if mask is None else np.where(mask[..., None], noisy, images)


def _flip_and_crop_batch(images: np.ndarray, flips: np.ndarray, pad: int, offsets) -> np.ndarray:
    """flip_and_crop over a batch with drawn flips and (ox, oy) offsets."""
    n, h, w, c = images.shape
    flipped = np.where(flips[:, None, None, None], mirror(images), images)
    if pad == 0:
        return flipped
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    padded[:, pad:pad + h, pad:pad + w] = flipped
    ox, oy = offsets
    rows = (2 * pad - oy)[:, None] + np.arange(h)
    cols = (2 * pad - ox)[:, None] + np.arange(w)
    return padded[np.arange(n)[:, None, None], rows[:, :, None], cols[:, None, :]]


def run_pipeline_batch(images, spec: AugmentSpec, seed: int, indices, tag: str) -> np.ndarray:
    """run_pipeline over a non-empty batch of equally shaped images: entry i
    of the result is bit-identical to run_pipeline(images[i], spec,
    derive_stream(seed, indices[i], tag)).

    The "aug" and "flipcrop" children are independent, so every draw can be
    made before any kernel runs. The kernels are elementwise and the flip
    and crop are gathers, so applying them to the whole batch with
    per-image masks and offsets changes no bit.
    """
    images = np.asarray(images, dtype=np.float64)
    aug = derive_states(seed, indices, child_tag_of(tag, "aug"))
    flipcrop = derive_states(seed, indices, child_tag_of(tag, "flipcrop"))
    flips = draw_flips(flipcrop)
    offsets = None
    if spec.pad:
        offsets = next_ints(flipcrop, 0, 2 * spec.pad), next_ints(flipcrop, 0, 2 * spec.pad)
    if spec.order == "flipcrop_then_augment":
        return _augment_batch(_flip_and_crop_batch(images, flips, spec.pad, offsets), spec, aug)
    return _flip_and_crop_batch(_augment_batch(images, spec, aug), flips, spec.pad, offsets)
