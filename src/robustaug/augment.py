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

run_pipeline_batch is run_pipeline over a batch with one stream per image:
the scalar draws stay per image, and the noise fields of the whole batch
come from one lockstep rng.normal_fields call.

The noisy copy is clipped to [0, 1] before the patch is combined with the
original, so border pixels of the patch never exceed the unit range. All
ops return new arrays and leave pixels outside the sampled rect
bit-identical to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import clip_unit
from .rng import RngStream, normal_fields

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


def _patch_draws(shape, spec: AugmentSpec, rng: RngStream) -> tuple[PatchRect, float]:
    """The draws of apply_patch_gaussian that precede its noise field."""
    h, w, _ = shape
    patch = spec.patch_size
    if spec.sample_up_to:
        # Inclusive upper end: the configured size is the maximum.
        patch = rng.next_int(1, spec.patch_size)
    rect = sample_patch_bounds(rng, h, w, patch)
    return rect, spec.sigma_max * rng.next_unit()


def apply_patch_gaussian(img: np.ndarray, spec: AugmentSpec, rng: RngStream) -> np.ndarray:
    """Square patch of Gaussian noise; see the module draw-order table."""
    rect, sigma = _patch_draws(img.shape, spec, rng)
    noise = rng.normal_field(img.shape)
    return patch_gaussian_kernel(img, rect, sigma, noise)


def flip_and_crop(img: np.ndarray, pad: int, rng: RngStream) -> np.ndarray:
    """Random horizontal flip, zero-pad by `pad`, crop back to size.

    The offset pair (ox, oy) is the translation of the content measured
    from its most up-left position: with offsets (0, 0) the content sits
    flush with the top-left of the window and the zero border shows at the
    right and bottom; offsets (2*pad, 2*pad) push it fully down-right.
    """
    h, w, c = img.shape
    flipped = img[:, ::-1, :] if rng.next_unit() < 0.5 else img
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


def run_pipeline_batch(images, spec: AugmentSpec, streams) -> np.ndarray:
    """run_pipeline over a non-empty batch of equally shaped images: entry i
    of the result is bit-identical to run_pipeline(images[i], spec,
    streams[i]).

    The "aug" and "flipcrop" child streams are independent, so the noise
    kinds can make every image's draws before its field, draw all fields in
    one normal_fields call, and only then run the stages image by image.
    """
    aug = [rng.derive("aug") for rng in streams]
    flipcrop = [rng.derive("flipcrop") for rng in streams]
    shape = np.shape(images[0])
    draws = None
    if spec.kind == "gaussian":
        # A whole-image rect makes patch_gaussian_kernel apply_gaussian_kernel.
        whole = PatchRect(0, 0, shape[1], shape[0])
        draws = [(whole, spec.sigma_max * rng.next_unit()) for rng in aug]
    elif spec.kind == "patch_gaussian":
        draws = [_patch_draws(shape, spec, rng) for rng in aug]
    noise = None if draws is None else normal_fields(aug, shape)
    out = np.empty((len(aug),) + shape)
    for i, img in enumerate(images):
        if spec.order == "flipcrop_then_augment":
            img = flip_and_crop(img, spec.pad, flipcrop[i])
        if draws is None:
            img = apply_augment(img, spec, aug[i])
        else:
            img = patch_gaussian_kernel(img, *draws[i], noise[i])
        if spec.order == "augment_then_flipcrop":
            img = flip_and_crop(img, spec.pad, flipcrop[i])
        out[i] = img
    return out
