"""Per-image augmentation samplers: the reference for robustaug.augment.

Each sampler draws from one stream with the scalar calls (next_int,
next_unit, normal_field) in the order robustaug.augment documents, and
applies its op to one (h, w, c) image with slices, so it shares no code
with the batch kernels and lockstep draws of the package. Tests compare
run_pipeline_batch against run_pipeline here, and script the draws of these
samplers with stand-in streams to pin the documented order.

This module imports robustaug.images for clip_unit only and never
robustaug.augment.
"""

from dataclasses import dataclass

import numpy as np

from robustaug.images import clip_unit


@dataclass(frozen=True)
class PatchRect:
    """Half-open pixel rectangle [start, end) on each axis."""

    start_x: int
    start_y: int
    end_x: int
    end_y: int


def rect_from_center(cx, cy, h, w, patch):
    """Rect of side patch centered at (cx, cy), clipped to the image:
    start = center - floor(patch/2), end = center + ceil(patch/2)."""
    lo = patch // 2
    hi = patch - lo
    return PatchRect(max(0, cx - lo), max(0, cy - lo), min(w, cx + hi), min(h, cy + hi))


def sample_patch_bounds(rng, h, w, patch):
    """Draw a patch center uniformly over the image (x first, then y)."""
    if patch < 1:
        raise ValueError("patch must be >= 1")
    if h < 1 or w < 1:
        raise ValueError("image extent must be >= 1")
    cx = rng.next_int(0, w - 1)
    cy = rng.next_int(0, h - 1)
    return rect_from_center(cx, cy, h, w, patch)


def gaussian_kernel(img, sigma, noise):
    return clip_unit(img + sigma * noise)


def patch_gaussian_kernel(img, rect, sigma, noise):
    """Noisy copy inside rect, original outside (clip before combine)."""
    noisy = gaussian_kernel(img, sigma, noise)
    out = img.copy()
    inside = (slice(rect.start_y, rect.end_y), slice(rect.start_x, rect.end_x))
    out[inside] = noisy[inside]
    return out


def cutout_kernel(img, rect, fill):
    out = img.copy()
    out[rect.start_y:rect.end_y, rect.start_x:rect.end_x] = np.asarray(fill, dtype=np.float64)
    return out


def apply_gaussian(img, spec, rng):
    sigma = spec.sigma_max * rng.next_unit()
    return gaussian_kernel(img, sigma, rng.normal_field(img.shape))


def apply_cutout(img, spec, rng):
    h, w, _ = img.shape
    return cutout_kernel(img, sample_patch_bounds(rng, h, w, spec.patch_size), spec.fill)


def apply_patch_gaussian(img, spec, rng):
    h, w, _ = img.shape
    patch = rng.next_int(1, spec.patch_size) if spec.sample_up_to else spec.patch_size
    rect = sample_patch_bounds(rng, h, w, patch)
    sigma = spec.sigma_max * rng.next_unit()
    return patch_gaussian_kernel(img, rect, sigma, rng.normal_field(img.shape))


def flip_and_crop(img, pad, rng):
    """Random horizontal flip, zero-pad by pad, crop back to size at the
    drawn offsets (x, then y)."""
    h, w, c = img.shape
    flipped = img[:, ::-1, :] if rng.next_unit() < 0.5 else img
    if pad == 0:
        return flipped.copy()
    ox = rng.next_int(0, 2 * pad)
    oy = rng.next_int(0, 2 * pad)
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c))
    padded[pad:pad + h, pad:pad + w] = flipped
    y0 = 2 * pad - oy
    x0 = 2 * pad - ox
    return padded[y0:y0 + h, x0:x0 + w].copy()


def apply_augment(img, spec, rng):
    if spec.kind == "none":
        return img.copy()
    if spec.kind == "gaussian":
        return apply_gaussian(img, spec, rng)
    if spec.kind == "cutout":
        return apply_cutout(img, spec, rng)
    return apply_patch_gaussian(img, spec, rng)


def run_pipeline(img, spec, rng):
    """Augmentation and flip/crop in spec.order, each from its own child of
    rng ("aug" and "flipcrop")."""
    if spec.order == "augment_then_flipcrop":
        out = apply_augment(img, spec, rng.derive("aug"))
        return flip_and_crop(out, spec.pad, rng.derive("flipcrop"))
    out = flip_and_crop(img, spec.pad, rng.derive("flipcrop"))
    return apply_augment(out, spec, rng.derive("aug"))
