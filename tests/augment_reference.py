"""Per-image augmentation samplers: the reference for robustaug.augment.

Each sampler draws from one stream with the scalar calls (next_int,
next_unit, normal_field) in the order robustaug.augment documents, and
applies its op to one (h, w, c) image with slices. run_pipeline here takes
an origin (seed, index, tag) and draws its "aug" and "flipcrop" children
from rng_reference.Reference, the pure-Python transcription of the stream,
so it shares no code with the batch kernels and lockstep draws of the
package. Tests compare run_pipeline_batch against run_pipeline here, and
script the draws of these samplers with stand-in streams to pin the
documented order.

This module imports nothing from robustaug.
"""

from dataclasses import dataclass

import numpy as np

from rng_reference import Reference


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
    return np.clip(img + sigma * noise, 0.0, 1.0)


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


def child(seed, index, tag, name):
    """The stream of child name ("aug" or "flipcrop") of origin (seed, index,
    tag): its tag is tag + "/" + name, or name alone when tag is empty."""
    return Reference(seed, index, f"{tag}/{name}" if tag else name)


def run_pipeline(img, spec, seed, index, tag):
    """Augmentation and flip/crop of img in spec.order, each drawing from its
    own child of origin (seed, index, tag)."""
    aug, flipcrop = child(seed, index, tag, "aug"), child(seed, index, tag, "flipcrop")
    if spec.order == "augment_then_flipcrop":
        return flip_and_crop(apply_augment(img, spec, aug), spec.pad, flipcrop)
    return apply_augment(flip_and_crop(img, spec.pad, flipcrop), spec, aug)
