"""Noise augmentations: whole-image Gaussian, Cutout, and patch Gaussian.

Patch Gaussian adds a square patch of Gaussian noise instead of erasing a
square (Cutout) or corrupting every pixel (Gaussian). Its two parameters
interpolate between those endpoints: growing the patch to cover the image
recovers whole-image Gaussian exactly, and large sigma saturates the patch
interior to pure 0/1 noise, an approximation of Cutout.

run_pipeline_batch augments a batch of images addressed by origin (seed,
index, tag). Image i draws from the "aug" and "flipcrop" children of its
origin, the streams tagged tag + "/aug" and tag + "/flipcrop" (the bare
child name when tag is empty; only this module names them), in a fixed,
documented order, so runs are reproducible across processes, batch
boundaries and implementations:

    aug, gaussian        sigma = sigma_max * unit, then one normal per
                         element (row-major, channel-interleaved)
    aug, cutout          center x over [0, w - 1], then center y over
                         [0, h - 1] (integers)
    aug, patch_gaussian  effective patch size over [1, patch_size] (an
                         integer, only when sample_up_to), center x,
                         center y, sigma = sigma_max * unit, then the
                         full-image normal field
    flipcrop             flip decision (unit < 0.5 flips), then, when
                         pad > 0, crop offset x, then y (integers over
                         [0, 2 * pad])

It builds no stream per image: it derives the state arrays of the batch's
children, makes each draw for the whole batch in lockstep, and hands the
draws to kernels that run on the whole batch (rect_masks, gaussian_batch,
cutout_batch, _flip_and_crop_batch). flipcrop_draws makes the "flipcrop"
draws alone; run_pipeline is a batch of one.

Patch Gaussian's "aug" stream steps through the whole field, but only the
normals inside the patch are computed (rng.needed_normals) and written into
the batch as clip(x + sigma * z); pixels outside stay bit-identical.
run_pipeline_batch copies its input once, C-ordered, and never writes to it;
later kernels work in place, but Gaussian and Cutout build new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .rng import derive_states, lockstep_fields, needed_normals, next_ints, next_units

KINDS = ("none", "gaussian", "cutout", "patch_gaussian")
ORDERS = ("augment_then_flipcrop", "flipcrop_then_augment")


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
        if not 0 <= self.sigma_max < np.inf:  # also true for nan
            raise ValueError(f"sigma_max must be finite and >= 0, got {self.sigma_max!r}")
        if not isinstance(self.patch_size, Integral) or self.patch_size < 1:
            raise ValueError(f"patch_size must be an integer >= 1, got {self.patch_size!r}")
        if not isinstance(self.pad, Integral) or self.pad < 0:
            raise ValueError(f"pad must be an integer >= 0, got {self.pad!r}")


def rect_masks(cx, cy, h: int, w: int, patch) -> np.ndarray:
    """(n, h, w) masks of the squares of side patch centered at (cx[i],
    cy[i]), clipped to the image; patch is an int or one size per image.

    Each axis spans [center - floor(patch/2), center + ceil(patch/2)). The
    unclipped square always contains the center, so a mask is never empty
    when the center lies inside the image.
    """
    lo = np.asarray(patch) // 2
    hi = patch - lo
    rows = np.arange(h) - np.asarray(cy)[:, None]
    cols = np.arange(w) - np.asarray(cx)[:, None]
    in_rows = (rows >= -lo[..., None]) & (rows < hi[..., None])
    in_cols = (cols >= -lo[..., None]) & (cols < hi[..., None])
    return in_rows[:, :, None] & in_cols[:, None, :]


def gaussian_batch(images: np.ndarray, sigma, noise: np.ndarray, out=None) -> np.ndarray:
    """clip(images[i] + sigma[i] * noise[i], 0, 1) for each image of an
    (n, h, w, c) batch, with one sigma per image. The result is written to
    out, which may be noise itself, or to a new array."""
    if noise.shape != images.shape:
        raise ValueError(f"shape mismatch: images {images.shape} vs noise {noise.shape}")
    noisy = np.multiply(np.asarray(sigma)[:, None, None, None], noise, out=out)
    noisy += images
    np.clip(noisy, 0.0, 1.0, out=noisy)
    return noisy


def cutout_batch(images: np.ndarray, masks: np.ndarray, fill) -> np.ndarray:
    """Constant per-channel fill inside each (n, h, w) mask, original outside."""
    if len(fill) != images.shape[-1]:
        raise ValueError(f"cutout requires a fill color per channel: got {len(fill)} for {images.shape[-1]}")
    return np.where(masks[..., None], np.asarray(fill, dtype=np.float64), images)


def mirror(images: np.ndarray) -> np.ndarray:
    """Horizontal flip of an (h, w, c) image or an (n, h, w, c) stack (a view)."""
    return images[..., ::-1, :]


def _child_tag(tag: str, child: str) -> str:
    """The tag of child stream child ("aug" or "flipcrop") of an origin tagged tag."""
    return f"{tag}/{child}" if tag else child


def flipcrop_draws(seed: int, indices, tag: str, pad: int = 0):
    """(flips, offsets): the "flipcrop" draws of origins (seed, indices[i],
    tag), the flip decisions as an (n,) bool array and, when pad > 0, the
    crop offsets (ox, oy) as two (n,) arrays over [0, 2 * pad], else None."""
    states = derive_states(seed, indices, _child_tag(tag, "flipcrop"))
    flips = next_units(states) < 0.5
    return flips, (next_ints(states, 0, 2 * pad), next_ints(states, 0, 2 * pad)) if pad else None


def flip_only(spec: AugmentSpec) -> bool:
    """Whether run_pipeline can only mirror an image: no noise op, no crop."""
    return spec.kind == "none" and spec.pad == 0


def run_pipeline(img: np.ndarray, spec: AugmentSpec, seed: int, index: int, tag: str) -> np.ndarray:
    """Augmentation plus flip/crop of one (h, w, c) image at origin
    (seed, index, tag): run_pipeline_batch on a batch of one."""
    return run_pipeline_batch(img[None], spec, seed, [index], tag)[0]


def _augment_batch(images: np.ndarray, spec: AugmentSpec, states) -> np.ndarray:
    """The spec's augmentation of a batch whose "aug" draws come from the
    columns of states; all prefix draws precede the lockstep noise fields.
    None and Patch Gaussian work in place on images and return it."""
    _, h, w, c = images.shape
    if spec.kind == "none":
        return images
    if spec.kind == "gaussian":
        sigma = spec.sigma_max * next_units(states)
        noise = lockstep_fields(states, (h, w, c))
        return gaussian_batch(images, sigma, noise, out=noise)
    patch = spec.patch_size
    if spec.kind == "patch_gaussian" and spec.sample_up_to:
        # Inclusive upper end: the configured size is the maximum.
        patch = next_ints(states, 1, spec.patch_size)
    cx = next_ints(states, 0, w - 1)
    cy = next_ints(states, 0, h - 1)
    masks = rect_masks(cx, cy, h, w, patch)
    if spec.kind == "cutout":
        return cutout_batch(images, masks, spec.fill)
    sigma = spec.sigma_max * next_units(states)
    flat = images.reshape(-1)
    for cols, entries, z in needed_normals(states, (h, w, c), masks[..., None]):
        flat[entries] = np.clip(flat[entries] + sigma[cols] * z, 0.0, 1.0)
    return images


def _flip_and_crop_batch(images: np.ndarray, flips: np.ndarray, pad: int, offsets) -> np.ndarray:
    """Mirror the images whose flips entry is set, in place at pad 0;
    otherwise zero-pad by pad and crop back to size at the drawn (ox, oy)
    offsets, each an (n,) array, mirroring in the same gather into a new array.

    An offset pair is the translation of the content measured from its most
    up-left position: with offsets (0, 0) the content sits flush with the
    top-left of the window and the zero border shows at the right and
    bottom; offsets (2*pad, 2*pad) push it fully down-right.
    """
    n, h, w, c = images.shape
    if pad == 0:
        images[flips] = mirror(images[flips])
        return images
    ox, oy = offsets
    rows = (pad - oy)[:, None] + np.arange(h)  # source pixel of each window pixel
    cols = (pad - ox)[:, None] + np.arange(w)
    inside = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
    cols = np.where(flips[:, None], w - 1 - cols, cols)
    out = images[np.arange(n)[:, None, None], rows.clip(0, h - 1)[:, :, None], cols.clip(0, w - 1)[:, None, :]]
    out[~inside] = 0.0
    return out


def run_pipeline_batch(images, spec: AugmentSpec, seed: int, indices, tag: str) -> np.ndarray:
    """Augmentation plus flip/crop of a non-empty batch of equally shaped
    images in the configured order; image i draws from the children of
    origin (seed, indices[i], tag) as the module table lists, so indices
    holds one entry per image.

    The "aug" and "flipcrop" children are independent, so every draw can be
    made before any kernel runs, and the order only changes the
    composition, not the randomness. The kernels are elementwise and the
    flip and crop are gathers, so a batch's entries do not depend on each
    other.
    """
    images = np.array(images, dtype=np.float64, order="C")  # the one copy; the kernels write through its flat view
    if len(indices) != len(images):
        raise ValueError(f"{len(indices)} indices for {len(images)} images")
    aug = derive_states(seed, indices, _child_tag(tag, "aug"))
    flips, offsets = flipcrop_draws(seed, indices, tag, spec.pad)
    if spec.order == "flipcrop_then_augment":
        return _augment_batch(_flip_and_crop_batch(images, flips, spec.pad, offsets), spec, aug)
    return _flip_and_crop_batch(_augment_batch(images, spec, aug), flips, spec.pad, offsets)
