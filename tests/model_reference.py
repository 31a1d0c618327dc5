"""Whole-chunk conv, ReLU and pooling: the reference for robustaug.model.

This is the feature layer as it was before the band kernel: each chunk of
16 images is edge-padded with np.pad, convolved as one GEMM over all its
pixels, rectified, and then pooled over the whole activation array, with a
separate per-cell loop for grids that do not divide the image. The GEMM's
rows are padded to whole 8-image blocks by repeating the last image, as the
band kernel pads its chunks, because some DGEMM kernels (OpenBLAS's
Haswell) give a row a value that depends on the row count. It shares no
code with robustaug.model, whose _features and first_layer the tests
require to be bit-equal to these functions.

This module never imports robustaug.
"""

import numpy as np

CHUNK = 16


def conv_relu(filters: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Same-size 3x3 correlation with clamp-to-edge padding, then ReLU, as
    one GEMM over the images padded to whole 8-image blocks."""
    n, h, w, c = images.shape
    blocks = np.concatenate([images, np.repeat(images[-1:], -n % 8, axis=0)])
    padded = np.pad(blocks, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="edge")
    taps = np.empty((len(blocks), h, w, 3, 3, c))
    for dy in range(3):
        for dx in range(3):
            taps[:, :, :, dy, dx, :] = padded[:, dy:dy + h, dx:dx + w, :]
    k = len(filters)
    acts = taps.reshape(-1, 9 * c) @ filters.reshape(k, 9 * c).T
    np.maximum(acts, 0.0, out=acts)
    return acts.reshape(-1, h, w, k)[:n]


def pool(acts: np.ndarray, g: int) -> np.ndarray:
    """Band means on a g x g grid, flattened as (row band, col band, filter)."""
    n, h, w, k = acts.shape
    if h % g == 0 and w % g == 0:
        out = acts.reshape(n, g, h // g, g, w // g, k).mean(axis=(2, 4))
        return out.reshape(n, g * g * k)
    ys = [h * t // g for t in range(g + 1)]
    xs = [w * t // g for t in range(g + 1)]
    out = np.empty((n, g, g, k))
    for gi in range(g):
        for gj in range(g):
            out[:, gi, gj, :] = acts[:, ys[gi]:ys[gi + 1], xs[gj]:xs[gj + 1], :].mean(axis=(1, 2))
    return out.reshape(n, g * g * k)


def features(filters: np.ndarray, g: int, images: np.ndarray) -> np.ndarray:
    """Pooled activations plus a trailing bias column of ones, one row per
    image, convolved CHUNK images at a time."""
    k = len(filters)
    feats = np.ones((len(images), k * g * g + 1))
    for start in range(0, len(images), CHUNK):
        chunk = slice(start, start + CHUNK)
        feats[chunk, :-1] = pool(conv_relu(filters, images[chunk]), g)
    return feats
