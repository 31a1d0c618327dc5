"""Desk-scale classifier: frozen random 3x3 convolution features, average
pooling on a coarse grid, and a trained linear softmax head.

Only the head is trained, which keeps the gradient a single matrix while
still exposing a genuine first convolution layer for frequency-sensitivity
probes.  Everything downstream needs just the duck-typed classifier
surface: predict(images) -> labels and first_layer(images) -> activations,
both computed per chunk of images and pooling row band in reused buffers.

Also provides a synthetic dataset whose class identity is carried purely by
frequency content (low-frequency gratings vs high-frequency gratings), and
a small binary checkpoint format.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .augment import AugmentSpec, draw_flips, flip_only, mirror, run_pipeline_batch
from .images import LabeledDataset
from .rng import (child_tag_of, derive_states, derive_stream, lockstep_fields, lockstep_groups, next_ints, next_units,
                  permutations)

TOYM_MAGIC = b"TOYM"
_TOYM_VERSION = 1
_HEADER = struct.Struct("<IIIII")  # version, filters, channels, grid, classes

SYNTH_KINDS = ("low_freq_vs_high_freq",)
SYNTH_SIZE = 32
GRATING_AMPLITUDE = 0.4
BACKGROUND_SIGMA = 0.05

# Frequency lattice points for the synthetic classes.  Low magnitudes are
# <= 2 (period >= 16 px on a 32 px axis), high magnitudes sit in [8, 10]
# (period <= 4 px), so a radius-6 band split separates the classes cleanly.
LOW_FREQS = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 0))
HIGH_FREQS = ((0, 8), (8, 0), (6, 6), (8, 4), (4, 8), (10, 0), (0, 10), (6, 8), (8, 6))
# Both tables in one array: HIGH_FREQS[k] is _FREQS[len(LOW_FREQS) + k].
_FREQS = np.array(LOW_FREQS + HIGH_FREQS)

# Images per chunk of _conv_cells: its taps, their index and one band's activations
# (1.97 MB for 8 32x32 images, a 4x4 grid and 48 filters) fit a core's 2 MiB L2 on a
# 2-vCPU Xeon, where 8 ran fastest of 4, 8, 16 and 32 at one BLAS thread.
FEATURE_CHUNK = 8


@dataclass
class ToyModel:
    """Frozen conv filters (k, 3, 3, c), pooled on a pool_grid x pool_grid
    grid, with an affine head of shape (k * pool_grid**2 + 1, classes).

    The trailing head row is the bias.  Filters are read-only once the
    model exists; training replaces only the head.
    """

    filters: np.ndarray
    head: np.ndarray
    pool_grid: int

    def __post_init__(self):
        f = np.array(self.filters, dtype=np.float64)
        h = np.array(self.head, dtype=np.float64)
        if f.ndim != 4 or f.shape[1:3] != (3, 3):
            raise ValueError("filters must be shaped (k, 3, 3, c)")
        if f.shape[0] < 1 or f.shape[3] < 1 or self.pool_grid < 1:
            raise ValueError("bad dimensions")
        rows = f.shape[0] * self.pool_grid ** 2 + 1
        if h.ndim != 2 or h.shape[0] != rows or h.shape[1] < 1:
            raise ValueError(f"head must be shaped ({rows}, classes)")
        if not np.isfinite(f).all() or not np.isfinite(h).all():
            raise ValueError("non-finite values")
        f.setflags(write=False)
        self.filters = f
        self.head = h

    @property
    def channels(self) -> int:
        return self.filters.shape[3]

    @property
    def classes(self) -> int:
        return self.head.shape[1]

    def predict(self, images) -> np.ndarray:
        return predict(self, images)

    def first_layer(self, images) -> np.ndarray:
        return first_layer(self, images)


@dataclass(frozen=True)
class TrainConfig:
    """Head-training hyperparameters plus the per-example augmentation.

    A zero learning rate is allowed and performs no updates; negative
    rates are rejected.
    """

    epochs: int = 1
    learning_rate: float = 0.1
    batch_size: int = 16
    seed: int = 0
    augment: AugmentSpec = AugmentSpec()

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.learning_rate >= 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning rate must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


def init_toy_model(seed: int, k: int, c: int, g: int, classes: int) -> ToyModel:
    """Model with k seeded normal filters at scale 1/sqrt(9c) and a zero
    head.  Filters come from the (seed, 0, "filters") stream in row-major
    (k, 3, 3, c) order, so equal seeds give bit-equal models."""
    if min(k, c, g, classes) < 1:
        raise ValueError("bad dimensions")
    stream = derive_stream(seed, 0, "filters")
    scale = 1.0 / math.sqrt(9.0 * c)
    filters = (stream.normal_array(k * 9 * c) * scale).reshape(k, 3, 3, c)
    return ToyModel(filters=filters, head=np.zeros((k * g * g + 1, classes)), pool_grid=g)


def _conv_cells(m: ToyModel, images):
    """Same-size 3x3 correlation with clamp-to-edge padding, then ReLU, per
    chunk of FEATURE_CHUNK images and pooling row band.  Yields (chunk, band,
    cell, rows, cols, acts) per pooling cell, acts a (rows, cols, images, k)
    view of a buffer the next band overwrites.  A band is one GEMM on taps
    gathered once per chunk, rows running (row, column, cell, image), at the
    size of the last and largest band and cell; a short chunk's spare slots
    repeat its last pixel.  With two or more filters a GEMM row depends only
    on its own taps, so the extra rows change no bit.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[3] != m.channels:
        raise ValueError("shape mismatch")
    n, h, w, c = images.shape
    k, g = len(m.filters), m.pool_grid
    if g > h or g > w:
        raise ValueError("pool grid exceeds image size")
    ys, xs = ([size * t // g for t in range(g + 1)] for size in (h, w))
    tall, wide = ys[-1] - ys[-2], xs[-1] - xs[-2]
    tile = min(n, FEATURE_CHUNK)
    # flat pixel of tap (dy, dx) at each (band, row, column, cell, image), clamped to the edge
    y = np.clip(np.add.outer(np.add.outer(ys[:-1], np.arange(tall)), np.arange(-1, 2)), 0, h - 1)
    x = np.clip(np.add.outer(np.add.outer(np.arange(wide), xs[:-1]), np.arange(-1, 2)), 0, w - 1)
    index = y[:, :, None, None, None, :, None] * w + x[:, :, None, None, :] + h * w * np.arange(tile)[:, None, None]
    taps = np.empty(index.shape + (c,))
    acts = np.empty((tall, wide, g, tile, k))
    for start in range(0, n, FEATURE_CHUNK):
        chunk = slice(start, start + FEATURE_CHUNK)
        size = min(tile, n - start)
        np.take(images[chunk].reshape(-1, c), index, axis=0, out=taps, mode="clip")
        for band in range(g):
            out = np.matmul(taps[band].reshape(-1, 9 * c), m.filters.reshape(k, 9 * c).T, out=acts.reshape(-1, k))
            np.maximum(out, 0.0, out=out)
            for cell in range(g):
                rows, cols = slice(ys[band], ys[band + 1]), slice(xs[cell], xs[cell + 1])
                yield chunk, band, cell, rows, cols, acts[:rows.stop - rows.start, :cols.stop - cols.start, cell, :size]


def _features(m: ToyModel, images) -> np.ndarray:
    """Pooled activations plus a trailing bias column of ones, one row per
    image, flattened as (row band, col band, filter)."""
    feats = np.ones((len(images), m.head.shape[0]))
    cells = feats[:, :-1].reshape(len(feats), m.pool_grid, m.pool_grid, len(m.filters))
    for chunk, band, cell, _, _, acts in _conv_cells(m, images):
        cells[chunk, band, cell] = acts.mean(axis=(0, 1))
    return feats


def predict(m: ToyModel, images) -> np.ndarray:
    """Argmax labels; ties break toward the lowest class index."""
    z = _features(m, images) @ m.head
    return np.argmax(z, axis=1).astype(np.int64)


def first_layer(m: ToyModel, images) -> np.ndarray:
    out = np.empty(np.shape(images)[:3] + (len(m.filters),))
    for chunk, _, _, rows, cols, acts in _conv_cells(m, images):
        out[chunk, rows, cols] = acts.transpose(2, 0, 1, 3)
    return out


def evaluate(m: ToyModel, d: LabeledDataset) -> float:
    return float(np.count_nonzero(predict(m, d.images) == d.labels) / len(d))


def _softmax(z: np.ndarray) -> np.ndarray:
    # max subtraction keeps exp in range for any finite logits
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _check_labels(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError("label out of range")
    return labels


def cross_entropy(m: ToyModel, images, labels) -> float:
    """Mean softmax cross-entropy of the batch."""
    labels = _check_labels(labels, m.classes)
    p = _softmax(_features(m, images) @ m.head)
    return float(-np.mean(np.log(p[np.arange(len(labels)), labels])))


def _ce_gradient(feats: np.ndarray, head: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = _softmax(feats @ head)
    p[np.arange(len(labels)), labels] -= 1.0
    return feats.T @ p / len(labels)


def head_gradient(m: ToyModel, images, labels) -> np.ndarray:
    """d(mean cross-entropy)/d(head) for the batch."""
    labels = _check_labels(labels, m.classes)
    return _ce_gradient(_features(m, images), m.head, labels)


def train(m: ToyModel, d: LabeledDataset, cfg: TrainConfig) -> ToyModel:
    """Mini-batch SGD on the head; filters stay frozen.

    Each epoch visits a fresh Fisher-Yates permutation drawn from the
    (seed, epoch, "shuffle") stream; the shuffles of a lockstep group of
    epochs are drawn together.  Every example is pushed through the
    augmentation pipeline with its own (seed, dataset index, "ep<epoch>")
    stream before its features are computed, so augmentation draws depend
    only on the example and epoch, never on batch composition.  The permuted
    order is augmented in groups of whole batches (lockstep_groups), whose
    noise fields are drawn together; each batch then convolves its own
    images from the group and takes its step, so no features array spans
    the group.

    Under a flip_only pipeline (kind "none", pad 0) every example is either
    itself or its mirror, so the features of both variants are computed once
    and each batch reads its rows from that cache of
    2 * n * (k * pool_grid**2 + 1) * 8 bytes, by the flip decision, the first
    draw of each example's "ep<epoch>/flipcrop" stream. Both give the same
    rows bit for bit.
    """
    n = len(d)
    if n == 0:
        raise ValueError("empty dataset")
    labels = _check_labels(d.labels, m.classes)
    head = m.head.copy()
    cache = None
    if flip_only(cfg.augment):
        cache = np.stack([_features(m, d.images), _features(m, mirror(d.images))])
    shuffles = (order for epochs in lockstep_groups(cfg.epochs)
                for order in permutations(derive_states(cfg.seed, epochs, "shuffle"), n))
    for epoch, order in enumerate(shuffles):
        tag = f"ep{epoch}"
        if cache is not None:
            flips = draw_flips(derive_states(cfg.seed, order, child_tag_of(tag, "flipcrop"))).astype(np.intp)
        for group in lockstep_groups(n, cfg.batch_size):
            idx = order[group.start:group.stop]
            if cache is None:
                images = run_pipeline_batch(d.images[idx], cfg.augment, cfg.seed, idx, tag)
            for b in (slice(start, start + cfg.batch_size) for start in range(0, len(idx), cfg.batch_size)):
                feats = _features(m, images[b]) if cache is None else cache[flips[group.start:][b], idx[b]]
                head -= cfg.learning_rate * _ce_gradient(feats, head, labels[idx[b]])
            images = None  # freed before the next group is augmented, which lowers peak memory
    return ToyModel(filters=m.filters, head=head, pool_grid=m.pool_grid)


def synth_dataset(seed: int, n: int, kind: str = "low_freq_vs_high_freq") -> LabeledDataset:
    """n 32x32 grayscale gratings, label i % 2; class 0 draws a low lattice
    frequency, class 1 a high one.  Per example the (seed, i, "synth")
    stream yields the frequency choice, a uniform phase, and the background
    noise field, in that order."""
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    if n < 2:
        raise ValueError("need at least 2 examples")
    size = SYNTH_SIZE
    axis = np.arange(size)
    images = np.empty((n, size, size, 1))
    labels = np.arange(n, dtype=np.int64) % 2
    for group in lockstep_groups(n):
        rows = slice(group.start, group.stop)
        states = derive_states(seed, group, "synth")
        high = labels[rows] == 1
        choice = next_ints(states, 0, np.where(high, len(HIGH_FREQS), len(LOW_FREQS)) - 1)
        fi, fj = _FREQS[np.where(high, len(LOW_FREQS), 0) + choice].T[:, :, None, None, None]
        phase = 2.0 * np.pi * next_units(states)
        noise = lockstep_fields(states, (size, size, 1))
        # 0.5 + amplitude * cos(2 pi (fi y + fj x) / size + phase) + sigma * noise, clipped, in place
        out = np.add(fi * axis[:, None, None], fj * axis[:, None], out=images[rows])
        out *= 2.0 * np.pi
        out /= size
        out += phase[:, None, None, None]
        np.cos(out, out=out)
        out *= GRATING_AMPLITUDE
        out += 0.5
        noise *= BACKGROUND_SIGMA
        out += noise
        np.clip(out, 0.0, 1.0, out=out)
    return LabeledDataset(images, labels)


def encode_model(m: ToyModel) -> bytes:
    """TOYM container: magic, dims header, filter block, head block."""
    k, _, _, c = m.filters.shape
    header = TOYM_MAGIC + _HEADER.pack(_TOYM_VERSION, k, c, m.pool_grid, m.classes)
    return header + m.filters.astype("<f8").tobytes() + m.head.astype("<f8").tobytes()


def decode_model(data: bytes) -> ToyModel:
    if len(data) < 4 + _HEADER.size:
        raise ValueError("truncated payload")
    if data[:4] != TOYM_MAGIC:
        raise ValueError("bad magic")
    version, k, c, g, classes = _HEADER.unpack_from(data, 4)
    if version != _TOYM_VERSION:
        raise ValueError(f"unsupported version: {version}")
    if min(k, c, g, classes) < 1:
        raise ValueError("bad dimensions")
    n_filter = k * 9 * c
    n_head = (k * g * g + 1) * classes
    expect = 4 + _HEADER.size + 8 * (n_filter + n_head)
    if len(data) != expect:
        raise ValueError(f"length mismatch: expected {expect} bytes, got {len(data)}")
    offset = 4 + _HEADER.size
    filters = np.frombuffer(data, dtype="<f8", count=n_filter, offset=offset)
    head = np.frombuffer(data, dtype="<f8", count=n_head, offset=offset + 8 * n_filter)
    if not np.isfinite(filters).all() or not np.isfinite(head).all():
        raise ValueError("non-finite values")
    return ToyModel(
        filters=filters.reshape(k, 3, 3, c),
        head=head.reshape(k * g * g + 1, classes),
        pool_grid=g,
    )
