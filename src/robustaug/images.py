"""Image tensors, datasets, and the toolkit's file formats.

An image is a float64 numpy array of shape (H, W, C) with C of 1 or 3 and
intensities in [0, 1]. Computation happens at double precision; the IMGT
container stores 32-bit floats, so every reader in this module produces
values that are exactly representable at single precision and round-trip
through encode/decode without loss.

Formats:

    CIFAR batch   records of 3073 bytes: one label byte, then 3 channel
                  planes of 32x32 bytes (channel-major)
    IMGT          magic "IMGT", three uint32 little-endian dims (H, W, C),
                  then H*W*C float32 little-endian values, row-major and
                  channel-interleaved
    PPM           binary P6 with maxval 255; intensities quantize by
                  round-half-up
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IMGT_MAGIC = b"IMGT"

# Guards 32-bit element counts; anything this large is a corrupt header.
_MAX_ELEMENTS = 2**31


@dataclass
class LabeledDataset:
    """Uniformly shaped images (N, H, W, C), N >= 1, with aligned integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"shape mismatch: images must be (N,H,W,C), got {self.images.shape}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.images):
            raise ValueError(f"shape mismatch: {len(self.images)} images vs {self.labels.shape} labels")
        if len(self.images) == 0:
            raise ValueError("empty dataset")

    def __len__(self) -> int:
        return len(self.images)


def channel_mean(d: LabeledDataset) -> np.ndarray:
    """Per-channel mean intensity over the whole dataset, shape (C,)."""
    return d.images.mean(axis=(0, 1, 2))


def read_cifar10_batch(data: bytes) -> LabeledDataset:
    """Parse a raw CIFAR-10 binary batch into unit-range float images."""
    if len(data) % 3073 != 0:
        raise ValueError(f"malformed batch: {len(data)} bytes is not a multiple of 3073")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3073)
    labels = raw[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        raise ValueError(f"label out of range: {labels.max()}")
    planes = raw[:, 1:].reshape(-1, 3, 32, 32)
    # Divide at single precision so the values survive an IMGT round trip.
    images = planes.transpose(0, 2, 3, 1).astype(np.float32) / np.float32(255)
    return LabeledDataset(images.astype(np.float64), labels)


def check_encodable(t: np.ndarray) -> None:
    """The checks of an (H,W,C) image that encode_tensor and decode_tensor share, on t or on each image of a stack t."""
    h, w, c = t.shape[-3:]
    if h < 1 or w < 1 or c not in (1, 3):
        raise ValueError(f"bad dimensions: {t.shape[-3:]}")
    f32 = float(np.finfo(np.float32).max)  # beyond it float32 stores inf; NaN fails every comparison
    if not -f32 <= t.min(initial=0.0) <= t.max(initial=0.0) <= f32:
        raise ValueError("non-finite values as float32")


def encode_tensor(t: np.ndarray) -> bytes:
    """Serialize one image to IMGT bytes (values stored as float32)."""
    if t.ndim != 3:
        raise ValueError(f"shape mismatch: expected (H,W,C), got {t.shape}")
    check_encodable(t)
    header = IMGT_MAGIC + struct.pack("<III", *t.shape)
    return header + np.ascontiguousarray(t, dtype="<f4").tobytes()


def decode_tensor(data: bytes) -> np.ndarray:
    """Parse IMGT bytes back into a float64 image that encode_tensor accepts."""
    if len(data) < 16:
        raise ValueError(f"truncated payload: {len(data)} bytes")
    if data[:4] != IMGT_MAGIC:
        raise ValueError(f"bad magic: {data[:4]!r}")
    h, w, c = struct.unpack("<III", data[4:16])
    if h * w * c > _MAX_ELEMENTS:
        raise ValueError(f"dim product overflow: {h}x{w}x{c}")
    expected = 4 * h * w * c
    if len(data) - 16 != expected:
        raise ValueError(f"length mismatch: payload {len(data) - 16} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<f4", offset=16)
    t = values.astype(np.float64).reshape(h, w, c)
    check_encodable(t)
    return t


def write_ppm(t: np.ndarray) -> bytes:
    """Render a 3-channel image as binary PPM (P6, maxval 255)."""
    if t.ndim != 3 or t.shape[2] != 3:
        raise ValueError(f"shape mismatch: PPM needs (H,W,3), got {t.shape}")
    h, w, _ = t.shape
    quantized = np.floor(t * 255.0 + 0.5).astype(np.uint8)
    return f"P6\n{w} {h}\n255\n".encode("ascii") + quantized.tobytes()
