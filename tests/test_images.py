"""Tensor conventions and file format round trips."""

import math
import struct
from pathlib import Path

import numpy as np
import pytest

import robustaug.images
from robustaug.images import (
    IMGT_MAGIC,
    LabeledDataset,
    channel_mean,
    decode_tensor,
    encode_tensor,
    read_cifar10_batch,
    write_ppm,
)


def f32_grid(rng, shape):
    """Random values that are exactly representable at single precision."""
    return rng.random(shape).astype(np.float32).astype(np.float64)


def test_channel_mean_hand_value():
    images = np.stack([np.zeros((1, 1, 3)), np.ones((1, 1, 3))])
    d = LabeledDataset(images, np.array([0, 1]))
    assert np.array_equal(channel_mean(d), np.array([0.5, 0.5, 0.5]))


def test_channel_mean_matches_double_loop():
    rng = np.random.default_rng(1)
    images = rng.random((10, 32, 32, 3))
    d = LabeledDataset(images, np.zeros(10, dtype=int))
    got = channel_mean(d)
    for c in range(3):
        acc = math.fsum(
            images[n, y, x, c]
            for n in range(10)
            for y in range(32)
            for x in range(32)
        )
        assert abs(got[c] - acc / (10 * 32 * 32)) < 1e-12


def test_channel_mean_empty_dataset():
    # LabeledDataset refuses 0 images, so an empty dataset never reaches channel_mean
    with pytest.raises(ValueError, match="empty dataset"):
        channel_mean(LabeledDataset(np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=int)))


def test_dataset_is_never_empty():
    with pytest.raises(ValueError, match="empty dataset"):
        LabeledDataset(np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty dataset"):
        read_cifar10_batch(b"")


def test_only_the_dataset_and_the_directory_loader_check_for_no_images():
    """LabeledDataset refuses 0 images, so no function that takes one checks
    again; load_dataset's directory branch checks before it allocates."""
    package = Path(robustaug.images.__file__).parent
    counts = {path.name: path.read_text().count("empty dataset") for path in package.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"cli.py": 1, "images.py": 1}


def test_dataset_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        LabeledDataset(np.zeros((2, 4, 4, 1)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="shape mismatch"):
        LabeledDataset(np.zeros((2, 4, 4)), np.zeros(2, dtype=int))


def make_cifar_record(label, r0=0, g0=0, b0=0):
    rec = bytearray(3073)
    rec[0] = label
    rec[1] = r0
    rec[1 + 1024] = g0
    rec[1 + 2048] = b0
    return bytes(rec)


def test_cifar_layout_and_values():
    data = make_cifar_record(7, r0=10, g0=20, b0=30) + make_cifar_record(3)
    d = read_cifar10_batch(data)
    assert len(d) == 2
    assert d.images.shape == (2, 32, 32, 3)
    assert list(d.labels) == [7, 3]
    expected = [np.float32(v) / np.float32(255) for v in (10, 20, 30)]
    assert list(d.images[0, 0, 0]) == expected
    assert np.all(d.images[1] == 0.0)
    assert d.images.min() >= 0.0 and d.images.max() <= 1.0


def test_cifar_malformed_batch():
    with pytest.raises(ValueError, match="malformed batch"):
        read_cifar10_batch(b"\x00" * 3072)


def test_cifar_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        read_cifar10_batch(make_cifar_record(10))


def test_imgt_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    t = f32_grid(rng, (8, 8, 3))
    back = decode_tensor(encode_tensor(t))
    assert back.dtype == np.float64
    assert np.array_equal(back, t)
    # And the byte stream itself is stable.
    assert encode_tensor(back) == encode_tensor(t)


def test_imgt_header_layout():
    t = np.array([[[0.5]]])
    blob = encode_tensor(t)
    assert blob[:4] == IMGT_MAGIC
    assert struct.unpack("<III", blob[4:16]) == (1, 1, 1)
    assert np.frombuffer(blob, dtype="<f4", offset=16)[0] == np.float32(0.5)


def test_imgt_decode_errors_are_distinct():
    good = encode_tensor(np.full((2, 2, 3), 0.25))
    with pytest.raises(ValueError, match="bad magic"):
        decode_tensor(b"JUNK" + good[4:])
    with pytest.raises(ValueError, match="truncated payload"):
        decode_tensor(good[:10])
    with pytest.raises(ValueError, match="length mismatch"):
        decode_tensor(good[:16] + good[16 : 16 + 4 * 10])
    huge = IMGT_MAGIC + struct.pack("<III", 1_300_000, 1_300_000, 3)
    with pytest.raises(ValueError, match="dim product overflow"):
        decode_tensor(huge)
    bad_c = IMGT_MAGIC + struct.pack("<III", 1, 1, 2) + b"\x00" * 8
    with pytest.raises(ValueError, match="bad dimensions"):
        decode_tensor(bad_c)
    nan = IMGT_MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<f", float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        decode_tensor(nan)


def test_imgt_encode_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        encode_tensor(np.full((1, 1, 1), np.inf))
    with pytest.raises(ValueError, match=r"shape mismatch: expected \(H,W,C\), got \(2, 1, 1, 1\)"):
        encode_tensor(np.zeros((2, 1, 1, 1)))


def test_ppm_white_pixel():
    blob = write_ppm(np.ones((1, 1, 3)))
    assert blob == b"P6\n1 1\n255\n\xff\xff\xff"


def test_ppm_rounds_half_up():
    assert write_ppm(np.full((1, 1, 3), 0.5))[-3:] == bytes([128, 128, 128])
    assert write_ppm(np.full((1, 1, 3), 0.3))[-3:] == bytes([77, 77, 77])  # 76.5 rounds up
    assert write_ppm(np.zeros((1, 1, 3)))[-3:] == bytes([0, 0, 0])


def test_ppm_row_major_layout():
    t = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])  # one row: red, green
    blob = write_ppm(t)
    assert blob == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])


def test_ppm_needs_three_channels():
    with pytest.raises(ValueError, match="shape mismatch"):
        write_ppm(np.zeros((2, 2, 1)))
