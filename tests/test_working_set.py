"""Whole-dataset steps hold their input, their output and one chunk.

tracemalloc sees numpy's array buffers, so each test reads the peak of
the bytes a call allocates on top of its input. Every bound sits between
the step's chunked working set and the whole-stack copies it replaces: a
step that builds an intermediate as large as its input or output (one
FFT of the whole stack, a list of decoded images passed to np.stack, a
feature matrix of every image) goes past it.
"""

import tracemalloc

import pytest

from robustaug.cli import load_dataset, write_dataset
from robustaug.corrupt import CorruptionSpec, corrupt
from robustaug.fourier import high_pass
from robustaug.model import init_toy_model, predict, synth_dataset

MB = 1e6


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_high_pass_holds_its_output_and_one_chunk():
    # One complex spectrum of 512 images is 4x their float64 bytes.
    images = synth_dataset(0, 512).images
    assert peak_bytes(lambda: high_pass(images, 6.0)) <= 2 * images.nbytes


def test_predict_holds_one_lockstep_group_of_features():
    # The criterion-8 model: 769 features per image, 6.3 MB for 1024 images
    # and 12.6 MB for these 2048; one 400-image group holds 2.5 MB.
    images = synth_dataset(1, 2048).images
    m = init_toy_model(0, k=48, c=1, g=4, classes=2)
    assert peak_bytes(lambda: predict(m, images)) <= 8 * MB


def test_load_dataset_decodes_into_one_array(tmp_path):
    d = synth_dataset(2, 512)
    write_dataset(d, tmp_path)
    assert peak_bytes(lambda: load_dataset(tmp_path)) <= 1.5 * d.images.nbytes


def test_write_dataset_encodes_one_file_at_a_time(tmp_path):
    # The encoded files of every image together are half the float64 bytes.
    d = synth_dataset(4, 1024)
    assert peak_bytes(lambda: write_dataset(d, tmp_path)) <= 0.25 * d.images.nbytes


@pytest.mark.parametrize("kind", ["brightness", "contrast", "defocus_blur", "pixelate"])
def test_corrupt_holds_its_output_and_one_lockstep_group(kind):
    # 1024 images make three groups; a whole-batch kind held two full copies.
    images = synth_dataset(3, 1024).images
    spec = CorruptionSpec(kind, severity=3)
    corrupt(images[:1], spec)  # imports scipy where the kind needs it, before the peak is read
    assert peak_bytes(lambda: corrupt(images, spec)) <= 1.6 * images.nbytes
