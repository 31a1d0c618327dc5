"""Forked parallel map: index order, failures, worker lifetime, the BLAS
pin, and training that gives the same checkpoint at every worker count."""

import io
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import robustaug.parallel as parallel
from robustaug.augment import AugmentSpec
from robustaug.model import TrainConfig, encode_model, init_toy_model, synth_dataset, train
from robustaug.parallel import indexed_map, openblas_functions


def square_plus_index(i):
    return i * i + i


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("n", (0, 1, 2, 7))
def test_results_come_back_in_index_order(n, workers):
    assert list(indexed_map(square_plus_index, n, workers)) == [square_plus_index(i) for i in range(n)]


def fail_at_three(i):
    if i == 3:
        raise ValueError(f"item {i} failed")
    return i


@pytest.mark.parametrize("workers", (1, 2))
def test_an_item_error_propagates_and_leaves_no_worker(workers):
    with pytest.raises(ValueError, match="item 3 failed"):
        list(indexed_map(fail_at_three, 8, workers))
    assert multiprocessing.active_children() == []


def test_at_most_two_items_per_worker_run_ahead_of_the_caller(tmp_path):
    def touch(i):
        (tmp_path / str(i)).touch()
        return i

    results = indexed_map(touch, 20, 2)
    assert next(results) == 0
    time.sleep(0.5)  # let every submitted item finish
    assert 1 <= len(list(tmp_path.iterdir())) <= 4
    results.close()
    assert multiprocessing.active_children() == []


def test_without_fork_items_run_here_and_a_warning_says_so(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    pid = os.getpid()
    with pytest.warns(RuntimeWarning, match="fork"):
        assert list(indexed_map(lambda i: (i, os.getpid()), 3, 2)) == [(i, pid) for i in range(3)]


def test_an_item_may_run_a_map_of_its_own():
    # each worker gets its item function at start-up, and the caller never holds one
    scale = 10

    def outer(i):
        return list(indexed_map(lambda j: scale * i + j, 3, 2))

    results = indexed_map(outer, 4, 2)
    assert next(results) == [0, 1, 2] and parallel._fn is None
    assert list(results) == [[10 * i + j for j in range(3)] for i in range(1, 4)]


def test_a_deleted_openblas_is_reached_by_its_file_name(monkeypatch):
    live = openblas_functions("get_num_threads")
    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:  # as if every file were replaced
        maps = "".join(line.rstrip("\n") + " (deleted)\n" for line in f)
    maps += "7f0000000000-7f0000001000 r-xp 00000000 fe:00 1  /gone/libopenblas.so (deleted)\n"
    monkeypatch.setattr(parallel, "open", lambda *_a, **_k: io.StringIO(maps), raising=False)
    assert len(openblas_functions("get_num_threads")) == len(live)


def test_each_worker_runs_one_blas_thread():
    # fork copies the parent's OpenBLAS thread count; the pool must set its own
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import numpy\n"
            "from robustaug.parallel import indexed_map, openblas_functions\n"
            "threads = lambda i: [get() for get in openblas_functions('get_num_threads')]\n"
            "print(threads(0), list(indexed_map(threads, 4, 2)))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[2]", "[[1],", "[1],", "[1],", "[1]]"]


ARMS = {
    "gaussian": (AugmentSpec(kind="gaussian", sigma_max=1.0), 3),
    "patch_pad0": (AugmentSpec(kind="patch_gaussian", sigma_max=2.5, patch_size=12, sample_up_to=True), 3),
    "patch_pad4_flipcrop_first": (AugmentSpec(kind="patch_gaussian", sigma_max=2.5, patch_size=8, pad=4,
                                              order="flipcrop_then_augment"), 3),
    "fewer_epochs_than_workers": (AugmentSpec(kind="patch_gaussian", sigma_max=1.0, patch_size=6), 2),
}


@pytest.mark.parametrize("arm", ARMS)
def test_train_checkpoint_is_the_same_at_every_worker_count(arm):
    spec, epochs = ARMS[arm]
    d = synth_dataset(7, 40)
    cfg = TrainConfig(epochs=epochs, learning_rate=0.2, batch_size=16, seed=7, augment=spec)
    m = init_toy_model(7, 6, 1, 4, 2)
    ckpts = [encode_model(train(m, d, cfg, workers)) for workers in (1, 2, 3)]
    assert ckpts[0] == ckpts[1] == ckpts[2]
    assert ckpts[0] != encode_model(m)
