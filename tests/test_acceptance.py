"""Acceptance suite: one test per shipped guarantee.

Each test prints a `criterion N (...): PASS|FAIL` line (visible under
`pytest -s`) and then asserts, so a plain `pytest` run gates on all ten.
The training setup for the direction-of-effect checks (seeds, model width,
optimizer settings, augmentation magnitudes) was frozen from oracle
calibration runs; see the repository notes for the recorded margins.
"""

import time

import numpy as np
import pytest

from robustaug.augment import (
    AugmentSpec,
    PatchRect,
    apply_cutout,
    apply_gaussian_kernel,
    apply_patch_gaussian,
    patch_gaussian_kernel,
    rect_from_center,
    sample_patch_bounds,
)
from robustaug.corrupt import SIGMA_SUITE, gaussian_eval_suite
from robustaug.fourier import (
    dft2,
    fourier_basis,
    half_plane_frequencies,
    high_pass,
    idft2,
    perturb_with_basis,
)
from robustaug.images import LabeledDataset
from robustaug.metrics import (
    Candidate,
    EvalResult,
    corruption_error,
    mce,
    relative_gaussian_robustness,
    select_hparams,
)
from robustaug.model import (
    ToyModel,
    TrainConfig,
    cross_entropy,
    evaluate,
    head_gradient,
    init_toy_model,
    synth_dataset,
    train,
)
from robustaug.rng import derive_stream
from robustaug.cli import main as cli_main


def _report(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


def _mean(xs):
    return sum(xs) / len(xs)


# --- noise-patch behavior ---------------------------------------------------


def test_whole_image_limit_matches_gaussian():
    """A patch at least twice the image side degenerates to whole-image noise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        img = rng.random((32, 32, 3))
        noise = rng.standard_normal((32, 32, 3))
        sigma = rng.random() * 2.0
        cx, cy = int(rng.integers(0, 32)), int(rng.integers(0, 32))
        rect = rect_from_center(cx, cy, 32, 32, 64)
        patched = patch_gaussian_kernel(img, rect, sigma, noise)
        whole = apply_gaussian_kernel(img, sigma, noise)
        ok = ok and patched.tobytes() == whole.tobytes()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "whole-image limit", ok, f"elapsed={elapsed:.2f}s")


def test_saturating_noise_approximates_cutout():
    """Extreme sigma drives covered pixels to the clip rails, half each way."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    full = PatchRect(start_x=0, start_y=0, end_x=32, end_y=32)
    vals = []
    for _ in range(100):
        img = rng.random((32, 32, 1))
        noise = rng.standard_normal((32, 32, 1))
        vals.append(patch_gaussian_kernel(img, full, 1e4, noise))
    vals = np.concatenate([v.ravel() for v in vals])
    total = vals.size
    # Pixels whose noise draw lands within ~1e-4 sigmas of zero stay strictly
    # inside (0, 1); that sliver shrinks with sigma but never fully closes.
    middle = int(np.count_nonzero((vals > 0.0) & (vals < 1.0)))
    ones = int(np.count_nonzero(vals == 1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        total >= 10**5
        and middle / total < 1e-3
        and abs(ones / total - 0.5) < 0.02
        and elapsed < 5.0
    )
    _report(2, "saturating-noise cutout limit", ok,
            f"middle={middle}/{total} ones={ones / total:.4f} elapsed={elapsed:.2f}s")


def test_noise_and_cutout_stay_inside_patch():
    """Pixels outside the drawn rectangle are bit-identical to the input."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    pool = rng.random((32, 16, 16, 1))
    ok = True
    for i in range(10**4):
        img = pool[i % 32]
        stream = derive_stream(777, i, "locality")
        replay = derive_stream(777, i, "locality")
        size = 1 + i % 16
        if i % 2 == 0:
            spec = AugmentSpec(kind="patch_gaussian", patch_size=size,
                               sigma_max=2.0, sample_up_to=(i // 2) % 2 == 0)
            out = apply_patch_gaussian(img, spec, stream)
            drawn = replay.next_int(1, size) if spec.sample_up_to else size
            rect = sample_patch_bounds(replay, 16, 16, drawn)
        else:
            spec = AugmentSpec(kind="cutout", patch_size=size, fill=(0.5,))
            out = apply_cutout(img, spec, stream)
            rect = sample_patch_bounds(replay, 16, 16, size)
        restored = out.copy()
        restored[rect.start_y:rect.end_y, rect.start_x:rect.end_x] = (
            img[rect.start_y:rect.end_y, rect.start_x:rect.end_x])
        ok = ok and restored.tobytes() == img.tobytes()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(3, "patch locality", ok, f"elapsed={elapsed:.2f}s")


# --- metrics ------------------------------------------------------------------


def test_error_normalization_arithmetic():
    kinds = ("gaussian_noise", "defocus_blur", "brightness")
    errs = {(k, s): 0.1 * s + i * 0.01 for i, k in enumerate(kinds) for s in range(1, 6)}
    self_ce = corruption_error(errs, errs)
    exact = mce(self_ce) == 1.0 and all(v == 1.0 for v in self_ce.values())

    model = {(k, s): v * 0.6 for (k, s), v in errs.items()}
    ce_a = corruption_error(model, errs)
    ce_b = corruption_error({k: 3.7 * v for k, v in model.items()},
                            {k: 3.7 * v for k, v in errs.items()})
    scale_ok = all(abs(ce_a[k] - ce_b[k]) < 1e-12 for k in ce_a)

    def result(clean, per_sigma):
        return EvalResult(clean_accuracy=clean,
                          per_sigma_accuracy=dict(zip(SIGMA_SUITE, per_sigma)))

    flat = relative_gaussian_robustness(result(0.9, [0.9] * 6))
    worse = relative_gaussian_robustness(
        result(0.96, [0.95, 0.93, 0.92, 0.90, 0.85, 0.85]))
    better = relative_gaussian_robustness(result(0.5, [0.51] * 6))
    hand_ok = (flat == 0.0
               and abs(worse - (-0.06)) < 1e-12
               and abs(better - 0.01) < 1e-12)

    _report(4, "metric exactness", exact and scale_ok and hand_ok)


def test_threshold_selection_with_fallback():
    def cand(label, clean, rob):
        per_sigma = {s: min(1.0, max(0.0, clean + rob)) for s in SIGMA_SUITE}
        return Candidate(label=label,
                         result=EvalResult(clean_accuracy=clean,
                                           per_sigma_accuracy=per_sigma))

    abc = [cand("A", 0.97, -0.02), cand("B", 0.98, -0.05), cand("C", 0.95, 0.01)]
    picked = select_hparams(abc, 0.965).label == "A"
    fallback = select_hparams(abc, 0.99).label == "B"
    mid = [cand("D", 0.77, -0.03), cand("E", 0.76, -0.01), cand("F", 0.70, 0.02)]
    at_760 = select_hparams(mid, 0.760).label == "E"
    hi = [cand("G", 0.80, -0.04), cand("H", 0.79, -0.02), cand("I", 0.78, 0.0)]
    at_785 = select_hparams(hi, 0.785).label == "H"
    _report(5, "selection rule", picked and fallback and at_760 and at_785)


# --- spectral tools -----------------------------------------------------------


def test_spectral_toolkit_guarantees():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    img = rng.random((32, 32))
    spec = dft2(img)
    parseval = abs(np.sum(img ** 2) - np.sum(np.abs(spec.coefficients) ** 2)) < 1e-9

    freqs = half_plane_frequencies(32, 32)
    basis_ok = True
    for fi, fj in freqs:
        basis = fourier_basis(32, 32, fi, fj)
        support = int(np.count_nonzero(np.abs(dft2(basis).coefficients) > 1e-8))
        basis_ok = basis_ok and abs(np.linalg.norm(basis) - 1.0) < 1e-9 and support <= 2

    norm_ok = True
    mid = np.full((32, 32, 3), 0.5)
    for v in (4.0, 15.7):
        basis = fourier_basis(32, 32, 5, -7)
        norm_ok = norm_ok and abs(np.linalg.norm(v * basis) - v) < 1e-9
    moved = perturb_with_basis(mid, fourier_basis(32, 32, 5, -7), 4.0,
                               derive_stream(1, 0, "accept"))
    for ch in range(3):
        norm_ok = norm_ok and abs(np.linalg.norm(moved[:, :, ch] - 0.5) - 4.0) < 1e-9

    color = rng.random((32, 32, 3))
    identity = high_pass(color, 0.0).tobytes() == color.tobytes()

    # Low-frequency-dominant image: its high-passed version stays inside
    # [0, 1], so the clip in high_pass is a no-op and linearity is visible.
    y = np.arange(32)[:, None, None]
    x = np.arange(32)[None, :, None]
    chan = np.arange(3)[None, None, :]
    color = (0.5 + 0.25 * np.cos(2 * np.pi * (2 * y + x) / 32 + chan)
             + 0.1 * np.cos(2 * np.pi * (10 * y + 7 * x) / 32)
             + 0.02 * rng.standard_normal((32, 32, 3)))
    radius = 3.5
    hp = high_pass(color, radius)
    low = np.empty_like(color)
    h, w = 32, 32
    yy = np.arange(h)[:, None] - h // 2
    xx = np.arange(w)[None, :] - w // 2
    keep_low = np.hypot(yy, xx) < radius
    for ch in range(3):
        s = dft2(color[:, :, ch])
        s.coefficients[~keep_low] = 0.0
        low[:, :, ch] = idft2(s)
    complement = float(np.max(np.abs(hp + low - 0.5 - color))) < 1e-9

    elapsed = time.perf_counter() - t0
    ok = parseval and basis_ok and norm_ok and identity and complement and elapsed < 10.0
    _report(6, "spectral toolkit", ok, f"elapsed={elapsed:.2f}s")


# --- training harness ---------------------------------------------------------


def test_head_gradient_against_finite_differences():
    ok = True
    for seed in (11, 22, 33):
        d = synth_dataset(seed, 6)
        m = init_toy_model(seed, 5, 1, 2, 2)
        base_head = m.head + np.sin(np.arange(m.head.size)).reshape(m.head.shape) * 0.1
        m = ToyModel(filters=m.filters, head=base_head, pool_grid=m.pool_grid)
        analytic = head_gradient(m, d.images, d.labels)
        numeric = np.empty_like(analytic)
        eps = 1e-6
        for idx in np.ndindex(*analytic.shape):
            for sign, slot in ((1.0, 0), (-1.0, 1)):
                head = base_head.copy()
                head[idx] += sign * eps
                shifted = ToyModel(filters=m.filters, head=head, pool_grid=m.pool_grid)
                if slot == 0:
                    up = cross_entropy(shifted, d.images, d.labels)
                else:
                    down = cross_entropy(shifted, d.images, d.labels)
            numeric[idx] = (up - down) / (2 * eps)
        rel = float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)))
        ok = ok and rel < 1e-5
    _report(7, "head gradient", ok)


ARM_SPECS = {
    "baseline": AugmentSpec(),
    "gaussian": AugmentSpec(kind="gaussian", sigma_max=1.0),
    "patch": AugmentSpec(kind="patch_gaussian", patch_size=32, sigma_max=2.5,
                         sample_up_to=True),
}
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def trained_arms():
    """Fifteen trained heads (three augmentation arms, five seeds) plus timing."""
    t0 = time.perf_counter()
    models = {}
    held_out = {}
    for seed in SEEDS:
        train_d = synth_dataset(seed, 400)
        held_out[seed] = synth_dataset(seed + 100, 400)
        for arm, spec in ARM_SPECS.items():
            cfg = TrainConfig(epochs=120, learning_rate=0.2, batch_size=16,
                              seed=seed, augment=spec)
            models[arm, seed] = train(init_toy_model(seed, 48, 1, 4, 2), train_d, cfg)
    return models, held_out, time.perf_counter() - t0


def test_augmentation_tradeoff_directions(trained_arms):
    """Whole-image noise buys robustness at a clean-accuracy price; patch noise
    buys a smaller robustness gain at essentially no clean price."""
    models, held_out, train_time = trained_arms
    t0 = time.perf_counter()
    clean = {arm: [] for arm in ARM_SPECS}
    noisy = {arm: [] for arm in ARM_SPECS}
    for seed in SEEDS:
        test_d = held_out[seed]
        at_half = dict(gaussian_eval_suite(test_d, 4242))[0.5]
        for arm in ARM_SPECS:
            clean[arm].append(evaluate(models[arm, seed], test_d))
            noisy[arm].append(evaluate(models[arm, seed], at_half))
    elapsed = train_time + (time.perf_counter() - t0)
    a = _mean(noisy["gaussian"]) > _mean(noisy["baseline"])
    b = _mean(clean["gaussian"]) < _mean(clean["baseline"])
    c = (_mean(noisy["patch"]) > _mean(noisy["baseline"])
         and _mean(clean["patch"]) >= _mean(clean["baseline"]) - 0.02)
    ok = a and b and c and elapsed < 300.0
    _report(8, "augmentation trade-offs", ok,
            f"a={a} b={b} c={c} elapsed={elapsed:.0f}s "
            f"noisy={{{', '.join(f'{k}:{_mean(v):.3f}' for k, v in noisy.items())}}} "
            f"clean={{{', '.join(f'{k}:{_mean(v):.3f}' for k, v in clean.items())}}}")


def test_high_frequency_information_use(trained_arms):
    """With only high-frequency content left (r=6 high-pass), whole-image-noise
    training falls furthest below the baseline model; patch training keeps the
    high-frequency class signal usable. Shortfall is measured against the
    baseline-trained model on the same filtered data."""
    models, held_out, _ = trained_arms
    t0 = time.perf_counter()
    hp_acc = {arm: [] for arm in ARM_SPECS}
    for seed in SEEDS:
        test_d = held_out[seed]
        hp_d = LabeledDataset(
            np.stack([high_pass(img, 6.0) for img in test_d.images]), test_d.labels)
        for arm in ARM_SPECS:
            hp_acc[arm].append(evaluate(models[arm, seed], hp_d))
    elapsed = time.perf_counter() - t0
    gaussian_shortfall = _mean(hp_acc["baseline"]) - _mean(hp_acc["gaussian"])
    patch_shortfall = _mean(hp_acc["baseline"]) - _mean(hp_acc["patch"])
    ok = gaussian_shortfall > patch_shortfall and elapsed < 120.0
    _report(9, "high-frequency information use", ok,
            f"gaussian_shortfall={gaussian_shortfall:.3f} "
            f"patch_shortfall={patch_shortfall:.3f} elapsed={elapsed:.0f}s")


# --- command line -------------------------------------------------------------


def test_cli_reruns_are_byte_identical(tmp_path):
    def run(*argv):
        return cli_main([str(a) for a in argv])

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    data = tmp_path / "data"
    ok = run("synth", "--output", data, "--seed", 5, "--count", 16) == 0

    augs = [tmp_path / f"aug{i}" for i in range(3)]
    base = ["augment", "--input", data, "--seed", 9, "--kind", "patch_gaussian",
            "--patch-size", 12, "--sigma-max", 1.0]
    ok = ok and run(*base, "--output", augs[0]) == 0
    ok = ok and run(*base, "--output", augs[1]) == 0
    ok = ok and run(*base, "--output", augs[2], "--workers", 4) == 0
    ok = ok and tree(augs[0]) == tree(augs[1]) == tree(augs[2])

    suites = [tmp_path / f"suite{i}" for i in range(3)]
    ok = ok and run("corrupt", "--input", data, "--suite", "--seed", 2,
                    "--output", suites[0]) == 0
    ok = ok and run("corrupt", "--input", data, "--suite", "--seed", 2,
                    "--output", suites[1]) == 0
    ok = ok and run("corrupt", "--input", data, "--suite", "--seed", 2,
                    "--output", suites[2], "--workers", 3) == 0
    ok = ok and tree(suites[0]) == tree(suites[1]) == tree(suites[2])

    ckpt = tmp_path / "model.toym"
    ok = ok and run("train", "--input", data, "--output", ckpt, "--seed", 1,
                    "--filters", 4, "--epochs", 2, "--batch-size", 8) == 0
    maps = [tmp_path / f"map{i}.csv" for i in range(3)]
    ppms = [tmp_path / f"map{i}.ppm" for i in range(3)]
    for i, workers in enumerate((1, 1, 4)):
        ok = ok and run("fourier", "--input", data, "--model", ckpt,
                        "--probe", "test_error", "--norm", 0.5, "--max-freq", 3,
                        "--seed", 11, "--workers", workers,
                        "--output", maps[i], "--ppm", ppms[i]) == 0
    ok = ok and maps[0].read_bytes() == maps[1].read_bytes() == maps[2].read_bytes()
    ok = ok and ppms[0].read_bytes() == ppms[1].read_bytes() == ppms[2].read_bytes()
    _report(10, "deterministic command line", ok)
