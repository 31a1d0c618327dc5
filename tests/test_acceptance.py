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
    draw_flips,
    gaussian_batch,
    mirror,
    rect_masks,
    run_pipeline_batch,
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
from robustaug.rng import derive_states, derive_stream, lockstep_fields, next_ints, next_units
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
    images = np.random.default_rng(101).random((100, 32, 32, 3))
    spec = AugmentSpec(kind="patch_gaussian", sigma_max=2.0, patch_size=64)
    patched = run_pipeline_batch(images, spec, 101, range(100), "limit")
    # Replay the "aug" draws (center x, center y, sigma, the field) and the flips.
    states = derive_states(101, range(100), "limit/aug")
    next_ints(states, 0, 31)
    next_ints(states, 0, 31)
    whole = gaussian_batch(images, 2.0 * next_units(states), lockstep_fields(states, (32, 32, 3)))
    flips = draw_flips(derive_states(101, range(100), "limit/flipcrop"))
    whole[flips] = mirror(whole[flips])
    elapsed = time.perf_counter() - t0
    ok = patched.tobytes() == whole.tobytes() and elapsed < 1.0
    _report(1, "whole-image limit", ok, f"elapsed={elapsed:.2f}s")


def test_saturating_noise_approximates_cutout():
    """Extreme sigma drives covered pixels to the clip rails, half each way."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    vals = []
    for _ in range(100):
        img = rng.random((32, 32, 1))
        noise = rng.standard_normal((32, 32, 1))
        vals.append(gaussian_batch(img[None], [1e4], noise[None]))
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
    # Case i draws from origin (777, i, "locality"), and its spec depends
    # on i % 16 only, so each of the 16 specs runs its cases as one batch.
    for first in range(16):
        indices = np.arange(first, 10**4, 16)
        images = pool[indices % 32]
        size = 1 + first
        if first % 2 == 0:
            spec = AugmentSpec(kind="patch_gaussian", patch_size=size,
                               sigma_max=2.0, sample_up_to=(first // 2) % 2 == 0)
        else:
            spec = AugmentSpec(kind="cutout", patch_size=size, fill=(0.5,))
        out = run_pipeline_batch(images, spec, 777, indices, "locality")
        # pad 0: undo the flip, then replay the rect from the "aug" draws.
        flips = draw_flips(derive_states(777, indices, "locality/flipcrop"))
        out = np.where(flips[:, None, None, None], mirror(out), out)
        replay = derive_states(777, indices, "locality/aug")
        drawn = next_ints(replay, 1, size) if spec.sample_up_to else size
        cx = next_ints(replay, 0, 15)
        cy = next_ints(replay, 0, 15)
        rect = rect_masks(cx, cy, 16, 16, drawn)
        restored = np.where(rect[..., None], images, out)
        ok = ok and restored.tobytes() == images.tobytes()
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

    # Unequal per-severity ratios, where a ratio of sums (Hendrycks &
    # Dietterich) and a mean of ratios disagree: CE 1/2 (mean of ratios
    # 0.53) and 1 (mean of ratios 1.37), so mCE 3/4 and 1 without noise.
    base = dict(zip([("gaussian_noise", s) for s in range(1, 6)], (0.2, 0.4, 0.5, 0.5, 0.4)))
    base.update(zip([("contrast", s) for s in range(1, 6)], (0.1, 0.2, 0.3, 0.4, 0.5)))
    unequal = dict(zip(base, (0.1, 0.1, 0.1, 0.1, 0.6) + (0.3,) * 5))
    ce_u = corruption_error(unequal, base)
    sums_ok = (abs(ce_u["gaussian_noise"] - 0.5) < 1e-12 and abs(ce_u["contrast"] - 1.0) < 1e-12
               and abs(mce(ce_u) - 0.75) < 1e-12 and abs(mce(ce_u, exclude_noise=True) - 1.0) < 1e-12)

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

    _report(4, "metric exactness", exact and scale_ok and sums_ok and hand_ok)


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
    parseval = abs(np.sum(img ** 2) - np.sum(np.abs(spec) ** 2)) < 1e-9

    freqs = half_plane_frequencies(32, 32)
    basis_ok = True
    for fi, fj in freqs:
        basis = fourier_basis(32, 32, fi, fj)
        support = int(np.count_nonzero(np.abs(dft2(basis)) > 1e-8))
        basis_ok = basis_ok and abs(np.linalg.norm(basis) - 1.0) < 1e-9 and support <= 2

    norm_ok = True
    mid = np.full((32, 32, 3), 0.5)
    for v in (4.0, 15.7):
        basis = fourier_basis(32, 32, 5, -7)
        norm_ok = norm_ok and abs(np.linalg.norm(v * basis) - v) < 1e-9
    basis = fourier_basis(32, 32, 5, -7)
    moved = perturb_with_basis(mid[None], basis, 4.0, derive_states(1, [0], "accept"))[0]
    # The sign is the documented draw: negative when the first unit of the
    # image's stream is below 0.5.
    sign = -1.0 if derive_stream(1, 0, "accept").next_unit() < 0.5 else 1.0
    for ch in range(3):
        norm_ok = norm_ok and abs(np.linalg.norm(moved[:, :, ch] - 0.5) - 4.0) < 1e-9
        norm_ok = norm_ok and float(np.max(np.abs(moved[:, :, ch] - 0.5 - sign * 4.0 * basis))) < 1e-9

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
        s[~keep_low] = 0.0
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
            models[arm, seed] = train(init_toy_model(seed, 48, 1, 4, 2), train_d, cfg, workers=2)
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
    patch_ckpts = [tmp_path / f"patch{i}.toym" for i in range(3)]
    for i, workers in enumerate((1, 1, 2)):
        ok = ok and run("train", "--input", data, "--output", patch_ckpts[i], "--seed", 1,
                        "--filters", 4, "--epochs", 3, "--batch-size", 8, "--kind", "patch_gaussian",
                        "--patch-size", 12, "--sigma-max", 1.0, "--workers", workers) == 0
    ok = ok and patch_ckpts[0].read_bytes() == patch_ckpts[1].read_bytes() == patch_ckpts[2].read_bytes()
    maps = [tmp_path / f"map{i}.csv" for i in range(3)]
    ppms = [tmp_path / f"map{i}.ppm" for i in range(3)]
    for i, workers in enumerate((1, 1, 4)):
        ok = ok and run("fourier", "--input", data, "--model", ckpt,
                        "--probe", "test_error", "--norm", 0.5, "--max-freq", 3,
                        "--seed", 11, "--workers", workers,
                        "--output", maps[i], "--ppm", ppms[i]) == 0
    ok = ok and maps[0].read_bytes() == maps[1].read_bytes() == maps[2].read_bytes()
    ok = ok and ppms[0].read_bytes() == ppms[1].read_bytes() == ppms[2].read_bytes()
    # 37 images make three first_layer probe chunks, so four workers fork three processes.
    probed = tmp_path / "probed"
    ok = ok and run("synth", "--output", probed, "--seed", 6, "--count", 37) == 0
    layer_maps = [tmp_path / f"layer{i}.csv" for i in range(3)]
    for i, workers in enumerate((1, 1, 4)):
        ok = ok and run("fourier", "--input", probed, "--model", ckpt,
                        "--probe", "first_layer", "--norm", 2.0, "--max-freq", 3,
                        "--seed", 12, "--workers", workers, "--output", layer_maps[i]) == 0
    ok = ok and layer_maps[0].read_bytes() == layer_maps[1].read_bytes() == layer_maps[2].read_bytes()
    _report(10, "deterministic command line", ok)
