"""Frequency-domain tools against a direct-summation transform oracle."""

import cmath
import math

import numpy as np
import pytest

from robustaug.fourier import (
    FourierHeatmap,
    centered_distances,
    conjugate_frequency,
    dft2,
    fourier_basis,
    format_heatmap_csv,
    half_plane_frequencies,
    high_pass,
    idft2,
    perturb_with_basis,
    render_heatmap,
    sensitivity_heatmap,
    _high_pass_raw,
)
from robustaug.images import LabeledDataset
from robustaug.model import init_toy_model
from robustaug.rng import derive_states, next_units

from rng_reference import Reference


# Oracle transforms: O(N^2) direct summation with cmath, centered layout,
# sharing nothing with the module under test.

def dft2_direct(x):
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for a in range(h):
        for b in range(w):
            fi, fj = a - h // 2, b - w // 2
            acc = 0j
            for y in range(h):
                for xc in range(w):
                    acc += x[y, xc] * cmath.exp(-2j * cmath.pi * (fi * y / h + fj * xc / w))
            out[a, b] = acc / math.sqrt(h * w)
    return out


def idft2_direct(coeff):
    h, w = coeff.shape
    out = np.zeros((h, w), dtype=complex)
    for y in range(h):
        for xc in range(w):
            acc = 0j
            for a in range(h):
                for b in range(w):
                    fi, fj = a - h // 2, b - w // 2
                    acc += coeff[a, b] * cmath.exp(2j * cmath.pi * (fi * y / h + fj * xc / w))
            out[y, xc] = acc / math.sqrt(h * w)
    return out


def sign_states(*negative):
    """A state array whose column i draws a first unit below 0.5 (a
    negative sign) exactly when negative[i] is true."""
    candidates = derive_states(0, range(64), "sign")
    below = next_units(candidates.copy()) < 0.5
    return np.stack([candidates[:, np.flatnonzero(below == neg)[0]] for neg in negative], axis=1)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(10)
    for shape in ((8, 8), (5, 7), (4, 6)):
        x = rng.random(shape)
        got = dft2(x)
        want = dft2_direct(x)
        assert np.max(np.abs(got - want)) < 1e-9


def test_dft_constant_is_dc_only():
    x = np.full((6, 5), 0.3)
    s = dft2(x)
    assert abs(s[3, 2] - 0.3 * math.sqrt(30)) < 1e-9
    s[3, 2] = 0.0
    assert np.max(np.abs(s)) < 1e-9


def test_dft_impulse_flat_spectrum():
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    mags = np.abs(dft2(x))
    assert np.max(np.abs(mags - 0.25)) < 1e-12
    assert np.max(np.abs(np.abs(dft2_direct(x)) - 0.25)) < 1e-12
    with pytest.raises(ValueError, match="expected a 2d channel"):
        dft2(x[:, :, None])


def test_round_trip_and_parseval():
    rng = np.random.default_rng(11)
    for shape in ((8, 8), (7, 3)):
        for _ in range(5):
            x = rng.random(shape)
            s = dft2(x)
            assert np.max(np.abs(idft2(s) - x)) < 1e-9
            assert abs(np.linalg.norm(s) - np.linalg.norm(x)) < 1e-9


def test_inverse_of_direct_oracle_matches():
    rng = np.random.default_rng(12)
    x = rng.random((5, 4))
    back = idft2_direct(dft2(x))
    assert np.max(np.abs(back.imag)) < 1e-9
    assert np.max(np.abs(back.real - x)) < 1e-9


def test_non_real_inverse_rejected():
    for scale in (1e-10, 1.0, 1e10):  # judged against the result's magnitude
        coeff = np.zeros((4, 4), dtype=complex)
        coeff[2, 3] = scale  # lone asymmetric coefficient
        with pytest.raises(ValueError, match="non-real inverse"):
            idft2(coeff)


def test_inverse_and_high_pass_are_linear_at_scale_1e10():
    # there a real plane's rounding residue is far above 1e-6
    x = np.random.default_rng(19).random((16, 16))
    assert np.max(np.abs(idft2(dft2(x * 1e10)) / 1e10 - x)) < 1e-9
    high = (_high_pass_raw(x[:, :, None] * 1e10, 6.0) - 0.5) / 1e10
    assert np.max(np.abs(high - (_high_pass_raw(x[:, :, None], 6.0) - 0.5))) < 1e-9


def test_basis_dc_is_constant():
    u = fourier_basis(8, 8, 0, 0)
    assert np.max(np.abs(u - 0.125)) < 1e-12


def test_basis_unit_norm_and_support():
    for h, w in ((4, 4), (5, 4)):
        for (i, j) in half_plane_frequencies(h, w):
            u = fourier_basis(h, w, i, j)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-9
            coeff = dft2(u)
            hot = {tuple(p) for p in np.argwhere(np.abs(coeff) > 1e-9)}
            ci, cj = conjugate_frequency(h, w, i, j)
            expect = {(i + h // 2, j + w // 2), (ci + h // 2, cj + w // 2)}
            assert hot == expect
            assert len(hot) <= 2


def test_basis_matches_cosine_grating():
    grating = np.array([[math.cos(2 * math.pi * y / 4)] * 4 for y in range(4)])
    grating /= np.linalg.norm(grating)
    assert np.max(np.abs(fourier_basis(4, 4, 1, 0) - grating)) < 1e-9


def test_basis_out_of_grid():
    with pytest.raises(ValueError, match="out-of-grid"):
        fourier_basis(4, 4, 2, 0)
    with pytest.raises(ValueError, match="out-of-grid"):
        fourier_basis(4, 4, 0, -3)


def test_basis_orthonormality():
    freqs = half_plane_frequencies(6, 6)
    mats = [fourier_basis(6, 6, i, j) for (i, j) in freqs]
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            assert abs(np.sum(mats[a] * mats[b])) < 1e-9


def test_half_plane_covers_grid_once():
    for h, w in ((4, 4), (5, 5), (5, 4)):
        reps = half_plane_frequencies(h, w)
        assert len(set(reps)) == len(reps)
        covered = set()
        for f in reps:
            conj = conjugate_frequency(h, w, *f)
            assert f <= conj
            if conj != f:
                assert conj not in reps
            covered.add(f)
            covered.add(conj)
        assert len(covered) == h * w
    assert len(half_plane_frequencies(4, 4)) == 10
    assert len(half_plane_frequencies(5, 5)) == 13


def test_perturb_zero_norm_is_identity():
    rng = np.random.default_rng(13)
    images = rng.random((2, 8, 8, 3))
    out = perturb_with_basis(images, fourier_basis(8, 8, 1, 2), 0.0, sign_states(False, True))
    assert np.array_equal(out, images)


def test_perturb_dc_arithmetic():
    images = np.full((2, 32, 32, 3), 0.5)
    u = fourier_basis(32, 32, 0, 0)
    up, down = perturb_with_basis(images, u, 4.0, sign_states(False, True))
    assert np.max(np.abs(up - 0.625)) < 1e-9
    assert np.max(np.abs(down - 0.375)) < 1e-9


def test_perturb_preclip_norm_is_v():
    img = np.full((32, 32, 3), 0.5)
    for v in (4.0, 15.7):
        for (i, j) in ((0, 0), (3, -5), (-16, 0)):
            u = fourier_basis(32, 32, i, j)
            pre = img + v * u[:, :, None]
            for c in range(3):
                assert abs(np.linalg.norm(pre[:, :, c] - img[:, :, c]) - v) < 1e-9
    # Small enough not to clip at mid-gray, so it survives the full path.
    out = perturb_with_basis(img[None], fourier_basis(32, 32, 2, 1), 4.0, sign_states(False))[0]
    for c in range(3):
        assert abs(np.linalg.norm(out[:, :, c] - 0.5) - 4.0) < 1e-9


def test_perturb_shares_sign_across_channels():
    images = np.full((2, 16, 16, 3), 0.5)
    out = perturb_with_basis(images, fourier_basis(16, 16, 1, 1), 0.5, sign_states(True, False))
    delta = out - images
    assert np.array_equal(delta[..., 0], delta[..., 1])
    assert np.array_equal(delta[..., 0], delta[..., 2])
    assert np.max(np.abs(delta[0] + delta[1])) < 1e-15  # opposite signs


def test_perturb_real_stream_sign_rule():
    # Image i takes the sign of the first unit of the (42, i, tag) stream.
    images = np.full((16, 8, 8, 1), 0.5)
    u = fourier_basis(8, 8, 0, 0)
    out = perturb_with_basis(images, u, 0.8, derive_states(42, range(16), "fourier/0,0"))
    signs = set()
    for i in range(16):
        first = Reference(42, i, "fourier/0,0").unit()
        sign = -1.0 if first < 0.5 else 1.0
        signs.add(sign)
        assert np.max(np.abs(out[i] - (0.5 + (0.8 / 8) * sign))) < 1e-12
    assert signs == {-1.0, 1.0}


def test_perturb_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        perturb_with_basis(np.zeros((1, 8, 8, 1)), fourier_basis(4, 4, 0, 0), 1.0, sign_states(False))


@pytest.mark.parametrize("origins", [1, 2])
def test_perturb_rejects_a_stream_count_mismatch(origins):
    # One stream must not be broadcast over the batch as one shared sign.
    states = derive_states(0, range(7, 7 + origins), "fourier/0,1")
    with pytest.raises(ValueError, match="streams for 5 images"):
        perturb_with_basis(np.full((5, 4, 4, 1), 0.5), fourier_basis(4, 4, 0, 1), 1.0, states)


def test_high_pass_zero_radius_identity():
    rng = np.random.default_rng(14)
    img = rng.random((8, 8, 3))
    out = high_pass(img, 0.0)
    assert np.array_equal(out, img)
    assert out is not img


def test_high_pass_everything_removed():
    rng = np.random.default_rng(15)
    img = rng.random((8, 8, 2))
    out = high_pass(img, 10.0)
    assert np.max(np.abs(out - 0.5)) < 1e-12


def test_high_pass_matches_subtraction_oracle():
    rng = np.random.default_rng(16)
    img = rng.random((8, 8, 2))
    r = 2.0
    oracle = np.empty_like(img)
    for c in range(2):
        spec = dft2_direct(img[:, :, c])
        for a in range(8):
            for b in range(8):
                if math.hypot(a - 4, b - 4) >= r:
                    spec[a, b] = 0.0  # keep only the low band
        low = idft2_direct(spec)
        assert np.max(np.abs(low.imag)) < 1e-9
        oracle[:, :, c] = np.clip(img[:, :, c] - low.real + 0.5, 0.0, 1.0)
    assert np.max(np.abs(high_pass(img, r) - oracle)) < 1e-9


@pytest.mark.parametrize("c", [1, 3])
def test_high_pass_stack_matches_single_images(c):
    stack = np.random.default_rng(18).random((37, 9, 7, c))
    got = high_pass(stack, 2.5)
    assert got.shape == stack.shape
    keep = centered_distances(9, 7) >= 2.5
    for i in range(len(stack)):
        assert np.array_equal(got[i], high_pass(stack[i], 2.5))
        # The per-plane centered-spectrum filter, bit for bit.
        planes = [idft2(dft2(stack[i, :, :, ch]) * keep) + 0.5 for ch in range(c)]
        assert np.array_equal(got[i], np.clip(np.stack(planes, axis=2), 0.0, 1.0))


def test_band_complement_reconstruction():
    rng = np.random.default_rng(17)
    dist = centered_distances(8, 8)
    for r in (1.0, 2.0, 3.5):
        img = rng.random((8, 8, 3))
        high = _high_pass_raw(img, r)
        low = np.empty_like(img)
        for c in range(3):
            s = dft2(img[:, :, c])
            low[:, :, c] = idft2(s * (dist < r))
        assert np.max(np.abs(high + low - 0.5 - img)) < 1e-9


def test_high_pass_validation():
    with pytest.raises(ValueError, match="radius must be >= 0, got -1.0"):
        high_pass(np.zeros((4, 4, 1)), -1.0)
    with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
        high_pass(np.zeros((4, 4, 1)), math.nan)
    # an infinite radius removes every coefficient, the mean included
    assert np.array_equal(high_pass(np.random.default_rng(0).random((4, 4, 1)), math.inf), np.full((4, 4, 1), 0.5))
    with pytest.raises(ValueError, match="image tensor"):
        high_pass(np.zeros((4, 4)), 1.0)


class ZeroPredictor:
    def predict(self, images):
        return np.zeros(len(images), dtype=np.int64)


class MeanPredictor:
    """Labels by thresholding the image mean; sensitive to perturbations."""

    def predict(self, images):
        return (images.mean(axis=(1, 2, 3)) > 0.5).astype(np.int64)


class IdentityProbe(ZeroPredictor):
    def first_layer(self, images):
        return np.asarray(images)


def small_dataset(n=4, h=8, w=8, seed=18):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.random((n, h, w, 1)), rng.integers(0, 2, size=n))


def test_heatmap_zero_norm_flat():
    d = LabeledDataset(np.full((4, 8, 8, 1), 0.5), np.array([0, 0, 1, 1]))
    hm = sensitivity_heatmap(ZeroPredictor(), d, 0.0, "test_error", seed=1)
    assert set(hm.grid) == set(half_plane_frequencies(8, 8))
    assert all(val == 0.5 for val in hm.grid.values())
    probe = sensitivity_heatmap(IdentityProbe(), d, 0.0, "first_layer", seed=1)
    assert all(val == 0.0 for val in probe.grid.values())
    assert all(val == 0.0 for val in probe.absolute.values())


def test_heatmap_linear_probe_is_frequency_flat():
    # With identity activations and no clipping, the activation change is
    # exactly v for every frequency, so the relative value is v over the
    # mean clean norm regardless of (i, j).
    d = LabeledDataset(np.full((3, 16, 16, 1), 0.5), np.array([0, 1, 0]))
    v = 0.1
    hm = sensitivity_heatmap(IdentityProbe(), d, v, "first_layer", seed=3)
    expect = v / (0.5 * 16)
    for val in hm.grid.values():
        assert abs(val - expect) < 1e-9
    for ab in hm.absolute.values():
        assert abs(ab - v) < 1e-9


def test_heatmap_value_ranges():
    d = small_dataset()
    hm = sensitivity_heatmap(MeanPredictor(), d, 2.0, "test_error", seed=4)
    assert all(0.0 <= val <= 1.0 for val in hm.grid.values())
    fl = sensitivity_heatmap(IdentityProbe(), d, 2.0, "first_layer", seed=4)
    assert all(val >= 0.0 for val in fl.grid.values())


def test_heatmap_deterministic_and_worker_independent():
    d = small_dataset()
    freqs = half_plane_frequencies(8, 8)[:6]
    a = sensitivity_heatmap(MeanPredictor(), d, 3.0, "test_error", seed=5, freqs=freqs)
    b = sensitivity_heatmap(MeanPredictor(), d, 3.0, "test_error", seed=5, freqs=freqs)
    c = sensitivity_heatmap(MeanPredictor(), d, 3.0, "test_error", seed=5, freqs=freqs, workers=3)
    assert a.grid == b.grid == c.grid


def first_layer_case():
    """A 3-channel model and 37 images, which the first_layer probe takes in
    chunks of 16, 16 and 5."""
    rng = np.random.default_rng(19)
    return init_toy_model(20, 4, 3, 2, 2), LabeledDataset(rng.random((37, 8, 8, 3)), rng.integers(0, 2, size=37))


def test_first_layer_probe_matches_its_formula():
    # Image by image: absolute is the mean of |first_layer(p_k) - first_layer(x_k)|,
    # and the value divides it by the mean of |first_layer(x_k)|.
    m, d = first_layer_case()
    freqs = half_plane_frequencies(8, 8)[::5]
    hm = sensitivity_heatmap(m, d, 2.0, "first_layer", seed=21, freqs=freqs)

    def norm(a):  # the sum np.linalg.norm makes along an axis
        return np.sqrt(np.sum(a * a))

    clean = [m.first_layer(d.images[k:k + 1]) for k in range(len(d))]
    for i, j in freqs:
        basis = fourier_basis(8, 8, i, j)
        perturbed = [perturb_with_basis(d.images[k:k + 1], basis, 2.0, derive_states(21, [k], f"fourier/{i},{j}"))
                     for k in range(len(d))]
        delta = np.mean([norm(m.first_layer(p) - c) for p, c in zip(perturbed, clean)])
        assert hm.absolute[i, j] == delta
        assert hm.grid[i, j] == delta / np.mean([norm(c) for c in clean])


def test_first_layer_probe_is_worker_independent():
    m, d = first_layer_case()
    csvs = [format_heatmap_csv(sensitivity_heatmap(m, d, 2.0, "first_layer", seed=22, workers=workers))
            for workers in (1, 2, 3)]
    assert csvs[0] == csvs[1] == csvs[2]


def test_heatmap_errors():
    d = small_dataset()
    with pytest.raises(ValueError, match="unknown probe"):
        sensitivity_heatmap(ZeroPredictor(), d, 1.0, "logits", seed=0)
    with pytest.raises(ValueError, match="unknown probe: logits"):
        FourierHeatmap(probe="logits", norm=1.0, seed=0)
    with pytest.raises(ValueError, match="probe unsupported by model"):
        sensitivity_heatmap(ZeroPredictor(), d, 1.0, "first_layer", seed=0)
    empty = LabeledDataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        sensitivity_heatmap(ZeroPredictor(), empty, 1.0, "test_error", seed=0)
    m, color = first_layer_case()
    for probe in ("test_error", "first_layer"):
        with pytest.raises(ValueError, match="no frequencies to probe"):
            sensitivity_heatmap(m, color, 1.0, probe, seed=0, freqs=[])
    black = LabeledDataset(np.zeros((3, 8, 8, 3)), np.zeros(3, dtype=np.int64))  # every activation is 0
    with pytest.raises(ValueError, match="zero clean activation norm"):
        sensitivity_heatmap(m, black, 1.0, "first_layer", seed=0, freqs=[(0, 1)])


def test_heatmap_csv_round_trip():
    hm = FourierHeatmap(
        probe="test_error", norm=4.0, seed=9,
        grid={(0, 0): 0.25, (-1, 2): 0.5, (1, 1): 1 / 3},
    )
    lines = format_heatmap_csv(hm).splitlines()
    assert lines[0] == "# probe=test_error v=4.0 seed=9"
    assert lines[1] == "i,j,value"
    rows = [line.split(",") for line in lines[2:]]
    assert [(int(i), int(j)) for i, j, _ in rows] == sorted(hm.grid)  # rows sorted by frequency
    assert {(int(i), int(j)): float(v) for i, j, v in rows} == hm.grid


def test_heatmap_csv_absolute_column():
    hm = FourierHeatmap(
        probe="first_layer", norm=1.5, seed=2,
        grid={(0, 0): 0.5, (0, 1): 0.25},
        absolute={(0, 0): 4.0, (0, 1): 2 / 3},
    )
    lines = format_heatmap_csv(hm).splitlines()
    assert lines[:2] == ["# probe=first_layer v=1.5 seed=2", "i,j,value,absolute"]
    rows = [line.split(",") for line in lines[2:]]
    assert {(int(i), int(j)): float(v) for i, j, v, _ in rows} == hm.grid
    assert {(int(i), int(j)): float(a) for i, j, _, a in rows} == hm.absolute


def test_render_heatmap_mirrors_and_normalizes():
    hm = FourierHeatmap(
        probe="test_error", norm=1.0, seed=0,
        grid={(0, 0): 0.2, (-1, 0): 0.4, (0, -1): 0.6},
    )
    img = render_heatmap(hm, 4, 4)
    assert img.shape == (4, 4, 1)
    assert img[2, 2, 0] == 0.0  # the minimum maps to black
    assert abs(img[1, 2, 0] - 0.5) < 1e-12  # (-1, 0) mirrored to (1, 0)
    assert abs(img[3, 2, 0] - 0.5) < 1e-12
    assert img[2, 1, 0] == 1.0  # (0, -1) mirrored to (0, 1)
    assert img[2, 3, 0] == 1.0
    assert img[0, 0, 0] == 0.0  # cells outside the grid stay black
