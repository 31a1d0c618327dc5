"""Frequency-domain tools against a direct-summation transform oracle."""

import cmath
import math

import numpy as np
import pytest

from robustaug.fourier import (
    FourierHeatmap,
    Spectrum,
    centered_distances,
    conjugate_frequency,
    dft2,
    fourier_basis,
    format_heatmap_csv,
    half_plane_frequencies,
    high_pass,
    idft2,
    parse_heatmap_csv,
    perturb_with_basis,
    render_heatmap,
    sensitivity_heatmap,
    _high_pass_raw,
)
from robustaug.images import LabeledDataset
from robustaug.rng import derive_stream


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


class FixedUnit:
    """rng stand-in yielding a scripted unit draw."""

    def __init__(self, u):
        self.u = u

    def next_unit(self):
        return self.u


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(10)
    for shape in ((8, 8), (5, 7), (4, 6)):
        x = rng.random(shape)
        got = dft2(x).coefficients
        want = dft2_direct(x)
        assert np.max(np.abs(got - want)) < 1e-9


def test_dft_constant_is_dc_only():
    x = np.full((6, 5), 0.3)
    s = dft2(x).coefficients
    assert abs(s[3, 2] - 0.3 * math.sqrt(30)) < 1e-9
    s[3, 2] = 0.0
    assert np.max(np.abs(s)) < 1e-9


def test_dft_impulse_flat_spectrum():
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    mags = np.abs(dft2(x).coefficients)
    assert np.max(np.abs(mags - 0.25)) < 1e-12
    assert np.max(np.abs(np.abs(dft2_direct(x)) - 0.25)) < 1e-12


def test_round_trip_and_parseval():
    rng = np.random.default_rng(11)
    for shape in ((8, 8), (7, 3)):
        for _ in range(5):
            x = rng.random(shape)
            s = dft2(x)
            assert np.max(np.abs(idft2(s) - x)) < 1e-9
            assert abs(np.linalg.norm(s.coefficients) - np.linalg.norm(x)) < 1e-9


def test_inverse_of_direct_oracle_matches():
    rng = np.random.default_rng(12)
    x = rng.random((5, 4))
    back = idft2_direct(dft2(x).coefficients)
    assert np.max(np.abs(back.imag)) < 1e-9
    assert np.max(np.abs(back.real - x)) < 1e-9


def test_non_real_inverse_rejected():
    coeff = np.zeros((4, 4), dtype=complex)
    coeff[2, 3] = 1.0  # lone asymmetric coefficient
    with pytest.raises(ValueError, match="non-real inverse"):
        idft2(Spectrum(4, 4, coeff))


def test_spectrum_shape_check():
    with pytest.raises(ValueError, match="shape mismatch"):
        Spectrum(4, 4, np.zeros((3, 4), dtype=complex))


def test_basis_dc_is_constant():
    u = fourier_basis(8, 8, 0, 0)
    assert np.max(np.abs(u - 0.125)) < 1e-12


def test_basis_unit_norm_and_support():
    for h, w in ((4, 4), (5, 4)):
        for (i, j) in half_plane_frequencies(h, w):
            u = fourier_basis(h, w, i, j)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-9
            coeff = dft2(u).coefficients
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
    img = rng.random((8, 8, 3))
    out = perturb_with_basis(img, fourier_basis(8, 8, 1, 2), 0.0, FixedUnit(0.9))
    assert np.array_equal(out, img)


def test_perturb_dc_arithmetic():
    img = np.full((32, 32, 3), 0.5)
    u = fourier_basis(32, 32, 0, 0)
    up = perturb_with_basis(img, u, 4.0, FixedUnit(0.9))
    down = perturb_with_basis(img, u, 4.0, FixedUnit(0.1))
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
    out = perturb_with_basis(img, fourier_basis(32, 32, 2, 1), 4.0, FixedUnit(0.7))
    for c in range(3):
        assert abs(np.linalg.norm(out[:, :, c] - 0.5) - 4.0) < 1e-9


def test_perturb_shares_sign_across_channels():
    img = np.full((16, 16, 3), 0.5)
    out = perturb_with_basis(img, fourier_basis(16, 16, 1, 1), 0.5, FixedUnit(0.2))
    delta = out - img
    assert np.array_equal(delta[:, :, 0], delta[:, :, 1])
    assert np.array_equal(delta[:, :, 0], delta[:, :, 2])


def test_perturb_real_stream_sign_rule():
    img = np.full((8, 8, 1), 0.5)
    u = fourier_basis(8, 8, 0, 0)
    stream = derive_stream(42, 0, "fourier/0,0")
    first = stream.next_unit()
    stream = derive_stream(42, 0, "fourier/0,0")
    out = perturb_with_basis(img, u, 0.8, stream)
    expect = 0.5 + (0.8 / 8) * (-1.0 if first < 0.5 else 1.0)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_perturb_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        perturb_with_basis(np.zeros((8, 8, 1)), fourier_basis(4, 4, 0, 0), 1.0, FixedUnit(0.9))


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
        planes = [idft2(Spectrum(9, 7, dft2(stack[i, :, :, ch]).coefficients * keep)) + 0.5 for ch in range(c)]
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
            low[:, :, c] = idft2(Spectrum(8, 8, s.coefficients * (dist < r)))
        assert np.max(np.abs(high + low - 0.5 - img)) < 1e-9


def test_high_pass_validation():
    with pytest.raises(ValueError, match="negative radius"):
        high_pass(np.zeros((4, 4, 1)), -1.0)
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


def test_heatmap_errors():
    d = small_dataset()
    with pytest.raises(ValueError, match="unknown probe"):
        sensitivity_heatmap(ZeroPredictor(), d, 1.0, "logits", seed=0)
    with pytest.raises(ValueError, match="probe unsupported by model"):
        sensitivity_heatmap(ZeroPredictor(), d, 1.0, "first_layer", seed=0)
    empty = LabeledDataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        sensitivity_heatmap(ZeroPredictor(), empty, 1.0, "test_error", seed=0)


def test_heatmap_csv_round_trip():
    hm = FourierHeatmap(
        probe="test_error", norm=4.0, seed=9,
        grid={(0, 0): 0.25, (-1, 2): 0.5, (1, 1): 0.125},
    )
    text = format_heatmap_csv(hm)
    lines = text.splitlines()
    assert lines[0] == "# probe=test_error v=4.0 seed=9"
    assert lines[1] == "i,j,value"
    assert lines[2].startswith("-1,2,")  # rows sorted by frequency
    back = parse_heatmap_csv(text)
    assert back.grid == hm.grid
    assert back.norm == hm.norm and back.seed == hm.seed and back.probe == hm.probe
    assert format_heatmap_csv(back) == text


def test_heatmap_csv_absolute_column():
    hm = FourierHeatmap(
        probe="first_layer", norm=1.5, seed=2,
        grid={(0, 0): 0.5, (0, 1): 0.25},
        absolute={(0, 0): 4.0, (0, 1): 2.0},
    )
    text = format_heatmap_csv(hm)
    assert text.splitlines()[1] == "i,j,value,absolute"
    back = parse_heatmap_csv(text)
    assert back.absolute == hm.absolute


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
