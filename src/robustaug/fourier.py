"""Frequency-domain tools: unitary 2D DFT, single-frequency noise bases,
model sensitivity heatmaps, and high-pass filtering.

All spectra use centered indexing: the zero-frequency coefficient sits at
grid cell (h // 2, w // 2), and cell (a, b) holds the frequency
(a - h // 2, b - w // 2).  The transform is unitary (1 / sqrt(h * w) in both
directions), so the Frobenius norm of an image plane equals the norm of its
spectrum and basis normalization is plain arithmetic.

A heatmap probes a classifier with single-frequency perturbations of fixed
l2 norm and records, per frequency, either the test error on the perturbed
inputs or the relative change of the first-layer activations.  Conjugate
frequency pairs produce the same perturbation matrix, so grids cover one
canonical half of the frequency plane.
"""

from dataclasses import dataclass, field

import numpy as np

from .images import LabeledDataset, clip_unit
from .metrics import accuracy
from .parallel import indexed_map
from .rng import derive_states, next_units

PROBES = ("test_error", "first_layer")

_IMAG_LIMIT = 1e-6

# Images per first_layer call of the first_layer probe.  It bounds the
# activation arrays the probe holds for any model (one chunk's clean and
# perturbed activations per frequency), and the per-image norms it keeps do
# not depend on it.
_PROBE_CHUNK = 16


@dataclass
class Spectrum:
    """Centered complex spectrum of a single image plane."""

    height: int
    width: int
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != (self.height, self.width):
            raise ValueError("coefficient shape mismatch")
        self.coefficients = c


@dataclass
class FourierHeatmap:
    """Per-frequency sensitivity values over a half-plane grid.

    grid maps (i, j) to the primary sensitivity value: test error in [0, 1]
    for the test_error probe, or the relative first-layer activation change
    (mean perturbed-minus-clean norm over mean clean norm) for first_layer.
    For the first_layer probe the un-normalized mean activation change is
    kept alongside in absolute.
    """

    probe: str
    norm: float
    seed: int
    grid: dict = field(default_factory=dict)
    absolute: dict | None = None

    def __post_init__(self):
        if self.probe not in PROBES:
            raise ValueError(f"unknown probe: {self.probe}")


def frequency_range(n: int) -> range:
    """Signed frequencies representable on an n-point axis."""
    return range(-(n // 2), (n - 1) // 2 + 1)


def conjugate_frequency(h: int, w: int, i: int, j: int) -> tuple:
    """The centered-grid alias of (-i, -j)."""
    return ((h // 2 - i) % h - h // 2, (w // 2 - j) % w - w // 2)


def half_plane_frequencies(h: int, w: int) -> list:
    """One canonical representative per conjugate frequency pair.

    The representative is the lexicographically smaller member of
    {(i, j), conjugate(i, j)}; self-conjugate frequencies such as (0, 0)
    appear once.  The union of the result and its conjugates covers the
    full centered grid.
    """
    out = []
    for i in frequency_range(h):
        for j in frequency_range(w):
            if (i, j) <= conjugate_frequency(h, w, i, j):
                out.append((i, j))
    return out


def centered_distances(h: int, w: int) -> np.ndarray:
    """Euclidean distance of every centered grid cell from frequency (0, 0)."""
    fi = np.arange(h, dtype=np.float64) - h // 2
    fj = np.arange(w, dtype=np.float64) - w // 2
    return np.hypot(fi[:, None], fj[None, :])


def dft2(channel: np.ndarray) -> Spectrum:
    """Unitary 2D DFT of one image plane, centered."""
    arr = np.asarray(channel, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2d channel")
    coeff = np.fft.fftshift(np.fft.fft2(arr, norm="ortho"))
    return Spectrum(arr.shape[0], arr.shape[1], coeff)


def idft2(spectrum: Spectrum) -> np.ndarray:
    """Inverse unitary DFT.  The result must be real: a residual imaginary
    part below the tolerance is discarded, anything larger is an error."""
    back = np.fft.ifft2(np.fft.ifftshift(spectrum.coefficients), norm="ortho")
    if np.max(np.abs(back.imag), initial=0.0) >= _IMAG_LIMIT:
        raise ValueError("non-real inverse")
    return np.ascontiguousarray(back.real)


def fourier_basis(h: int, w: int, i: int, j: int) -> np.ndarray:
    """Real h-by-w matrix supported on one conjugate frequency pair.

    The spectrum carries equal real coefficients at (i, j) and its
    conjugate, which makes the matrix a zero-phase cosine grating with a
    positive peak at the origin; it is scaled to unit Frobenius norm.
    """
    if i not in frequency_range(h) or j not in frequency_range(w):
        raise ValueError(f"out-of-grid frequency ({i}, {j}) for {h}x{w}")
    coeff = np.zeros((h, w), dtype=np.complex128)
    ci, cj = conjugate_frequency(h, w, i, j)
    coeff[i + h // 2, j + w // 2] += 1.0
    coeff[ci + h // 2, cj + w // 2] += 1.0
    u = idft2(Spectrum(h, w, coeff))
    return u / np.linalg.norm(u)


def perturb_with_basis(images: np.ndarray, basis: np.ndarray, v: float, states) -> np.ndarray:
    """Add the basis matrix at l2 norm v with a random sign to each image of
    an (n, h, w, c) batch, then clip.

    Image i draws its sign from column i of the state array states, which
    has one column per image (unit draw < 0.5 means negative), and shares
    it across channels; each channel receives the same v * basis
    contribution, so the pre-clip perturbation norm per channel is exactly
    v.
    """
    if basis.shape != images.shape[1:3]:
        raise ValueError("shape mismatch")
    if states.shape[1] != len(images):
        raise ValueError(f"{states.shape[1]} streams for {len(images)} images")
    signs = np.where(next_units(states) < 0.5, -1.0, 1.0)
    return clip_unit(images + (signs * v)[:, None, None, None] * basis[None, :, :, None])


def _activation_norms(acts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(acts, dtype=np.float64).reshape(len(acts), -1), axis=1)


def sensitivity_heatmap(
    model,
    d: LabeledDataset,
    v: float,
    probe: str,
    seed: int,
    freqs=None,
    workers: int = 1,
) -> FourierHeatmap:
    """Probe the model with every listed frequency at perturbation norm v.

    freqs defaults to the canonical half plane of the dataset's image grid.
    Per-image streams are derived from (seed, index, "fourier/i,j"), so the
    result is independent of worker count and frequency order; each
    frequency perturbs all images at once with perturb_with_basis. The
    first_layer probe keeps only per-image activation norms, computing
    activations _PROBE_CHUNK images at a time.
    """
    if probe not in PROBES:
        raise ValueError(f"unknown probe: {probe}")
    if len(d) == 0:
        raise ValueError("empty dataset")
    if probe == "first_layer" and not hasattr(model, "first_layer"):
        raise ValueError("probe unsupported by model")
    n, h, w, _ = d.images.shape
    freq_list = list(freqs) if freqs is not None else half_plane_frequencies(h, w)

    chunks = [slice(start, start + _PROBE_CHUNK) for start in range(0, n, _PROBE_CHUNK)]

    def acts(images):
        return np.asarray(model.first_layer(images), dtype=np.float64)

    if probe == "first_layer":
        clean_norm = float(np.mean(np.concatenate(
            [_activation_norms(acts(d.images[c])) for c in chunks])))
        if clean_norm <= 0.0:
            raise ValueError("zero clean activation norm")

    def probe_frequency(fi):
        i, j = freq_list[fi]
        states = derive_states(seed, range(n), f"fourier/{i},{j}")
        perturbed = perturb_with_basis(d.images, fourier_basis(h, w, i, j), v, states)
        if probe == "test_error":
            return 1.0 - accuracy(model.predict(perturbed), d.labels), None
        delta = np.concatenate(
            [_activation_norms(acts(perturbed[c]) - acts(d.images[c])) for c in chunks])
        mean_delta = float(np.mean(delta))
        return mean_delta / clean_norm, mean_delta

    values = indexed_map(probe_frequency, len(freq_list), workers=workers)
    grid = {f: val for f, (val, _) in zip(freq_list, values)}
    if probe == "test_error":
        return FourierHeatmap(probe=probe, norm=v, seed=seed, grid=grid)
    absolute = {f: ab for f, (_, ab) in zip(freq_list, values)}
    return FourierHeatmap(probe=probe, norm=v, seed=seed, grid=grid, absolute=absolute)


def _high_pass_raw(images: np.ndarray, radius: float) -> np.ndarray:
    """High-pass filter without the final clip; shared by tests. images is
    one (h, w, c) image or an (n, h, w, c) stack, filtered plane by plane."""
    h, w = images.shape[-3:-1]
    # Masking the unshifted spectrum with the unshifted mask equals masking
    # the centered spectrum with the centered one.
    keep = np.fft.ifftshift(centered_distances(h, w) >= radius)[:, :, None]
    spectra = np.fft.fft2(images, axes=(-3, -2), norm="ortho")
    back = np.fft.ifft2(spectra * keep, axes=(-3, -2), norm="ortho")
    if np.max(np.abs(back.imag), initial=0.0) >= _IMAG_LIMIT:
        raise ValueError("non-real inverse")
    # Removing the DC coefficient zero-centers each plane; shift it back to
    # mid-gray so the output stays viewable.
    return back.real + 0.5 if radius > 0.0 else np.ascontiguousarray(back.real)


def high_pass(images: np.ndarray, radius: float) -> np.ndarray:
    """Zero every spectrum coefficient strictly closer than radius to the
    zero frequency, per channel, and invert, for one (h, w, c) image or an
    (n, h, w, c) stack.  radius = 0 removes nothing and returns the input
    unchanged."""
    if images.ndim not in (3, 4):
        raise ValueError("expected an image tensor or a stack of them")
    if radius < 0:
        raise ValueError("negative radius")
    if radius == 0.0:
        return images.copy()
    return clip_unit(_high_pass_raw(images, radius))


def format_heatmap_csv(hm: FourierHeatmap) -> str:
    """CSV rows sorted by frequency, preceded by a metadata comment line.

    first_layer heatmaps carry a fourth column with the un-normalized mean
    activation change."""
    lines = [f"# probe={hm.probe} v={hm.norm!r} seed={hm.seed}"]
    if hm.absolute is None:
        lines.append("i,j,value")
        for (i, j) in sorted(hm.grid):
            lines.append(f"{i},{j},{hm.grid[(i, j)]!r}")
    else:
        lines.append("i,j,value,absolute")
        for (i, j) in sorted(hm.grid):
            lines.append(f"{i},{j},{hm.grid[(i, j)]!r},{hm.absolute[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def parse_heatmap_csv(text: str) -> FourierHeatmap:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("malformed heatmap file")
    meta = dict(part.split("=", 1) for part in lines[0][2:].split())
    missing = {"probe", "v", "seed"} - meta.keys()
    if missing:
        raise ValueError(f"heatmap header lacks {', '.join(sorted(missing))}")
    if lines[1] not in ("i,j,value", "i,j,value,absolute"):
        raise ValueError(f"bad heatmap column header: {lines[1]!r}")
    width = lines[1].count(",") + 1
    grid, absolute = {}, {}
    for ln in lines[2:]:
        cells = ln.split(",")
        if len(cells) != width:
            raise ValueError(f"malformed heatmap row: {ln!r}")
        f = (int(cells[0]), int(cells[1]))
        grid[f] = float(cells[2])
        if len(cells) > 3:
            absolute[f] = float(cells[3])
    return FourierHeatmap(
        probe=meta["probe"],
        norm=float(meta["v"]),
        seed=int(meta["seed"]),
        grid=grid,
        absolute=absolute or None,
    )


def render_heatmap(hm: FourierHeatmap, h: int, w: int) -> np.ndarray:
    """Grayscale image of the full centered grid for PPM output.

    Half-plane values are mirrored onto their conjugate cells and scaled
    linearly so the smallest value maps to black and the largest to white;
    a constant grid renders black.  Cells absent from the grid stay black.
    """
    values = np.zeros((h, w), dtype=np.float64)
    mask = np.zeros((h, w), dtype=bool)
    for (i, j), val in hm.grid.items():
        ci, cj = conjugate_frequency(h, w, i, j)
        values[i + h // 2, j + w // 2] = val
        values[ci + h // 2, cj + w // 2] = val
        mask[i + h // 2, j + w // 2] = True
        mask[ci + h // 2, cj + w // 2] = True
    if mask.any():
        lo = values[mask].min()
        hi = values[mask].max()
        if hi > lo:
            values[mask] = (values[mask] - lo) / (hi - lo)
        else:
            values[mask] = 0.0
    return values[:, :, None]
