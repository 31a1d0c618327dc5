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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .images import LabeledDataset, clip_unit
from .metrics import accuracy
from .parallel import indexed_map
from .rng import derive_states, lockstep_groups, next_units

PROBES = ("test_error", "first_layer")

_IMAG_LIMIT = 1e-6

# Images per item of the first_layer probe and per transform of high_pass.
# It bounds the activation arrays the probe holds for any model (one chunk's
# clean and perturbed activations) and the complex spectra of high_pass;
# neither result depends on it.
_PROBE_CHUNK = 16


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


def dft2(channel: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT of one image plane: its centered complex spectrum."""
    arr = np.asarray(channel, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2d channel")
    return np.fft.fftshift(np.fft.fft2(arr, norm="ortho"))


def idft2(spectrum: np.ndarray) -> np.ndarray:
    """Inverse unitary DFT of a centered spectrum.  The result must be real:
    a residual imaginary part below the tolerance is discarded, anything
    larger is an error."""
    back = np.fft.ifft2(np.fft.ifftshift(spectrum), norm="ortho")
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
    u = idft2(coeff)
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
    result is independent of worker count, chunking and frequency order.
    indexed_map items run in forked processes with workers > 1.  A test_error
    item is one frequency, perturbing and scoring one lockstep group at a
    time.  A first_layer item is one chunk of _PROBE_CHUNK images: their
    clean activations once, then each frequency's change from them, kept as
    per-image norms.  The caller holds all (1 + len(freqs)) * n norms: 1 MB
    for 514 frequencies of 256 images, 41 MB at 10,000 images.
    """
    if probe not in PROBES:
        raise ValueError(f"unknown probe: {probe}")
    if not 0 <= v < np.inf:  # also true for nan
        raise ValueError(f"perturbation norm must be finite and >= 0, got {v!r}")
    if len(d) == 0:
        raise ValueError("empty dataset")
    if probe == "first_layer" and not hasattr(model, "first_layer"):
        raise ValueError("probe unsupported by model")
    n, h, w, _ = d.images.shape
    freq_list = list(freqs) if freqs is not None else half_plane_frequencies(h, w)
    bases = [fourier_basis(h, w, i, j) for i, j in freq_list]

    def perturbed(f, rows):
        states = derive_states(seed, rows, "fourier/{},{}".format(*freq_list[f]))
        return perturb_with_basis(d.images[rows.start:rows.stop], bases[f], v, states)

    if probe == "test_error":
        def test_error(f):
            labels = np.concatenate([model.predict(perturbed(f, group)) for group in lockstep_groups(n)])
            return 1.0 - accuracy(labels, d.labels)

        grid = dict(zip(freq_list, indexed_map(test_error, len(freq_list), workers=workers)))
        return FourierHeatmap(probe=probe, norm=v, seed=seed, grid=grid)

    starts = range(0, n, _PROBE_CHUNK)

    def chunk_norms(c):
        rows = range(starts[c], min(n, starts[c] + _PROBE_CHUNK))
        clean = np.asarray(model.first_layer(d.images[rows.start:rows.stop]), dtype=np.float64)
        changes = (model.first_layer(perturbed(f, rows)) - clean for f in range(len(freq_list)))
        return np.array([np.linalg.norm(a.reshape(len(rows), -1), axis=1) for a in itertools.chain([clean], changes)])

    means = np.mean(np.concatenate(list(indexed_map(chunk_norms, len(starts), workers=workers)), axis=1), axis=1)
    if means[0] <= 0.0:
        raise ValueError("zero clean activation norm")
    grid = {f: float(mean / means[0]) for f, mean in zip(freq_list, means[1:])}
    absolute = {f: float(mean) for f, mean in zip(freq_list, means[1:])}
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
    unchanged; images are transformed _PROBE_CHUNK at a time into one array."""
    if images.ndim not in (3, 4):
        raise ValueError("expected an image tensor or a stack of them")
    if not radius >= 0:  # also true for nan
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    if radius == 0.0:
        return images.copy()
    stack = images.reshape((-1,) + images.shape[-3:])
    out = np.empty(stack.shape)
    for c in (slice(start, start + _PROBE_CHUNK) for start in range(0, len(stack), _PROBE_CHUNK)):
        np.clip(_high_pass_raw(stack[c], radius), 0.0, 1.0, out=out[c])
    return out.reshape(images.shape)


def format_heatmap_csv(hm: FourierHeatmap) -> str:
    """CSV rows sorted by frequency, preceded by a metadata comment line.

    first_layer heatmaps carry a fourth column with the un-normalized mean
    activation change."""
    lines = [f"# probe={hm.probe} v={hm.norm!r} seed={hm.seed}",
             "i,j,value" if hm.absolute is None else "i,j,value,absolute"]
    for f in sorted(hm.grid):
        extra = "" if hm.absolute is None else f",{hm.absolute[f]!r}"
        lines.append(f"{f[0]},{f[1]},{hm.grid[f]!r}{extra}")
    return "\n".join(lines) + "\n"


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
