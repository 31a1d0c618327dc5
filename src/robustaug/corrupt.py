"""Test-time corruptions and the fixed Gaussian-sigma evaluation suite.

Seven corruption kinds are provided: three noise kinds (gaussian_noise,
shot_noise, impulse_noise) and four signal distortions (brightness,
contrast, defocus_blur, pixelate). They exist to feed the error metrics in
the metrics module; kinds that need external assets or image codecs are out
of scope.

corrupt takes a kind and its raw parameter. Severity levels 1..5 name
parameters through a severity table, which the CLI reads: the default
table, the last column of _KINDS below, is a toolkit convention tuned for
32x32-class images (stronger level = stronger corruption); swap in your
own table file to reproduce an external benchmark.

Randomized kinds consume their stream in a fixed order: gaussian_noise
draws one normal per element (row-major, channel-interleaved); shot_noise
draws one uniform per element and maps it through the exact Poisson inverse
CDF; impulse_noise draws one uniform per spatial pixel (row-major) with
u < p/2 painting black, p/2 <= u < p painting white, applied to all
channels of the pixel.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .augment import gaussian_batch
from .images import LabeledDataset
from .rng import derive_states, lockstep_fields, lockstep_groups, next_units

SIGMA_SUITE = (0.1, 0.2, 0.3, 0.5, 0.8, 1.0)


def validate_severity_table(table: dict) -> None:
    for kind, params in table.items():
        if len(params) != 5:
            raise ValueError(f"{kind}: need exactly 5 severity parameters, got {len(params)}")
        for param in params:
            _check_domain(kind, param)  # rejects an unknown kind, nan and inf as well
        for a, b in zip(params, params[1:]):
            if _KINDS[kind].direction * (b - a) <= 0:
                raise ValueError(f"{kind}: severity parameters are not strictly monotone")


def parse_severity_table(text: str) -> dict:
    """Parse 'kind level parameter' lines into a severity table."""
    rows: dict[str, dict[int, float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'kind level parameter'")
        try:
            kind, level, param = parts[0], int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        if level in rows.setdefault(kind, {}):
            raise ValueError(f"line {lineno}: repeated {kind} level {level}")
        rows[kind][level] = param
    table = {}
    for kind, levels in rows.items():
        if sorted(levels) != [1, 2, 3, 4, 5]:
            raise ValueError(f"{kind}: severity levels must be exactly 1..5")
        table[kind] = tuple(levels[i] for i in range(1, 6))
    validate_severity_table(table)
    return table


def _check_domain(kind: str, param: float) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown corruption kind: {kind!r}")
    if not (math.isfinite(param) and _KINDS[kind].domain(param)):
        raise ValueError(f"parameter out of domain for {kind}: {param!r}")


def _gaussian_noise(images: np.ndarray, sigma: float, states: np.ndarray) -> np.ndarray:
    noise = lockstep_fields(states, images.shape[1:])
    return gaussian_batch(images, np.full(len(images), sigma), noise, out=noise)


def _shot_noise(images: np.ndarray, lam: float, states: np.ndarray) -> np.ndarray:
    from scipy import stats  # imported here: it takes most of a second, and most commands never need it
    u = next_units(states, images.shape[1:])
    # Exact inverse-transform Poisson: k = F^{-1}(u) at mean img*lam (NaN from about 5e10, so lam <= 1e10).
    counts = stats.poisson.ppf(u, images * lam)
    counts = np.maximum(counts, 0.0)  # ppf(0) reports -1; floor it at zero
    return counts / lam


def _impulse_noise(images: np.ndarray, p: float, states: np.ndarray) -> np.ndarray:
    u = next_units(states, images.shape[1:3])
    out = images.copy()
    out[u < p / 2] = 0.0
    out[(u >= p / 2) & (u < p)] = 1.0
    return out


def _contrast(images: np.ndarray, c: float) -> np.ndarray:
    m = images.mean(axis=(1, 2), keepdims=True)
    out = images - m
    return np.add(np.multiply(out, c, out=out), m, out=out)  # (images - m) * c + m in one array


def _disk_kernel(radius: float) -> np.ndarray:
    span = int(np.ceil(radius))
    offsets = np.arange(-span, span + 1)
    inside = offsets[:, None] ** 2 + offsets[None, :] ** 2 <= radius * radius
    kernel = inside.astype(np.float64)
    return kernel / kernel.sum()


def _defocus_blur(images: np.ndarray, radius: float) -> np.ndarray:
    from scipy import ndimage  # imported here for the reason given in _shot_noise
    # A dense disk of (2 ceil(r) + 1)^2 taps: 80 KB at r = 50, 3.2 GB at 1e4, so r <= 50 (ImageNet-C's largest is 10).
    return ndimage.convolve(images, _disk_kernel(radius)[None, :, :, None], mode="nearest")


def _pixelate(images: np.ndarray, factor: float) -> np.ndarray:
    _, h, w, _ = images.shape
    k = int(min(factor, max(h, w)))  # a block the image's size or larger is the whole image
    ys = np.arange(0, h, k)
    xs = np.arange(0, w, k)
    sums = np.add.reduceat(np.add.reduceat(images, ys, axis=1), xs, axis=2)
    heights = np.minimum(ys + k, h) - ys
    widths = np.minimum(xs + k, w) - xs
    means = sums / (heights[:, None, None] * widths[None, :, None])
    return np.repeat(np.repeat(means, heights, axis=1), widths, axis=2)


@dataclass(frozen=True)
class _Kind:
    kernel: Callable  # f(images, param), plus states for a noise kind; corrupt clips the result
    noise: bool
    direction: int  # +1: a larger parameter is a stronger corruption; -1: a smaller one is
    domain: Callable  # whether a finite parameter is in the kind's domain
    severity: tuple  # the default parameters of levels 1..5


# One row per kind; each kernel names its parameter. shot_noise's lam counts photons per unit intensity.
_KINDS = {
    "gaussian_noise": _Kind(_gaussian_noise, True, 1, lambda p: p >= 0, (0.04, 0.06, 0.08, 0.09, 0.10)),
    "shot_noise": _Kind(_shot_noise, True, -1, lambda p: 0 < p <= 1e10, (500.0, 250.0, 100.0, 75.0, 50.0)),
    "impulse_noise": _Kind(_impulse_noise, True, 1, lambda p: 0 <= p <= 1, (0.01, 0.02, 0.03, 0.05, 0.07)),
    "brightness": _Kind(lambda x, shift: x + shift, False, 1, lambda p: -1 <= p <= 1, (0.05, 0.10, 0.15, 0.20, 0.30)),
    "contrast": _Kind(_contrast, False, -1, lambda p: p >= 0, (0.75, 0.50, 0.40, 0.30, 0.15)),
    "defocus_blur": _Kind(_defocus_blur, False, 1, lambda p: 0 <= p <= 50, (1.0, 2.0, 3.0, 4.0, 6.0)),
    "pixelate": _Kind(_pixelate, False, 1, lambda p: p >= 1 and float(p).is_integer(), (2.0, 4.0, 8.0, 12.0, 16.0)),
}
CORRUPTION_KINDS = tuple(_KINDS)
NOISE_KINDS = tuple(kind for kind, row in _KINDS.items() if row.noise)
DEFAULT_SEVERITY = {kind: row.severity for kind, row in _KINDS.items()}


def corrupt(images: np.ndarray, kind: str, param: float, seed: int | None = None, tag: str = "") -> np.ndarray:
    """Apply corruption kind at parameter param to a batch of images, shape
    (n, h, w, c), per lockstep group, clipped to [0, 1] into one output
    array. Noise kinds require a seed: image j draws from the (seed, j, tag)
    stream."""
    if images.ndim != 4:
        raise ValueError("expected an (n, h, w, c) image batch")
    _check_domain(kind, param)
    entry = _KINDS[kind]
    if entry.noise and seed is None:
        raise ValueError(f"{kind} requires an rng seed")
    out = np.empty_like(images)
    for rows in lockstep_groups(len(images)):
        group = slice(rows.start, rows.stop)
        states = (derive_states(seed, rows, tag),) if entry.noise else ()
        np.clip(entry.kernel(images[group], param, *states), 0.0, 1.0, out=out[group])
    return out


def gaussian_eval_suite(d: LabeledDataset, seed: int, sigmas=SIGMA_SUITE) -> list[tuple[float, LabeledDataset]]:
    """The six-sigma Gaussian noise suite used for robustness evaluation.

    Returns [(sigma, corrupted dataset)] for sigma in sigmas, by default
    SIGMA_SUITE, in that order. Image i at sigma s is corrupted with the
    stream derived from (seed, i, "suite/<s>"), so the suite is reproducible
    image by image and sigma by sigma.
    """
    return [(sigma, LabeledDataset(corrupt(d.images, "gaussian_noise", sigma, seed, tag=f"suite/{sigma}"),
                                   d.labels.copy()))
            for sigma in sigmas]
