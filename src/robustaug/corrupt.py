"""Test-time corruptions and the fixed Gaussian-sigma evaluation suite.

Seven corruption kinds are provided: three noise kinds (gaussian_noise,
shot_noise, impulse_noise) and four signal distortions (brightness,
contrast, defocus_blur, pixelate). They exist to feed the error metrics in
the metrics module; kinds that need external assets or image codecs are out
of scope.

Severity levels 1..5 map to parameters through a severity table. The
default table below is a toolkit convention tuned for 32x32-class images
(stronger level = stronger corruption); swap in your own table file to
reproduce an external benchmark. Strength direction per kind:

    gaussian_noise   sigma, increasing
    shot_noise       lambda (photons per unit intensity), decreasing
    impulse_noise    replacement probability, increasing
    brightness       additive shift, increasing
    contrast         contrast factor, decreasing
    defocus_blur     disk radius, increasing
    pixelate         block factor, increasing

Randomized kinds consume their stream in a fixed order: gaussian_noise
draws one normal per element (row-major, channel-interleaved); shot_noise
draws one uniform per element and maps it through the exact Poisson inverse
CDF; impulse_noise draws one uniform per spatial pixel (row-major) with
u < p/2 painting black, p/2 <= u < p painting white, applied to all
channels of the pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy import stats

from .augment import apply_gaussian_kernel
from .images import LabeledDataset, clip_unit
from .rng import derive_states, lockstep_fields, lockstep_groups, next_units

CORRUPTION_KINDS = (
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "brightness",
    "contrast",
    "defocus_blur",
    "pixelate",
)

NOISE_KINDS = ("gaussian_noise", "shot_noise", "impulse_noise")

# +1: larger parameter = stronger corruption; -1: smaller = stronger.
STRENGTH_DIRECTION = {
    "gaussian_noise": 1,
    "shot_noise": -1,
    "impulse_noise": 1,
    "brightness": 1,
    "contrast": -1,
    "defocus_blur": 1,
    "pixelate": 1,
}

DEFAULT_SEVERITY = {
    "gaussian_noise": (0.04, 0.06, 0.08, 0.09, 0.10),
    "shot_noise": (500.0, 250.0, 100.0, 75.0, 50.0),
    "impulse_noise": (0.01, 0.02, 0.03, 0.05, 0.07),
    "brightness": (0.05, 0.10, 0.15, 0.20, 0.30),
    "contrast": (0.75, 0.50, 0.40, 0.30, 0.15),
    "defocus_blur": (1.0, 2.0, 3.0, 4.0, 6.0),
    "pixelate": (2.0, 4.0, 8.0, 12.0, 16.0),
}

SIGMA_SUITE = (0.1, 0.2, 0.3, 0.5, 0.8, 1.0)


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption: a kind plus either a severity level or a raw parameter."""

    kind: str
    severity: int | None = None
    param: float | None = None

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind: {self.kind!r}")
        if (self.severity is None) == (self.param is None):
            raise ValueError("specify exactly one of severity or param")
        if self.severity is not None and not 1 <= self.severity <= 5:
            raise ValueError(f"severity level out of range: {self.severity}")


def validate_severity_table(table: dict) -> None:
    for kind, params in table.items():
        if kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind: {kind!r}")
        if len(params) != 5:
            raise ValueError(f"{kind}: need exactly 5 severity parameters, got {len(params)}")
        for param in params:
            _check_domain(kind, param)  # rejects nan and inf as well
        direction = STRENGTH_DIRECTION[kind]
        for a, b in zip(params, params[1:]):
            if direction * (b - a) <= 0:
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
            raise ValueError(f"severity table line {lineno}: expected 'kind level parameter'")
        kind, level, param = parts[0], int(parts[1]), float(parts[2])
        rows.setdefault(kind, {})[level] = param
    table = {}
    for kind, levels in rows.items():
        if sorted(levels) != [1, 2, 3, 4, 5]:
            raise ValueError(f"{kind}: severity levels must be exactly 1..5")
        table[kind] = tuple(levels[i] for i in range(1, 6))
    validate_severity_table(table)
    return table


def format_severity_table(table: dict) -> str:
    lines = ["# kind level parameter"]
    for kind in sorted(table):
        for level, param in enumerate(table[kind], 1):
            lines.append(f"{kind} {level} {param!r}")
    return "\n".join(lines) + "\n"


def resolve_param(spec: CorruptionSpec, table: dict | None = None) -> float:
    if spec.param is not None:
        return float(spec.param)
    table = DEFAULT_SEVERITY if table is None else table
    if spec.kind not in table:
        raise ValueError(f"severity table has no entry for {spec.kind!r}")
    return float(table[spec.kind][spec.severity - 1])


def _check_domain(kind: str, param: float) -> None:
    ok = math.isfinite(param) and {
        "gaussian_noise": param >= 0,
        "shot_noise": param > 0,
        "impulse_noise": 0 <= param <= 1,
        "brightness": -1 <= param <= 1,
        "contrast": param >= 0,
        "defocus_blur": param >= 0,
        "pixelate": param >= 1 and float(param).is_integer(),
    }[kind]
    if not ok:
        raise ValueError(f"parameter out of domain for {kind}: {param!r}")


def _gaussian_noise(images: np.ndarray, sigma: float, states: np.ndarray) -> np.ndarray:
    return apply_gaussian_kernel(images, sigma, lockstep_fields(states, images.shape[1:]))


def _shot_noise(images: np.ndarray, lam: float, states: np.ndarray) -> np.ndarray:
    u = next_units(states, images.shape[1:])
    # Exact inverse-transform Poisson: k = F^{-1}(u) at mean img*lam.
    counts = stats.poisson.ppf(u, images * lam)
    counts = np.maximum(counts, 0.0)  # ppf(0) reports -1; floor it at zero
    return clip_unit(counts / lam)


def _impulse_noise(images: np.ndarray, p: float, states: np.ndarray) -> np.ndarray:
    u = next_units(states, images.shape[1:3])
    out = images.copy()
    out[u < p / 2] = 0.0
    out[(u >= p / 2) & (u < p)] = 1.0
    return out


_NOISE = {"gaussian_noise": _gaussian_noise, "shot_noise": _shot_noise, "impulse_noise": _impulse_noise}


def _contrast(images: np.ndarray, c: float) -> np.ndarray:
    m = images.mean(axis=(1, 2), keepdims=True)
    return clip_unit((images - m) * c + m)


def _disk_kernel(radius: float) -> np.ndarray:
    span = int(np.ceil(radius))
    offsets = np.arange(-span, span + 1)
    inside = offsets[:, None] ** 2 + offsets[None, :] ** 2 <= radius * radius
    kernel = inside.astype(np.float64)
    return kernel / kernel.sum()


def _defocus_blur(images: np.ndarray, radius: float) -> np.ndarray:
    kernel = _disk_kernel(radius)[None, :, :, None]
    return clip_unit(ndimage.convolve(images, kernel, mode="nearest"))


def _pixelate(images: np.ndarray, k: int) -> np.ndarray:
    _, h, w, _ = images.shape
    ys = np.arange(0, h, k)
    xs = np.arange(0, w, k)
    sums = np.add.reduceat(np.add.reduceat(images, ys, axis=1), xs, axis=2)
    heights = np.minimum(ys + k, h) - ys
    widths = np.minimum(xs + k, w) - xs
    means = sums / (heights[:, None, None] * widths[None, :, None])
    up = np.repeat(np.repeat(means, heights, axis=1), widths, axis=2)
    return clip_unit(up)


def corrupt(
    images: np.ndarray,
    spec: CorruptionSpec,
    seed: int | None = None,
    indices=None,
    tag: str = "",
    table: dict | None = None,
) -> np.ndarray:
    """Apply one corruption to a batch of images, shape (n, h, w, c). Noise
    kinds require a seed: image j draws from the (seed, indices[j], tag)
    stream, indices defaulting to range(n)."""
    if images.ndim != 4:
        raise ValueError("expected an (n, h, w, c) image batch")
    param = resolve_param(spec, table)
    _check_domain(spec.kind, param)
    if spec.kind == "brightness":
        return clip_unit(images + param)
    if spec.kind == "contrast":
        return _contrast(images, param)
    if spec.kind == "defocus_blur":
        return _defocus_blur(images, param)
    if spec.kind == "pixelate":
        return _pixelate(images, int(param))
    if seed is None:
        raise ValueError(f"{spec.kind} requires an rng seed")
    indices = range(len(images)) if indices is None else indices
    out = np.empty_like(images)
    for rows in lockstep_groups(len(images)):
        group = slice(rows.start, rows.stop)
        out[group] = _NOISE[spec.kind](images[group], param, derive_states(seed, indices[group], tag))
    return out


def gaussian_eval_suite(d: LabeledDataset, seed: int) -> list[tuple[float, LabeledDataset]]:
    """The six-sigma Gaussian noise suite used for robustness evaluation.

    Returns [(sigma, corrupted dataset)] for sigma in SIGMA_SUITE, in that
    order. Image i at sigma s is corrupted with the stream derived from
    (seed, i, "suite/<s>"), so the suite is reproducible image by image.
    """
    if len(d) == 0:
        raise ValueError("empty dataset")
    return [(sigma, LabeledDataset(corrupt(d.images, CorruptionSpec("gaussian_noise", param=sigma), seed,
                                           tag=f"suite/{sigma}"), d.labels.copy()))
            for sigma in SIGMA_SUITE]
