"""Robustness metrics: accuracy, relative Gaussian robustness, CE/mCE.

Corruption error aggregates by ratio of sums: CE for a kind is the model's
summed error over severities divided by the baseline's summed error, and
mCE is the unweighted mean of CE over kinds. The (-noise) variant drops the
three noise kinds so that models trained on noise are not graded on the
very thing they trained against.

Hyper-parameter selection follows a constrained rule: among candidates
whose clean accuracy clears the floor z, pick the most robust one; if
nobody clears the floor, fall back to the highest clean accuracy. Ties
break by input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corrupt import NOISE_KINDS, SIGMA_SUITE


@dataclass
class EvalResult:
    """Accuracy measurements for one model."""

    clean_accuracy: float
    per_sigma_accuracy: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in [self.clean_accuracy, *self.per_sigma_accuracy.values()]:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"fraction out of range: {v}")


@dataclass
class Candidate:
    """One sweep point: a labeled augmentation setting plus its evaluation."""

    label: str
    result: EvalResult


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"length mismatch: {predictions.shape} predictions vs {labels.shape} labels")
    if predictions.size == 0:
        raise ValueError("empty predictions")
    return float(np.count_nonzero(predictions == labels)) / predictions.size


def relative_gaussian_robustness(e: EvalResult) -> float:
    """Mean accuracy over the six-sigma suite minus clean accuracy."""
    missing = [s for s in SIGMA_SUITE if s not in e.per_sigma_accuracy]
    if missing:
        raise ValueError(f"missing sigma entries: {missing}")
    corrupted = [e.per_sigma_accuracy[s] for s in SIGMA_SUITE]
    return sum(corrupted) / len(corrupted) - e.clean_accuracy


def corruption_error(model_err: dict, baseline_err: dict) -> dict:
    """Per-kind CE: summed model error / summed baseline error."""
    if set(model_err) != set(baseline_err):
        only_m = sorted(set(model_err) - set(baseline_err))
        only_b = sorted(set(baseline_err) - set(model_err))
        raise ValueError(f"key mismatch: model-only {only_m}, baseline-only {only_b}")
    kinds = sorted({kind for kind, _ in model_err})
    ce = {}
    for kind in kinds:
        keys = [k for k in model_err if k[0] == kind]
        denom = sum(baseline_err[k] for k in keys)
        if denom <= 0.0:
            raise ValueError(f"degenerate baseline: zero summed error for {kind!r}")
        ce[kind] = sum(model_err[k] for k in keys) / denom
    return ce


def mce(ce: dict, exclude_noise: bool = False) -> float:
    """Unweighted mean CE over kinds, optionally dropping the noise kinds."""
    included = [v for k, v in ce.items() if not (exclude_noise and k in NOISE_KINDS)]
    if not included:
        raise ValueError("no corruption kinds left after exclusion")
    return sum(included) / len(included)


def select_hparams(candidates, z: float) -> Candidate:
    """Most robust candidate with clean accuracy >= z, else best clean."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidates")
    if np.isnan(z):
        raise ValueError("clean accuracy threshold z is nan")
    qualified = [c for c in candidates if c.result.clean_accuracy >= z]
    # max keeps the first of equal maxima, so ties break by input order.
    if qualified:
        return max(qualified, key=lambda c: relative_gaussian_robustness(c.result))
    return max(candidates, key=lambda c: c.result.clean_accuracy)
