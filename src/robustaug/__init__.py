"""Noise augmentation, corruption robustness metrics, and Fourier probes.

The package is organized around a deterministic RNG contract (rng), image
tensors and their file formats (images), the augmentation family (augment),
test-time corruptions (corrupt), robustness metrics (metrics), Fourier
sensitivity analysis (fourier), a small frozen-feature classifier for
controlled experiments (model), an order-preserving map over forked worker
processes (parallel), and a command line front end (cli).
"""

__version__ = "0.1.0"
