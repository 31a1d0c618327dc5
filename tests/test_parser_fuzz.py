"""Malformed input to the file parsers, and extreme parameters to the
corruptions: truncations and byte flips of valid payloads must be rejected
with ValueError and nothing else, since the CLI reports exactly that
exception as a clean error."""

import math
import sys

import numpy as np
import pytest

from robustaug.cli import _read_candidates, _read_error_map, _read_ints, parse_config
from robustaug.corrupt import CORRUPTION_KINDS, SIGMA_SUITE, corrupt, parse_severity_table
from robustaug.images import decode_tensor, encode_tensor, read_cifar10_batch
from robustaug.model import decode_model, encode_model, init_toy_model

from test_corrupt import DEFAULT_TABLE

CIFAR_BATCH = bytes([3]) + bytes(range(256)) * 12 + bytes([9]) + bytes(reversed(range(256))) * 12
CANDIDATES = "label,clean_acc," + ",".join(f"acc_{s}" for s in SIGMA_SUITE) + "\nA,0.97" + ",0.9" * 6 + "\n"

# name -> (parser taking bytes, valid payload)
PAYLOADS = {
    "cifar": (read_cifar10_batch, CIFAR_BATCH),
    "labels": (_read_ints, b"0 1\n2\n-3 +4\n9\n"),
    "error_map": (_read_error_map, b"kind,severity,error\ngaussian_noise,1,0.5\nbrightness,2,0.25\n"),
    "candidates": (_read_candidates, CANDIDATES.encode("ascii")),
    "imgt": (decode_tensor, encode_tensor(np.random.default_rng(1).random((4, 3, 3)))),
    "toym": (decode_model, encode_model(init_toy_model(2, 2, 1, 2, 2))),
    "config": (lambda b: parse_config(b.decode("latin-1")), b"seed=3\nkind = patch_gaussian\n# note\npad=4\n"),
    "severity_table": (lambda b: parse_severity_table(b.decode("latin-1")), DEFAULT_TABLE.encode("ascii")),
}


def _mutations(payload: bytes, seed: int):
    """Every truncation, then 400 copies with one to three bytes replaced."""
    for n in range(len(payload)):
        yield payload[:n]
    rng = np.random.default_rng(seed)
    for _ in range(400):
        data = bytearray(payload)
        for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
            data[pos] = int(rng.choice([rng.integers(0, 256), ord(","), ord("="), ord("\n"), ord("-")]))
        yield bytes(data)


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_malformed_payloads_raise_only_value_error(name):
    parse, payload = PAYLOADS[name]
    parse(payload)  # the valid payload parses
    rejected = 0
    for i, data in enumerate(_mutations(payload, seed=len(name))):
        try:
            parse(data)
        except ValueError:
            rejected += 1
        except Exception as e:  # noqa: BLE001 - any other type is the failure under test
            pytest.fail(f"{name} mutation {i} ({data!r}) raised {type(e).__name__}: {e}")
    assert rejected > 0


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "+Infinity"])
def test_severity_table_non_finite_parameter_is_a_value_error(token):
    # float() accepts these tokens, and byte flips of a valid table cannot
    # produce them; "nan" used to parse because it fails no comparison.
    lines = DEFAULT_TABLE.splitlines()
    for i in range(1, len(lines)):
        kind, level, _ = lines[i].split()
        bad = lines[:i] + [f"{kind} {level} {token}"] + lines[i + 1:]
        with pytest.raises(ValueError, match="out of domain"):
            parse_severity_table("\n".join(bad))


# each kind's smallest and largest finite in-domain parameters
EXTREMES = {
    "gaussian_noise": (0.0, sys.float_info.max),
    "shot_noise": (math.ulp(0.0), 1e10),
    "impulse_noise": (0.0, 1.0),
    "brightness": (-1.0, 1.0),
    "contrast": (0.0, sys.float_info.max),
    "defocus_blur": (0.0, 50.0),
    "pixelate": (1.0, sys.float_info.max),
}


@pytest.mark.parametrize("kind,param", [(kind, p) for kind in CORRUPTION_KINDS for p in EXTREMES[kind]])
def test_extreme_parameters_give_finite_output_or_value_error(kind, param):
    images = np.random.default_rng(7).random((2, 3, 2, 3))
    images[0, 0] = 0.0
    images[1, 0] = 1.0
    with np.errstate(over="ignore", under="ignore"):  # a huge noise scale overflows, then clips to [0, 1]
        try:
            out = corrupt(images, kind, param, seed=0)
        except ValueError:
            return
    assert out.shape == images.shape and np.isfinite(out).all()
