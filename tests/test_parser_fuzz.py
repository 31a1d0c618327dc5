"""Malformed input to the file parsers: truncations and byte flips of valid
payloads must be rejected with ValueError and nothing else, since the CLI
reports exactly that exception as a clean error."""

import numpy as np
import pytest

from robustaug.cli import parse_config
from robustaug.corrupt import DEFAULT_SEVERITY, format_severity_table, parse_severity_table
from robustaug.fourier import FourierHeatmap, format_heatmap_csv, parse_heatmap_csv
from robustaug.images import decode_tensor, encode_tensor
from robustaug.model import decode_model, encode_model, init_toy_model


def _heatmap_text() -> str:
    hm = FourierHeatmap(probe="first_layer", norm=4.0, seed=3,
                        grid={(0, 0): 0.25, (-1, 2): 0.5}, absolute={(0, 0): 1.5, (-1, 2): 2.0})
    return format_heatmap_csv(hm)


# name -> (parser taking bytes, valid payload)
PAYLOADS = {
    "imgt": (decode_tensor, encode_tensor(np.random.default_rng(1).random((4, 3, 3)))),
    "toym": (decode_model, encode_model(init_toy_model(2, 2, 1, 2, 2))),
    "heatmap_csv": (lambda b: parse_heatmap_csv(b.decode("latin-1")), _heatmap_text().encode("ascii")),
    "config": (lambda b: parse_config(b.decode("latin-1")), b"seed=3\nkind = patch_gaussian\n# note\npad=4\n"),
    "severity_table": (lambda b: parse_severity_table(b.decode("latin-1")),
                       format_severity_table(DEFAULT_SEVERITY).encode("ascii")),
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


@pytest.mark.parametrize("text", [
    "# probe=test_error v=4.0\ni,j,value\n0,0,0.5\n",
    "# probe=test_error v=4.0 seed=1\ni,j,value\n0,0\n",
    "# probe=test_error v=4.0 seed=1\ni,j,value\n0,0,0.5,1.0,2.0\n",
    "# probe=first_layer v=1.0 seed=2\ni,j,value,absolute\n0,0,0.5,1.0\n0,1,0.25\n",
    "# probe=test_error v=4.0 seed=1\ni,j\n0,0\n",
], ids=["no_seed", "short_row", "long_row", "row_without_absolute", "no_value_column"])
def test_heatmap_csv_missing_field_is_a_value_error(text):
    # Each of these used to raise KeyError or IndexError, or parse into a
    # heatmap that format_heatmap_csv could not write back.
    with pytest.raises(ValueError):
        parse_heatmap_csv(text)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "+Infinity"])
def test_severity_table_non_finite_parameter_is_a_value_error(token):
    # float() accepts these tokens, and byte flips of a valid table cannot
    # produce them; "nan" used to parse because it fails no comparison.
    lines = format_severity_table(DEFAULT_SEVERITY).splitlines()
    for i in range(1, len(lines)):
        kind, level, _ = lines[i].split()
        bad = lines[:i] + [f"{kind} {level} {token}"] + lines[i + 1:]
        with pytest.raises(ValueError, match="out of domain"):
            parse_severity_table("\n".join(bad))
