"""Stream derivation and draw disciplines against frozen goldens."""

import os

import numpy as np
import pytest

from robustaug import rng
from robustaug.rng import (
    LOCKSTEP_STREAMS,
    derive_states,
    derive_stream,
    lockstep_fields,
    lockstep_groups,
    next_ints,
    next_units,
)

import rng_reference

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "rng_golden.txt")


def load_golden():
    sections = []
    with open(FIXTURE) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                sections.append((line, []))
            else:
                sections[-1][1].append(line)
    return sections


def test_fixture_matches_reference_implementation():
    # The checked-in file must stay in sync with the generator.
    with open(FIXTURE) as fh:
        assert fh.read() == rng_reference.emit()


def test_golden_values():
    sections = load_golden()
    assert len(sections) == len(rng_reference.CASES)
    for (header, lines), (kind, seed, index, tag, count) in zip(
        sections, rng_reference.CASES
    ):
        assert f"seed={seed}" in header and kind in header
        stream = derive_stream(seed, index, tag)
        for expected in lines:
            if kind == "u64":
                assert stream.next_u64() == int(expected)
            elif kind == "unit":
                assert stream.next_unit() == float(expected)
            else:
                assert stream.next_normal() == float(expected)
        assert len(lines) == count


def test_same_origin_same_stream():
    a = derive_stream(99, 5, "op")
    b = derive_stream(99, 5, "op")
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_distinct_origins_distinct_streams():
    base = derive_stream(1, 0, "x")
    for other in [derive_stream(2, 0, "x"), derive_stream(1, 1, "x"), derive_stream(1, 0, "y")]:
        assert base._state.tolist() != other._state.tolist()


def test_derive_chains_tags():
    parent = derive_stream(3, 4, "pipeline")
    child = parent.derive("aug")
    assert child.tag == "pipeline/aug"
    twin = derive_stream(3, 4, "pipeline/aug")
    assert child.next_u64() == twin.next_u64()


def test_unit_range_and_mean():
    stream = derive_stream(2024, 0, "unit-stats")
    u = stream.unit_array(1_000_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 1e-3


def test_unit_array_matches_scalar_calls():
    a = derive_stream(5, 6, "bulk")
    b = derive_stream(5, 6, "bulk")
    bulk = a.unit_array(257)
    scalar = np.array([b.next_unit() for _ in range(257)])
    assert np.array_equal(bulk, scalar)


@pytest.mark.parametrize("count", [1, 7, 16, 130])
def test_lockstep_fields_match_scalar_fields(count):
    """Fields of a derive_states array whose columns were advanced by
    different numbers of next_ints draws over spans 3, 5 and 33 (span 33
    rejects about half its draws), against scalar normal_field calls, with
    the states compared after every field."""
    states = derive_states(17, range(count), "lockstep")
    streams = [derive_stream(17, j, "lockstep") for j in range(count)]
    columns = np.arange(count)
    spans = np.array((2, 4, 32))[columns % 3]
    for step in range(3):
        # A column with lo == hi draws nothing, so column j takes j % 4 draws.
        hi = np.where(columns % 4 > step, spans, 0)
        next_ints(states, 0, hi)
        for stream, h in zip(streams, hi):
            stream.next_int(0, int(h))
    # 105 values is odd: a scalar stream ends the field holding a pending
    # normal, which lockstep_fields drops, so the scalar side drops it too.
    for shape in ((5, 7, 3), (32, 32, 1), (0,)):
        got = lockstep_fields(states, shape)
        want = np.stack([s.normal_field(shape) for s in streams])
        for stream in streams:
            stream._pending_normal = None
        assert got.shape == (count,) + shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(states, np.stack([s._state for s in streams], axis=1))


def test_lockstep_groups_cover_whole_batches():
    for n, multiple in ((0, 1), (5, 1), (300, 16), (300, 7), (300, 500)):
        groups = lockstep_groups(n, multiple)
        assert [i for g in groups for i in g] == list(range(n))
        size = multiple * max(1, LOCKSTEP_STREAMS // multiple)
        assert all(len(g) == size for g in groups[:-1])


def test_int_degenerate_range_consumes_nothing():
    stream = derive_stream(1, 1, "deg")
    before = stream._state.copy()
    assert stream.next_int(7, 7) == 7
    assert np.array_equal(stream._state, before)


def test_int_rejects_empty_range():
    stream = derive_stream(1, 1, "bad")
    with pytest.raises(ValueError):
        stream.next_int(3, 2)


def test_int_uniform_frequencies():
    stream = derive_stream(31337, 0, "freq")
    n = 400_000
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(n):
        counts[stream.next_int(0, 3)] += 1
    assert np.all(np.abs(counts / n - 0.25) < 0.01)


def test_int_bounds_inclusive():
    stream = derive_stream(8, 8, "bounds")
    seen = set()
    for _ in range(20_000):
        v = stream.next_int(1, 250)
        assert 1 <= v <= 250
        seen.add(v)
    assert 1 in seen and 250 in seen


def test_normal_moments():
    stream = derive_stream(555, 0, "moments")
    z = stream.normal_array(1_000_000)
    assert abs(z.mean()) < 5e-3
    assert abs(z.std() - 1.0) < 5e-3


def test_normal_pair_parity():
    # Draws 2k and 2k+1 together consume exactly two uniforms.
    a = derive_stream(12, 0, "parity")
    b = derive_stream(12, 0, "parity")
    for _ in range(6):
        a.next_normal()
    for _ in range(6):
        b.next_unit()
    assert np.array_equal(a._state, b._state)
    # An odd count leaves one uniform pair consumed and one member pending.
    c = derive_stream(12, 0, "parity")
    d = derive_stream(12, 0, "parity")
    for _ in range(3):
        c.next_normal()
    for _ in range(4):
        d.next_unit()
    assert np.array_equal(c._state, d._state)
    assert c._pending_normal is not None


def test_normal_pair_arithmetic():
    # Both pair members follow from the two defining uniforms.
    probe = derive_stream(77, 3, "pair")
    u1 = probe.next_unit()
    u2 = probe.next_unit()
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    expected0 = float(r * np.cos(2.0 * np.pi * u2))
    expected1 = float(r * np.sin(2.0 * np.pi * u2))
    stream = derive_stream(77, 3, "pair")
    assert stream.next_normal() == expected0
    assert stream.next_normal() == expected1


def test_normal_array_matches_scalar_calls():
    a = derive_stream(13, 1, "nbulk")
    b = derive_stream(13, 1, "nbulk")
    bulk = a.normal_array(10_001)
    scalar = np.array([b.next_normal() for _ in range(10_001)])
    assert np.array_equal(bulk, scalar)
    # Pending half-pair carries across calls identically.
    assert a.next_normal() == b.next_normal()


def test_normal_field_row_major():
    a = derive_stream(21, 4, "field")
    b = derive_stream(21, 4, "field")
    field = a.normal_field((3, 4, 2))
    flat = b.normal_array(24)
    assert np.array_equal(field.reshape(-1), flat)


def test_negative_and_huge_origins_mask_to_64_bits():
    assert derive_stream(-1, 0, "t").next_u64() == derive_stream(2**64 - 1, 0, "t").next_u64()
    assert derive_stream(0, -2, "t").next_u64() == derive_stream(0, 2**64 - 2, "t").next_u64()


@pytest.mark.parametrize("seed", [0, 2**64 + 5, -9])
@pytest.mark.parametrize("tag", ["", "ep3/flipcrop", "fourier/\u00e9,\u2202"])
def test_derive_states_match_derive_stream(seed, tag):
    indices = [0, 2**64 - 1, -1, -2**70, 7, 2**64 + 7]
    states = derive_states(seed, indices, tag)
    assert states.dtype == np.uint64 and states.shape == (4, len(indices)) and states.flags.c_contiguous
    for j, index in enumerate(indices):
        assert np.array_equal(states[:, j], derive_stream(seed, index, tag)._state)
    # Integer arrays, ranges and an empty batch take the same rule.
    assert np.array_equal(derive_states(seed, np.arange(-3, 4), tag), derive_states(seed, list(range(-3, 4)), tag))
    assert np.array_equal(derive_states(seed, range(5), tag)[:, 2], derive_stream(seed, 2, tag)._state)
    assert derive_states(seed, [], tag).shape == (4, 0)


def test_derive_states_share_the_all_zero_guard(monkeypatch):
    # No origin is known to mix to four zero words, so force the mixers to.
    monkeypatch.setattr(rng, "_mix64", lambda x: 0)
    monkeypatch.setattr(rng, "_mix64_array", lambda x: np.zeros_like(x))
    guarded = derive_stream(1, 2, "t")._state
    assert guarded.tolist() == [rng._GOLDEN, 0, 0, 0]
    assert np.array_equal(derive_states(1, [2, 3], "t"), np.stack([guarded, guarded], axis=1))


@pytest.mark.parametrize("columns", [1, 7, 130])
def test_lockstep_draws_match_scalar_draws(columns):
    """next_units and next_ints against the scalar calls, for spans 1, 3, 5,
    9 and 33 (9 and 33 reject about half their draws) and a span that
    differs per column, then a 3x5 next_units field against unit_array,
    with the states compared after every draw."""
    indices = np.arange(columns) * 3 - 1
    states = derive_states(41, indices, "draws")
    streams = [derive_stream(41, int(i), "draws") for i in indices]
    per_column_hi = indices % 6 + 3
    for lo, hi in ((0, 0), (4, 6), (0, 4), (1, 9), (-16, 16), (0, per_column_hi), (2, None)):
        if hi is None:
            got = next_units(states)
            want = [s.next_unit() for s in streams]
        else:
            got = next_ints(states, lo, hi)
            want = [s.next_int(lo, int(h)) for s, h in zip(streams, np.broadcast_to(hi, columns))]
            assert got.dtype == np.int64
        assert got.tolist() == want
        assert np.array_equal(states, np.stack([s._state for s in streams], axis=1))
    fields = next_units(states, (3, 5))
    assert np.array_equal(fields, np.stack([s.unit_array(15).reshape(3, 5) for s in streams]))
    assert np.array_equal(states, np.stack([s._state for s in streams], axis=1))


def test_lockstep_int_degenerate_range_consumes_nothing_and_rejects_empty():
    states = derive_states(1, range(4), "deg")
    before = states.copy()
    assert next_ints(states, 7, 7).tolist() == [7] * 4
    assert np.array_equal(states, before)
    with pytest.raises(ValueError):
        next_ints(states, 3, np.array([5, 2, 5, 5]))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
def test_permutation_matches_per_call_fisher_yates(n):
    walked = derive_stream(6, n, "shuffle")
    called = derive_stream(6, n, "shuffle")
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = called.next_int(0, i)
        order[i], order[j] = order[j], order[i]
    got = walked.permutation(n)
    assert got.dtype == np.int64 and got.tolist() == order
    assert np.array_equal(walked._state, called._state)
