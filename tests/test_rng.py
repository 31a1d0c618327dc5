"""Stream derivation and draw disciplines against frozen goldens."""

import os

import numpy as np
import pytest

from robustaug import rng
from robustaug.augment import rect_masks
from robustaug.rng import (
    LOCKSTEP_STREAMS,
    derive_states,
    derive_stream,
    lockstep_fields,
    lockstep_groups,
    needed_normals,
    next_ints,
    next_units,
    permutations,
)

import rng_reference

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "rng_golden.txt")


class CountingReference(rng_reference.Reference):
    """A reference stream that counts its u64 draws."""

    draws = 0

    def u64(self):
        self.draws += 1
        return super().u64()


def reference_states(refs):
    """The (4, N) state array of the reference streams refs."""
    return np.array([ref.s for ref in refs], dtype=np.uint64).reshape(len(refs), 4).T


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
    # A million uniforms as 1000 streams of 1000, drawn in one lockstep call.
    u = next_units(derive_states(2024, range(1000), "unit-stats"), (1000,))
    assert u.size == 1_000_000
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 1e-3


def test_unit_array_matches_scalar_calls():
    a = derive_stream(5, 6, "bulk")
    b = derive_stream(5, 6, "bulk")
    ref = rng_reference.Reference(5, 6, "bulk")
    bulk = a.unit_array(257)
    scalar = np.array([b.next_unit() for _ in range(257)])
    assert np.array_equal(bulk, scalar)
    assert bulk.tolist() == [ref.unit() for _ in range(257)]
    assert a._state.tolist() == b._state.tolist() == ref.s


@pytest.mark.parametrize("count", [1, 7, 16, 130])
def test_lockstep_fields_match_scalar_fields(count):
    """Fields of a derive_states array whose columns were advanced by
    different numbers of next_ints draws over spans 3, 5 and 33 (span 33
    rejects about half its draws), against the reference's per-stream
    normals, with the states compared after every field."""
    states = derive_states(17, range(count), "lockstep")
    refs = [rng_reference.Reference(17, j, "lockstep") for j in range(count)]
    columns = np.arange(count)
    spans = np.array((2, 4, 32))[columns % 3]
    for step in range(3):
        # A column with lo == hi draws nothing, so column j takes j % 4 draws.
        hi = np.where(columns % 4 > step, spans, 0)
        next_ints(states, 0, hi)
        for ref, h in zip(refs, hi):
            ref.integer(0, int(h))
    # 105 values is odd: a reference stream ends the field holding a pending
    # normal, which lockstep_fields drops, so the reference drops it too.
    for shape in ((5, 7, 3), (32, 32, 1), (0,)):
        got = lockstep_fields(states, shape)
        want = np.array([[ref.normal() for _ in range(int(np.prod(shape)))] for ref in refs])
        for ref in refs:
            ref.pending = None
        assert got.shape == (count,) + shape
        assert np.array_equal(got.reshape(count, -1).view(np.uint64), want.view(np.uint64))
        assert np.array_equal(states, reference_states(refs))


@pytest.mark.parametrize("kind", ["normal", "unit"])
@pytest.mark.parametrize("size", [1, rng._SLAB_ROWS - 1, rng._SLAB_ROWS, rng._SLAB_ROWS + 1, 189])
@pytest.mark.parametrize("count", [1, rng._SLAB_ROWS + 6])
def test_fields_across_slab_boundaries(kind, size, count):
    """Fields of one, fewer, exactly and one more than a slab of steps, and
    of 189 values (three slabs, the last odd, so the normal field's pending
    normal is dropped), for one column and for more columns than a slab has
    rows; two fields in a row, so the second starts where the first left
    the states."""
    states = derive_states(29, range(count), "slab")
    refs = [rng_reference.Reference(29, j, "slab") for j in range(count)]
    for _ in range(2):
        if kind == "normal":
            got = lockstep_fields(states, (size,))
            want = np.array([[ref.normal() for _ in range(size)] for ref in refs])
            for ref in refs:
                ref.pending = None
        else:
            got = next_units(states, (size,))
            want = np.array([[ref.unit() for _ in range(size)] for ref in refs])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(states, reference_states(refs))


@pytest.mark.parametrize("shape", [(32, 32, 1), (9, 7, 3)])
def test_needed_normals_match_lockstep_fields(shape):
    """The needed-entries draw yields each selected entry of the full draw
    once, bit for bit, and nothing else, and leaves the states where the
    full draw leaves them; two draws in a row, so the second starts there.
    The masks are squares of sizes 1 to 2h clipped at the edges, one all
    True, one all False. (9, 7, 3) is 189 values: three slabs, the last odd,
    whose pending normal is dropped; channels share their pixel's mask."""
    h, w, _ = shape
    count = 70
    states = derive_states(41, range(count), "needed")
    full = states.copy()
    cols = np.arange(count)
    masks = rect_masks(cols * 5 % w, cols * 3 % h, h, w, 1 + cols % (2 * h))
    masks[0] = True
    masks[1] = False
    for _ in range(2):
        got = np.full((count,) + shape, np.nan)
        flat = got.reshape(-1)
        for columns, entries, z in needed_normals(states, shape, masks[..., None]):
            assert np.array_equal(columns, entries // (flat.size // count))
            assert np.all(np.isnan(flat[entries]))
            flat[entries] = z
        want = lockstep_fields(full, shape)
        selected = np.broadcast_to(masks[..., None], got.shape)
        assert np.array_equal(got[selected].view(np.uint64), want[selected].view(np.uint64))
        assert np.all(np.isnan(got[~selected]))
        assert np.array_equal(states, full)


def test_lockstep_groups_cover_whole_batches():
    n = 3 * LOCKSTEP_STREAMS + 5
    for count, multiple in ((0, 1), (5, 1), (n, 1), (n, 7), (n, 16), (n, LOCKSTEP_STREAMS + 100)):
        groups = lockstep_groups(count, multiple)
        assert [i for g in groups for i in g] == list(range(count))
        size = multiple * max(1, LOCKSTEP_STREAMS // multiple)
        assert all(len(g) == size for g in groups[:-1])
        assert len(groups) == -(-count // size)  # several groups for n, so the check above has cases


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
    # One draw from each of n streams, in one lockstep call.
    n = 400_000
    counts = np.bincount(next_ints(derive_states(31337, range(n), "freq"), 0, 3), minlength=4)
    assert np.all(np.abs(counts / n - 0.25) < 0.01)


def test_int_bounds_inclusive():
    # One draw from each of 20000 streams, in one lockstep call.
    v = next_ints(derive_states(8, range(20_000), "bounds"), 1, 250)
    assert v.min() == 1 and v.max() == 250


def test_normal_moments():
    # A million normals as 1000 streams of 1000, drawn in one lockstep call.
    z = lockstep_fields(derive_states(555, range(1000), "moments"), (1000,))
    assert z.size == 1_000_000
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
        want = rng_reference.seed_state(seed, index, tag)
        assert states[:, j].tolist() == derive_stream(seed, index, tag)._state.tolist() == want
    # Integer arrays, ranges and an empty batch take the same rule.
    assert np.array_equal(derive_states(seed, np.arange(-3, 4), tag), derive_states(seed, list(range(-3, 4)), tag))
    assert derive_states(seed, range(5), tag)[:, 2].tolist() == rng_reference.seed_state(seed, 2, tag)
    assert derive_states(seed, [], tag).shape == (4, 0)


def test_derive_states_share_the_all_zero_guard(monkeypatch):
    # No origin is known to mix to four zero words, so force the mixer to.
    monkeypatch.setattr(rng, "_mix64_array", lambda x: np.zeros_like(x))
    guarded = derive_stream(1, 2, "t")._state
    assert guarded.tolist() == [rng._GOLDEN, 0, 0, 0]
    assert np.array_equal(derive_states(1, [2, 3], "t"), np.stack([guarded, guarded], axis=1))


@pytest.mark.parametrize("columns", [1, 7, 130])
def test_lockstep_draws_match_scalar_draws(columns):
    """next_units and next_ints against the reference's per-stream draws,
    for spans 1, 3, 5, 9 and 33 (9 and 33 reject about half their draws)
    and a span that differs per column, then a 3x5 next_units field, with
    the states compared after every draw."""
    indices = np.arange(columns) * 3 - 1
    states = derive_states(41, indices, "draws")
    refs = [rng_reference.Reference(41, int(i), "draws") for i in indices]
    per_column_hi = indices % 6 + 3
    for lo, hi in ((0, 0), (4, 6), (0, 4), (1, 9), (-16, 16), (0, per_column_hi), (2, None)):
        if hi is None:
            got = next_units(states)
            want = [ref.unit() for ref in refs]
        else:
            got = next_ints(states, lo, hi)
            want = [ref.integer(lo, int(h)) for ref, h in zip(refs, np.broadcast_to(hi, columns))]
            assert got.dtype == np.int64
        assert got.tolist() == want
        assert np.array_equal(states, reference_states(refs))
    fields = next_units(states, (3, 5))
    assert fields.shape == (columns, 3, 5)
    assert fields.reshape(columns, 15).tolist() == [[ref.unit() for _ in range(15)] for ref in refs]
    assert np.array_equal(states, reference_states(refs))


def test_lockstep_int_degenerate_range_consumes_nothing_and_rejects_empty():
    states = derive_states(1, range(4), "deg")
    before = states.copy()
    assert next_ints(states, 7, 7).tolist() == [7] * 4
    assert np.array_equal(states, before)
    with pytest.raises(ValueError):
        next_ints(states, 3, np.array([5, 2, 5, 5]))


def reference_shuffle(ref, n):
    """Fisher-Yates over range(n) with one reference next_int per swap."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.integer(0, i)
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 400])
def test_permutation_matches_per_call_fisher_yates(n):
    states = derive_states(6, [n], "shuffle")
    ref = rng_reference.Reference(6, n, "shuffle")
    got = permutations(states, n)
    assert got.dtype == np.int64 and got.shape == (1, n)
    assert got[0].tolist() == reference_shuffle(ref, n)
    assert np.array_equal(states, reference_states([ref]))


@pytest.mark.parametrize("n, columns", [(0, 3), (1, 2), (2, 5), (3, 7), (17, 9), (400, 12)])
def test_permutations_of_columns_that_finish_in_different_rounds(n, columns):
    """Columns whose rejections differ need different numbers of draws, so
    they finish in different rounds; each column still matches the
    reference's per-call Fisher-Yates and stops at its last swap."""
    states = derive_states(6, range(columns), "shuffle")
    refs = [CountingReference(6, j, "shuffle") for j in range(columns)]
    got = permutations(states, n)
    assert got.shape == (columns, n)
    assert got.tolist() == [reference_shuffle(ref, n) for ref in refs]
    assert np.array_equal(states, reference_states(refs))
    if n >= 3:
        assert len({ref.draws for ref in refs}) > 1
