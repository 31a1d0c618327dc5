"""Deterministic, reproducible random streams for augmentation pipelines.

Every random decision in this package is drawn from an explicitly derived
stream so that a run is a pure function of (seed, image index, op tag).
Streams are cheap to create, independent of each other, and stable across
processes, batch boundaries and worker counts, which is what makes batched
and parallel dataset maps byte-reproducible.

Generator: xoshiro256** (Blackman & Vigna, 2018) with SplitMix64 seeding.

    state   four 64-bit words, filled by iterating SplitMix64 starting from
            seed XOR mix(index) XOR fnv1a(tag), where mix is the SplitMix64
            finalizer and fnv1a is the 64-bit FNV-1a hash of the UTF-8 tag
    output  rotl(s1 * 5, 7) * 9, then the xoshiro256** state transition

Derived quantities are fixed so independent implementations can reproduce
the byte stream:

    next_unit    (u64 >> 11) * 2**-53, a double in [0, 1)
    next_int     bitmask rejection over [lo, hi] inclusive; lo == hi consumes
                 no draw
    next_normal  Box-Muller on two units: r = sqrt(-2 log(1 - u1)),
                 z0 = r cos(2 pi u2), z1 = r sin(2 pi u2); both pair members
                 are emitted before new uniforms are consumed
    permutation  Fisher-Yates over range(n): position i swaps with
                 next_int(0, i) for i = n - 1 down to 1

One engine produces every draw, with numpy the only dependency. Streams are
the columns of a (4, N) uint64 state array; derive_states builds it for N
origins sharing seed and tag. _lockstep_u64 steps all columns together, nine
numpy calls over N columns per step, each step writing s1 straight into the
next row of an (n + 1, N) block that the scrambler then runs over once.
next_units, lockstep_fields and needed_normals (the entries a mask selects)
draw fields in slabs of _SLAB_ROWS steps, an even number, so a Box-Muller
pair never straddles two slabs and a slab's buffers are O(_SLAB_ROWS * N).
next_ints draws one integer per column (re-drawing only rejected columns)
and permutations one Fisher-Yates order per column; every draw advances
the columns as the one-stream calls would. Counter-derived streams
(Salmon et al., SC'11) make the grouping free: which columns step together,
and where a slab ends, never changes a bit.

RngStream, from derive_stream, is one such column and the pending normal an
odd-sized normal draw leaves; each method runs the state-array draw on a
(4, 1) view of its state. It keeps no record of its origin and derives no
children: the package draws only through state arrays, and the class stays
because perfbench's tracer wraps its methods by name.
"""

import math
from numbers import Integral

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_INV_2_53 = 2.0**-53
_TWO_PI = 2.0 * np.pi

# Columns of the derive_states arrays that batch callers step together, the
# size of a lockstep_groups group. A step costs about the same numpy call
# overhead for any number of columns up to a few hundred, so wide groups
# draw fast; at 400 a criterion-8 epoch is one group. The draw's own buffers
# are per slab (below); a group's images and fields are what the width
# costs, and callers build those in place.
LOCKSTEP_STREAMS = 400
# Steps per slab of a field draw: even, so Box-Muller pairs never straddle
# two slabs. A slab's block, floats and transpose hold _SLAB_ROWS * N values.
_SLAB_ROWS = 64

# uint64 shift and multiply operands for the engine and the derivation.
_U5 = np.uint64(5)
_U7 = np.uint64(7)
_U9 = np.uint64(9)
_U11 = np.uint64(11)
_U57 = np.uint64(57)
_U27 = np.uint64(27)
_U30 = np.uint64(30)
_U31 = np.uint64(31)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
# The increments of the four SplitMix64 steps of derive_states, as a column.
_SPLITMIX_STEPS = np.array([[(k * _GOLDEN) & _M64] for k in range(1, 5)], dtype=np.uint64)


def _fnv1a64(text: str) -> int:
    h = _FNV_BASIS
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _M64
    return h


def _lockstep_u64(states, n: int) -> np.ndarray:
    """(n, N) outputs; column j is the next n next_u64() of the stream whose
    four state words are states[:, j]. states, a (4, N) uint64 array, is
    advanced in place."""
    # Per-call overhead, not arithmetic, is the cost of a step at these
    # widths; separate word arrays and array shift counts keep it lowest.
    s0, s2, s3 = (states[k].copy() for k in (0, 2, 3))
    block = np.empty((n + 1, states.shape[1]), dtype=np.uint64)
    block[0] = states[1]
    t = np.empty_like(s0)
    k17, k45, k19 = (np.full_like(s0, k) for k in (17, 45, 19))
    rows = list(block)
    for s1, next_s1 in zip(rows, rows[1:]):  # s1 is written into the next row
        np.left_shift(s1, k17, t)
        s2 ^= s0
        s3 ^= s1
        np.bitwise_xor(s1, s2, next_s1)
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, k45, t)
        s3 >>= k19
        s3 |= t
    states[0], states[1], states[2], states[3] = s0, rows[n], s2, s3
    # Scramble the recorded s1 history: rotl(s1 * 5, 7) * 9.
    block = block[:n]
    scratch = np.empty_like(block)
    block *= _U5
    np.left_shift(block, _U7, out=scratch)
    block >>= _U57
    block |= scratch
    block *= _U9
    return block


def _slabs(states, n: int, pairs: bool):
    """Step states through n values, _SLAB_ROWS steps (whole pairs if pairs)
    at a time, yielding each slab's first position and its (rows, N) block
    of u64 >> 11 values."""
    for start in range(0, n, _SLAB_ROWS):
        rows = min(_SLAB_ROWS, n - start)
        block = _lockstep_u64(states, rows + rows % 2 if pairs else rows)
        block >>= _U11
        yield start, block


def _lockstep_field(states, shape, normal: bool) -> np.ndarray:
    """(N,) + shape: entry j holds the next uniforms, or normals, of the
    stream in column j of states in row-major order; the states advance in
    place, and the pending normal of an odd-sized field is dropped."""
    n = math.prod(int(dim) for dim in shape)
    out = np.empty((states.shape[1], n))
    for start, block in _slabs(states, n, normal):
        u = block * _INV_2_53
        if normal:
            u[0::2], u[1::2] = _box_muller(u[0::2], u[1::2], np.cos, np.sin)
        out[:, start:start + len(u)] = u[:n - start].T
    return out.reshape((states.shape[1],) + tuple(shape))


def _box_muller(u1, u2, *trigs) -> list:
    """Box-Muller's r * trig(2 pi u2), r = sqrt(-2 log(1 - u1)), for each of
    trigs (np.cos: z0, np.sin: z1), on fresh C-contiguous arrays."""
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    theta = _TWO_PI * u2
    return [r * trig(theta) for trig in trigs]


class RngStream:
    """A single xoshiro256** stream: one state column and the pending
    normal an odd-sized normal draw leaves. Every draw is the state-array
    draw on a one-column view of the state. Build it with derive_stream.
    """

    __slots__ = ("_state", "_pending_normal")

    def __init__(self, words):
        self._state = np.array(words, dtype=np.uint64)
        self._pending_normal = None

    def next_u64(self) -> int:
        return int(_lockstep_u64(self._state[:, None], 1)[0, 0])

    def next_unit(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return float(next_units(self._state[:, None])[0])

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Uses bitmask rejection, so there is no modulo bias. lo == hi is
        answered without consuming a draw.
        """
        return int(next_ints(self._state[:, None], lo, hi)[0])

    def next_normal(self) -> float:
        """Standard normal via Box-Muller; pair members come out in order."""
        return float(self.normal_array(1)[0])

    def unit_array(self, n: int) -> np.ndarray:
        """n uniforms, bit-identical to n next_unit() calls."""
        return next_units(self._state[:, None], (n,))[0]

    def normal_array(self, n: int) -> np.ndarray:
        """n normals, bit-identical to n next_normal() calls: a pending
        normal comes first, and an odd count leaves one pending."""
        pending = [] if self._pending_normal is None else [self._pending_normal]
        draw = max(0, n - len(pending))
        z = np.concatenate([pending, _lockstep_field(self._state[:, None], (draw + draw % 2,), True)[0]])
        self._pending_normal = float(z[n]) if len(z) > n else None
        return z[:n]

    def normal_field(self, shape) -> np.ndarray:
        """Normal field filled in row-major (C) order."""
        return self.normal_array(math.prod(int(dim) for dim in shape)).reshape(shape)


def derive_stream(seed: int, index: int, tag: str) -> RngStream:
    """The stream of origin (seed, index, tag): column 0 of
    derive_states(seed, [index], tag)."""
    return RngStream(derive_states(seed, [index], tag)[:, 0])


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of every element of a uint64 array, computed
    in place; it decorrelates adjacent indices."""
    t = np.empty_like(x)
    for shift, factor in ((_U30, _U_MIX1), (_U27, _U_MIX2), (_U31, None)):
        np.right_shift(x, shift, out=t)
        x ^= t
        if factor is not None:
            x *= factor
    return x


def _as_u64(indices) -> np.ndarray:
    """Integer indices modulo 2**64 as a uint64 array. Integer arrays wrap
    exactly; numpy gives Python integers beyond one integer dtype a float or
    object array, so the items themselves are checked and reduced one by one."""
    x = np.asarray(indices)
    if x.dtype.kind in "biu":
        return x.astype(np.uint64)
    if not all(isinstance(i, Integral) for i in indices):
        raise ValueError(f"stream indices must be integers, got {x.dtype} values")
    return np.array([int(i) & _M64 for i in indices], dtype=np.uint64)


def derive_states(seed: int, indices, tag: str) -> np.ndarray:
    """The xoshiro states of many origins sharing seed and tag: a
    C-contiguous (4, len(indices)) uint64 array whose column j is the state
    of origin (seed, indices[j], tag), seeded as the module docstring
    documents. seed and indices are integers (numpy's too) taken modulo
    2**64; any other value raises ValueError."""
    if not isinstance(seed, Integral):
        raise ValueError(f"stream seed must be an integer, got {seed!r}")
    base = _mix64_array(_as_u64(indices))
    base ^= np.uint64((int(seed) & _M64) ^ _fnv1a64(tag))
    # SplitMix64 word k is the mix of base + k * golden, k = 1..4.
    states = _mix64_array(np.add(base, _SPLITMIX_STEPS))
    zero = (states[0] | states[1] | states[2] | states[3]) == 0
    states[0, zero] = _GOLDEN  # xoshiro must not start all-zero
    return states


def next_units(states, shape=()) -> np.ndarray:
    """Uniform fields of the columns of a (4, N) state array, shape
    (N,) + shape: entry j is unit_array(prod(shape)) of column j's stream,
    filled in row-major order. The default shape () draws one next_unit()
    per column."""
    return _lockstep_field(states, shape, False)


def next_ints(states, lo, hi) -> np.ndarray:
    """One next_int(lo, hi) per column of a (4, N) state array, as an (N,)
    int64 array; lo and hi are integers or (N,) arrays.

    Each round draws only for the columns whose last draw the bitmask
    rejected, and a column with lo == hi draws nothing."""
    n = states.shape[1]
    lo = np.broadcast_to(np.asarray(lo, dtype=np.int64), n)
    hi = np.broadcast_to(np.asarray(hi, dtype=np.int64), n)
    if np.any(lo > hi):
        raise ValueError("empty range")
    top = (hi - lo).astype(np.uint64)  # span - 1
    mask = top.copy()  # all ones below the highest set bit of span - 1
    for shift in (1, 2, 4, 8, 16, 32):
        mask |= mask >> np.uint64(shift)
    out = np.zeros(n, dtype=np.uint64)
    todo = np.flatnonzero(top)
    while todo.size:
        sub = states[:, todo]
        x = _lockstep_u64(sub, 1)[0]
        states[:, todo] = sub
        x &= mask[todo]
        ok = x <= top[todo]
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    return lo + out.astype(np.int64)


def permutations(states, n: int) -> np.ndarray:
    """One Fisher-Yates permutation of range(n) per column of a (4, N) state
    array, as an (N, n) int64 array; the states advance as the column's
    next_int(0, i) calls for i = n - 1 down to 1 would.

    Each of those calls draws at least once, so every round steps the
    unfinished columns by the fewest swaps any of them has left, and no
    column draws past its last swap."""
    orders = [list(range(n)) for _ in range(states.shape[1])]
    left = [n - 1] * states.shape[1]  # swaps left, also the next position
    todo = list(range(states.shape[1])) if n > 1 else []
    while todo:
        sub = states[:, todo]
        block = _lockstep_u64(sub, min(left[j] for j in todo))
        states[:, todo] = sub
        for j, draws in zip(todo, block.T.tolist()):
            order, i = orders[j], left[j]
            for x in draws:
                x &= (1 << i.bit_length()) - 1
                if x <= i:
                    order[i], order[x] = order[x], order[i]
                    i -= 1
            left[j] = i
        todo = [j for j in todo if left[j]]
    return np.array(orders, dtype=np.int64).reshape(states.shape[1], n)


def lockstep_fields(states, shape) -> np.ndarray:
    """Normal fields of the columns of a (4, N) state array, shape
    (N,) + shape: entry j is the normal_field(shape) of a stream with state
    states[:, j] and no pending normal. The states advance as that call
    would; the pending normal an odd-sized field leaves is dropped."""
    return _lockstep_field(states, shape, True)


def needed_normals(states, shape, needed):
    """Yields (columns, entries, normals) for the entries of
    lockstep_fields(states, shape) that needed, a boolean array broadcast to
    (N,) + shape, selects; entries index that field flattened. Exhausted, it
    leaves the states where lockstep_fields would. Only pairs holding a
    selected entry are converted, each into the members selected."""
    n, width = math.prod(int(dim) for dim in shape), states.shape[1]
    needed = np.moveaxis(np.broadcast_to(needed, (width,) + tuple(shape)), 0, -1)  # slabs gather as blocks
    for start, block in _slabs(states, n, True):
        slab = needed[np.unravel_index(np.arange(start, min(n, start + _SLAB_ROWS)), shape)]
        for parity, trig in enumerate((np.cos, np.sin)):
            k = np.flatnonzero(slab[parity::2])  # pair k // width of column k % width
            pair, cols = k // width, k % width
            first = k + pair * width  # the pair's first member in block
            z, = _box_muller(block.take(first) * _INV_2_53, block.take(first + width) * _INV_2_53, trig)
            yield cols, cols * n + 2 * pair + (start + parity), z


def lockstep_groups(n: int, multiple: int = 1) -> list:
    """Consecutive ranges covering range(n), each the largest multiple of
    `multiple` that fits in LOCKSTEP_STREAMS (at least one multiple) except
    possibly the last, so callers can draw whole batches' fields together."""
    size = multiple * max(1, LOCKSTEP_STREAMS // multiple)
    return [range(start, min(n, start + size)) for start in range(0, n, size)]
