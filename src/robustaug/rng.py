"""Deterministic, reproducible random streams for augmentation pipelines.

Every random decision in this package is drawn from an explicitly derived
stream so that a run is a pure function of (seed, image index, op tag).
Streams are cheap to create, independent of each other, and stable across
processes, batch boundaries and worker counts, which is what makes batched
and parallel dataset maps byte-reproducible.

Generator: xoshiro256** with SplitMix64 seeding.

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
the columns of a (4, N) uint64 state array. derive_states computes the array
of N origins that share seed and tag with uint64 array arithmetic, and
_lockstep_u64 steps all its columns together: each step is a few in-place
numpy ops over the N columns, only s1 is recorded per step, and the
scrambler and Box-Muller then run once over the (n, N) block. The draws
continue on that array: next_units draws each column's uniform field (one
unit by default), next_ints one integer per column (re-drawing only rejected
columns; lo == hi draws nothing), lockstep_fields each column's normal field
and permutations each column's Fisher-Yates order, each advancing the
columns as the one-stream calls would. Counter-derived streams (Salmon et
al., SC'11) make the grouping free: which columns step together never
changes a bit.

RngStream is one such column with its origin record and the pending normal
an odd-sized normal draw leaves; derive_stream builds it from a one-column
derive_states, and each method runs the state-array draw on a (4, 1) view
of its state. The package draws from single streams only for the model
filters (normal_array); the tests' per-image references draw through the
other methods, and perfbench's tracer wraps all of them by name.
"""

import math

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
# size of a lockstep_groups group. A lockstep step costs about the same numpy
# call overhead for any number of columns, so larger groups are faster per
# field, but a group's fields and images are held at once: 96 columns of
# 32x32 fields keep the working set under 1 MB per array.
LOCKSTEP_STREAMS = 96

# uint64 shift and multiply operands for the engine and the derivation.
_U5 = np.uint64(5)
_U7 = np.uint64(7)
_U9 = np.uint64(9)
_U11 = np.uint64(11)
_U17 = np.uint64(17)
_U19 = np.uint64(19)
_U45 = np.uint64(45)
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


def _lockstep_u64(states, n: int, scratch=None) -> np.ndarray:
    """(n, N) outputs; column j is the next n next_u64() of the stream whose
    four state words are states[:, j]. states, a (4, N) uint64 array, is
    advanced in place; scratch, if given, is an (n, N) 8-byte buffer the
    scrambler may overwrite."""
    _, s1, s2, s3 = states
    low, high, s1_s0 = states[0:2], states[2:4], states[1::-1]
    block = np.empty((n, states.shape[1]), dtype=np.uint64)
    t = np.empty_like(s1)
    for row in block:
        row[...] = s1
        np.left_shift(s1, _U17, out=t)
        high ^= low  # s2 ^= s0; s3 ^= s1
        s1_s0 ^= high  # s1 ^= s2; s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _U45, out=t)
        s3 >>= _U19
        s3 |= t
    # Scramble the recorded s1 history: rotl(s1 * 5, 7) * 9.
    scratch = np.empty_like(block) if scratch is None else scratch.view(np.uint64)
    block *= _U5
    np.left_shift(block, _U7, out=scratch)
    block >>= _U57
    block |= scratch
    block *= _U9
    return block


def _lockstep_units(states, n: int) -> np.ndarray:
    """(n, N) uniforms; column j is unit_array(n) of the stream whose four
    state words are states[:, j], which advance in place."""
    u = np.empty((n, states.shape[1]), dtype=np.float64)
    block = _lockstep_u64(states, n, scratch=u)
    block >>= _U11
    u[...] = block
    u *= _INV_2_53
    return u


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from uniform pairs along axis 0, written over u: rows 2k and
    2k+1 become z0 and z1 of the pair in rows 2k and 2k+1. The
    transcendental functions run on fresh C-contiguous arrays."""
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    theta = _TWO_PI * u2
    u[0::2] = r * np.cos(theta)
    u[1::2] = r * np.sin(theta)
    return u


class RngStream:
    """A single xoshiro256** stream plus the record of how it was derived.

    Do not construct directly; use derive_stream so the origin record
    (seed, index, tag) stays truthful. The record is what allows an op to
    spawn children via derive() without coordinating with other ops. Every
    draw is the state-array draw on a one-column view of the state.
    """

    __slots__ = ("seed", "index", "tag", "_state", "_pending_normal")

    def __init__(self, words, seed: int, index: int, tag: str):
        self._state = np.array(words, dtype=np.uint64)
        self.seed = seed
        self.index = index
        self.tag = tag
        self._pending_normal = None

    def derive(self, child_tag: str) -> "RngStream":
        """Child stream for a sub-operation; tags chain with '/'."""
        return derive_stream(self.seed, self.index, child_tag_of(self.tag, child_tag))

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
        out = np.empty(n, dtype=np.float64)
        k = 0
        if self._pending_normal is not None and n > 0:
            out[0] = self._pending_normal
            self._pending_normal = None
            k = 1
        remaining = n - k
        if remaining <= 0:
            return out
        z = _box_muller(_lockstep_units(self._state[:, None], remaining + remaining % 2))[:, 0]
        out[k:] = z[:remaining]
        if remaining % 2 == 1:
            self._pending_normal = float(z[-1])
        return out

    def normal_field(self, shape) -> np.ndarray:
        """Normal field filled in row-major (C) order."""
        return self.normal_array(math.prod(int(dim) for dim in shape)).reshape(shape)


def child_tag_of(tag: str, child: str) -> str:
    """The tag of RngStream.derive(child) on a stream tagged tag."""
    return f"{tag}/{child}" if tag else child


def derive_stream(seed: int, index: int, tag: str) -> RngStream:
    """Derive an independent stream from (global seed, image index, op tag).

    seed and index are taken modulo 2**64; tag is any short string. Streams
    with different origins are statistically independent, and the same
    origin always yields the same byte stream.
    """
    return RngStream(derive_states(seed, [index], tag)[:, 0], seed, index, tag)


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
    """Indices modulo 2**64 as a uint64 array. Integer arrays wrap exactly;
    numpy gives Python integers beyond one integer dtype a float or object
    array, so those are reduced one by one."""
    x = np.asarray(indices)
    if x.dtype.kind not in "iu":
        x = np.array([int(i) & _M64 for i in indices], dtype=np.uint64)
    return x.astype(np.uint64)


def derive_states(seed: int, indices, tag: str) -> np.ndarray:
    """The xoshiro states of many origins sharing seed and tag: a
    C-contiguous (4, len(indices)) uint64 array whose column j is the state
    of origin (seed, indices[j], tag), seeded as the module docstring
    documents."""
    base = _mix64_array(_as_u64(indices))
    base ^= np.uint64((seed & _M64) ^ _fnv1a64(tag))
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
    n = math.prod(int(dim) for dim in shape)
    return np.ascontiguousarray(_lockstep_units(states, n).T).reshape((states.shape[1],) + tuple(shape))


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
        if todo.size == n:
            x = _lockstep_u64(states, 1)[0]
        else:
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
    n = math.prod(int(dim) for dim in shape)
    z = _box_muller(_lockstep_units(states, n + n % 2))
    return np.ascontiguousarray(z[:n].T).reshape((states.shape[1],) + tuple(shape))


def lockstep_groups(n: int, multiple: int = 1) -> list:
    """Consecutive ranges covering range(n), each the largest multiple of
    `multiple` that fits in LOCKSTEP_STREAMS (at least one multiple) except
    possibly the last, so callers can draw whole batches' fields together."""
    size = multiple * max(1, LOCKSTEP_STREAMS // multiple)
    return [range(start, min(n, start + size)) for start in range(0, n, size)]
