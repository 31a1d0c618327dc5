"""Deterministic, reproducible random streams for augmentation pipelines.

Every random decision in this package is drawn from an explicitly derived
stream so that a run is a pure function of (seed, image index, op tag).
Streams are cheap to create, independent of each other, and stable across
processes and worker counts, which is what makes parallel dataset maps
byte-reproducible.

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

The bulk methods (unit_array, normal_array, normal_field) advance the state
exactly as the equivalent sequence of scalar calls and are bit-identical to
them; they exist because per-pixel noise fields dominate the runtime of
augmentation sweeps. Two engines produce them, with numpy the only dependency:

    scalar    _fill_block_py steps one stream in a Python loop over its four
              words; it serves single-stream draws, for which it is faster
    lockstep  normal_fields steps the streams of a whole batch together: the
              state is a (4, N) uint64 array, each step is a few in-place
              numpy ops over all N columns, only s1 is recorded per step, and
              the scrambler and Box-Muller then run once over the (n, N) block

normal_fields(streams, shape)[j] is bit-identical to
streams[j].normal_field(shape) and leaves every stream, pending normal
included, as that call would.
"""

from __future__ import annotations

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

# Streams that normal_fields steps together, and the group size of its
# callers. A lockstep step costs about the same numpy call overhead for any
# number of streams, so larger groups are faster per field, but a group's
# fields and images are held at once: 96 streams of 32x32 fields keep the
# working set under 1 MB per array.
LOCKSTEP_STREAMS = 96

# uint64 shift and multiply operands for the array engines.
_U5 = np.uint64(5)
_U7 = np.uint64(7)
_U9 = np.uint64(9)
_U11 = np.uint64(11)
_U17 = np.uint64(17)
_U19 = np.uint64(19)
_U45 = np.uint64(45)
_U57 = np.uint64(57)


def _fnv1a64(text: str) -> int:
    h = _FNV_BASIS
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _M64
    return h


def _mix64(x: int) -> int:
    """SplitMix64 finalizer, used to decorrelate adjacent indices."""
    x = ((x ^ (x >> 30)) * _MIX1) & _M64
    x = ((x ^ (x >> 27)) * _MIX2) & _M64
    return x ^ (x >> 31)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _M64
    return state, _mix64(state)


def _fill_block_py(state, out):
    """Scalar engine: fill out with the next len(out) outputs of one stream."""
    s0, s1, s2, s3 = int(state[0]), int(state[1]), int(state[2]), int(state[3])
    for i in range(out.shape[0]):
        x = (s1 * 5) & _M64
        x = ((x << 7) | (x >> 57)) & _M64
        out[i] = (x * 9) & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _M64
    state[0] = s0
    state[1] = s1
    state[2] = s2
    state[3] = s3


def _lockstep_units(states, n: int) -> np.ndarray:
    """(n, N) uniforms; column j is unit_array(n) of the stream whose four
    state words are states[:, j]. states, a C-contiguous (4, N) uint64
    array, is advanced in place."""
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
    # Scramble the recorded s1 history, rotl(s1 * 5, 7) * 9, with the
    # result's buffer as the scratch array.
    u = np.empty(block.shape, dtype=np.float64)
    block *= _U5
    np.left_shift(block, _U7, out=u.view(np.uint64))
    block >>= _U57
    block |= u.view(np.uint64)
    block *= _U9
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
    spawn children via derive() without coordinating with other ops.
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
        tag = f"{self.tag}/{child_tag}" if self.tag else child_tag
        return derive_stream(self.seed, self.index, tag)

    def next_u64(self) -> int:
        return int(self._u64_block(1)[0])

    def next_unit(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Uses bitmask rejection, so there is no modulo bias. lo == hi is
        answered without consuming a draw.
        """
        if lo > hi:
            raise ValueError(f"empty range: [{lo}, {hi}]")
        if lo == hi:
            return lo
        span = hi - lo + 1
        mask = (1 << (span - 1).bit_length()) - 1
        while True:
            x = self.next_u64() & mask
            if x < span:
                return lo + x

    def next_normal(self) -> float:
        """Standard normal via Box-Muller; pair members come out in order."""
        if self._pending_normal is not None:
            z = self._pending_normal
            self._pending_normal = None
            return z
        u1 = self.next_unit()
        u2 = self.next_unit()
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        theta = _TWO_PI * u2
        z0 = r * np.cos(theta)
        self._pending_normal = float(r * np.sin(theta))
        return float(z0)

    def _u64_block(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.uint64)
        _fill_block_py(self._state, out)
        return out

    def unit_array(self, n: int) -> np.ndarray:
        """n uniforms, bit-identical to n next_unit() calls."""
        block = self._u64_block(n)
        return (block >> _U11).astype(np.float64) * _INV_2_53

    def normal_array(self, n: int) -> np.ndarray:
        """n normals, bit-identical to n next_normal() calls."""
        out = np.empty(n, dtype=np.float64)
        k = 0
        if self._pending_normal is not None and n > 0:
            out[0] = self._pending_normal
            self._pending_normal = None
            k = 1
        remaining = n - k
        if remaining <= 0:
            return out
        pairs = (remaining + 1) // 2
        z = _box_muller(self.unit_array(2 * pairs))
        out[k:] = z[:remaining]
        if remaining % 2 == 1:
            self._pending_normal = float(z[-1])
        return out

    def normal_field(self, shape) -> np.ndarray:
        """Normal field filled in row-major (C) order."""
        n = 1
        for dim in shape:
            n *= int(dim)
        return self.normal_array(n).reshape(shape)


def derive_stream(seed: int, index: int, tag: str) -> RngStream:
    """Derive an independent stream from (global seed, image index, op tag).

    seed and index are taken modulo 2**64; tag is any short string. Streams
    with different origins are statistically independent, and the same
    origin always yields the same byte stream.
    """
    base = (seed & _M64) ^ _mix64(index & _M64) ^ _fnv1a64(tag)
    words = []
    for _ in range(4):
        base, word = _splitmix64_next(base)
        words.append(word)
    if not any(words):
        words[0] = _GOLDEN  # xoshiro must not start all-zero
    return RngStream(words, seed, index, tag)


def _lockstep_normals(streams: list, n: int) -> np.ndarray:
    """(N, n) normals for streams without a pending normal, n >= 1."""
    states = np.stack([s._state for s in streams], axis=1)
    z = _box_muller(_lockstep_units(states, n + n % 2))
    for j, stream in enumerate(streams):
        stream._state[:] = states[:, j]
        if n % 2:
            stream._pending_normal = float(z[-1, j])
    return z[:n].T


def lockstep_groups(n: int, multiple: int = 1) -> list:
    """Consecutive ranges covering range(n), each the largest multiple of
    `multiple` that fits in LOCKSTEP_STREAMS (at least one multiple) except
    possibly the last, so callers can draw whole batches' fields together."""
    size = multiple * max(1, LOCKSTEP_STREAMS // multiple)
    return [range(start, min(n, start + size)) for start in range(0, n, size)]


def normal_fields(streams, shape) -> np.ndarray:
    """Normal fields of many streams at once, shape (len(streams),) + shape.

    Entry j, and the state each stream is left in, equal those of
    streams[j].normal_field(shape). Streams are stepped in lockstep,
    LOCKSTEP_STREAMS at a time; a stream holding a pending normal emits it
    first and joins a second lockstep for its remaining n - 1 values.
    """
    streams = list(streams)
    n = math.prod(int(dim) for dim in shape)
    out = np.empty((len(streams), n), dtype=np.float64)
    for group in lockstep_groups(len(streams) if n else 0):
        fresh = [j for j in group if streams[j]._pending_normal is None]
        held = [j for j in group if streams[j]._pending_normal is not None]
        for j in held:
            out[j, 0] = streams[j]._pending_normal
            streams[j]._pending_normal = None
        for rows, count in ((fresh, n), (held, n - 1)):
            if rows and count:
                out[rows, n - count:] = _lockstep_normals([streams[j] for j in rows], count)
    return out.reshape((len(streams),) + tuple(shape))
