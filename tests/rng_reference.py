"""Independent transcription of the documented stream recurrence.

This module deliberately avoids importing robustaug. It exists to generate
the frozen golden values in fixtures/rng_golden.txt and to give the tests a
second implementation to compare against: every expected draw outside
test_rng.py comes from a Reference stream. Run as a script to regenerate the
fixture:

    python tests/rng_reference.py > tests/fixtures/rng_golden.txt
"""

import numpy as np

MASK = (1 << 64) - 1


def fnv1a(tag):
    h = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK
    return h


def mix(x):
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def seed_state(seed, index, tag):
    acc = (seed & MASK) ^ mix(index & MASK) ^ fnv1a(tag)
    words = []
    for _ in range(4):
        acc = (acc + 0x9E3779B97F4A7C15) & MASK
        words.append(mix(acc))
    if not any(words):
        words[0] = 0x9E3779B97F4A7C15
    return words


def rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


class Reference:
    def __init__(self, seed, index, tag):
        self.s = seed_state(seed, index, tag)
        self.pending = None

    def u64(self):
        s = self.s
        out = (rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return out

    def unit(self):
        return (self.u64() >> 11) * 2.0**-53

    def integer(self, lo, hi):
        if lo == hi:
            return lo
        span = hi - lo + 1
        bits = (span - 1).bit_length()
        mask = (1 << bits) - 1
        while True:
            x = self.u64() & mask
            if x < span:
                return lo + x

    def normal(self):
        if self.pending is not None:
            z, self.pending = self.pending, None
            return z
        u1 = self.unit()
        u2 = self.unit()
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        theta = 2.0 * np.pi * u2
        self.pending = float(r * np.sin(theta))
        return float(r * np.cos(theta))

    # The draw names of the documented samplers (tests/augment_reference.py).
    next_unit = unit
    next_int = integer

    def normal_field(self, shape):
        """normal() values filled in row-major order."""
        return np.array([self.normal() for _ in range(int(np.prod(shape)))]).reshape(shape)


# Fixture layout: comment lines start with '#', data lines hold one value.
# Sections appear in this exact order with these exact counts.
CASES = [
    ("u64", 42, 0, "golden", 8),
    ("unit", 42, 0, "golden", 5),
    ("normal", 42, 0, "golden", 4),
    ("u64", 0, 0, "", 4),
    ("unit", 7, 123456789, "aug", 5),
    ("normal", 2**63, 11, "flipcrop", 4),
]


def emit():
    lines = []
    for kind, seed, index, tag, count in CASES:
        ref = Reference(seed, index, tag)
        lines.append(f"# {kind} seed={seed} index={index} tag={tag!r} n={count}")
        for _ in range(count):
            if kind == "u64":
                lines.append(str(ref.u64()))
            elif kind == "unit":
                lines.append(repr(ref.unit()))
            else:
                lines.append(repr(ref.normal()))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(emit(), end="")
