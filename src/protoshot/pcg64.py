"""numpy's PCG64 stream and the two ``Generator`` draws the grid makes, in
plain Python.

``PCG64(seed)`` is seeded as ``numpy.random.default_rng(seed)`` seeds its
bit generator: ``SeedSequence(seed)`` mixes the seed's 32-bit words into a
four-word pool, ``generate_state(4, uint64)`` hashes the pool into two
128-bit words, and ``pcg_setseq_128_srandom_r`` starts the LCG from them.
Each 64-bit output is the XSL-RR of the advanced state, and
:meth:`PCG64.next_uint32` hands out a 64-bit output's low half, then its
high half. On that stream, :meth:`PCG64.permutation` and
:meth:`PCG64.choice` give the values of numpy 2.4.6's
``Generator.permutation(n)`` and ``Generator.choice(n, k, replace=False)``.
numpy fixes its bit generators' streams, not its ``Generator`` methods, so
those values are pinned here and do not follow the installed numpy.

A population holds at most ``2**32`` items, so every bound fits numpy's
32-bit paths and its 64-bit ones are left out. Importing this module loads
neither ``numpy.random`` nor OpenSSL.
"""

from __future__ import annotations

from operator import index

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants; its pool holds four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_state(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64 reads it:
    the 128-bit initial state and stream selector."""
    seed = index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    # four little-endian uint64 words: state high, state low, stream high, stream low
    s_hi, s_lo, i_hi, i_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    return s_hi << 64 | s_lo, i_hi << 64 | i_lo


def _check_population(n: int) -> None:
    if not 0 <= n <= 1 << 32:
        raise ValueError(f"population must be in 0..2**32, got {n}")


class PCG64:
    """numpy's PCG64 seeded as ``default_rng(seed)`` seeds it.

    Raises:
        ValueError: `seed` is negative, as numpy raises.
    """

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _MULTIPLIER + self._inc) & _MASK128
        # numpy's 32-bit buffer: a flag for an unread high half, and the last one
        self._has_uint32 = self._uinteger = 0

    @property
    def state(self) -> dict:
        """The generator's state in the form of numpy's ``PCG64.state``."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    def next_uint64(self) -> int:
        """Advance the LCG and return the XSL-RR of its new state."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        value = self.next_uint64()
        self._has_uint32, self._uinteger = 1, value >> 32
        return value & _MASK32

    def _interval(self, bound: int) -> int:
        """numpy's ``random_interval``: a value in 0..bound by masked rejection."""
        mask = (1 << bound.bit_length()) - 1
        value = self.next_uint32() & mask if bound else 0
        while value > bound:
            value = self.next_uint32() & mask
        return value

    def _bounded(self, bound: int) -> int:
        """numpy's ``random_bounded_uint64(0, bound)`` without a mask: a value
        in 0..bound by Lemire's multiply-and-reject."""
        if bound == 0:
            return 0
        if bound == _MASK32:
            return self.next_uint32()
        span = bound + 1
        m = self.next_uint32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self.next_uint32() * span
        return m >> 32

    def _shuffle_int(self, items: dict[int, int], n: int, first: int) -> None:
        """Swap positions n-1 down to `first` of the sparse array `items`
        (a missing position holds its own index) with random lower ones."""
        for i in range(n - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items.get(j, j), items.get(i, i)

    def permutation(self, n: int) -> list[int]:
        """``Generator.permutation(n)``: Fisher-Yates over ``random_interval``.

        Raises:
            ValueError: n is negative or above 2**32.
        """
        _check_population(n)
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            order[i], order[j] = order[j], order[i]
        return order

    def choice(self, n: int, k: int) -> list[int]:
        """``Generator.choice(n, k, replace=False)``: for a large share of a
        large population, the last k of a shuffle stopped after k swaps;
        otherwise Floyd's algorithm over Lemire's bounded draws, shuffled.

        Raises:
            ValueError: n is negative or above 2**32, or k is outside 0..n.
        """
        _check_population(n)
        if not 0 <= k <= n:
            raise ValueError(f"cannot take {k} of {n} without replacement")
        if n > 10000 and k > n // 50:
            tail: dict[int, int] = {}
            self._shuffle_int(tail, n, max(n - k, 1))
            return [tail.get(i, i) for i in range(n - k, n)]
        picked: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            value = self._bounded(j)
            picked.append(j if value in seen else value)
            seen.add(picked[-1])
        shuffled = dict(enumerate(picked))
        self._shuffle_int(shuffled, k, 1)
        return [shuffled[i] for i in range(k)]
