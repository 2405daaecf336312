"""numpy's random stream for synthetic members, without numpy.random.

`stream_doubles` reproduces, bit for bit, the doubles that
numpy.random.Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))
.random() returns: numpy's SeedSequence pool hash (a pool of four uint32
words) and the PCG64 XSL-RR 128/64 generator (O'Neill 2014), whose bit
streams NEP 19 keeps stable across numpy versions.  It runs on uint64
arrays, one element per key, so a block of keys costs one call.  Only the
steps that draw import this module.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: little-endian uint32 words, [0] for 0."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _hashmix(value, const):
    """SeedSequence's hashmix of 32-bit values, as Python ints or uint64
    arrays; returns the hashed value and the next hash constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _carry(a: np.ndarray, b: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The carry out of total = a + b mod 2^64, from bit operations alone: a
    comparison would run one more numpy loop, and each loop a step first
    runs adds its code pages to the step's peak RSS."""
    return ((a & b) | ((a | b) & (total ^ _MASK64))) >> 63


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * multiplier + inc mod 2^128, on (high, low) uint64 word arrays."""
    lo0, lo1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry_hi = lo1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = carry_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + _carry(prod_lo, inc_lo, new_lo)
    return new_hi, new_lo


def stream_doubles(seed: int, members, ps, slots, width: int) -> np.ndarray:
    """The first `width` doubles of numpy's Generator(PCG64(SeedSequence(
    entropy=seed, spawn_key=(member, p, slot)))).random() for every key, bit
    for bit, as a (keys, width) array.

    The pool mixing of the seed's words is common to every key and runs on
    Python ints.  The spawn-key words (one or two per entry, as the entry is
    below 2^32 or not) are mixed in on uint64 arrays holding 32-bit values,
    with a hash constant per key that advances over the key's own words
    only.  generate_state(4, uint64) then seeds PCG64 (inc = initseq*2 + 1,
    a step, + initstate, a step) on (high, low) uint64 word arrays, and each
    double is one step, the XSL-RR output x and (x >> 11) * 2^-53.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # a spawn key pads the seed to the pool
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)

    keys = [np.asarray(x, dtype=np.uint64) for x in (members, ps, slots)]
    const = np.full(len(keys[0]), const, dtype=np.uint64)
    pool = [np.full(len(keys[0]), v, dtype=np.uint64) for v in pool]
    for x in keys:
        words = [(x & _MASK32, None)]
        if np.count_nonzero(x >> 32):  # entries past 2^32 add a high word
            words.append((x >> 32, x >> 32 != 0))
        for word, on in words:
            for dst in range(_POOL_SIZE):
                value, after = _hashmix(word, const)
                mixed = _mix(pool[dst], value)
                pool[dst] = mixed if on is None else np.where(on, mixed, pool[dst])
                const = after if on is None else np.where(on, after, const)

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    init_hi, init_lo, seq_hi, seq_lo = (state[2 * j] | state[2 * j + 1] << 32 for j in range(4))
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    lo = inc_lo + init_lo
    hi, lo = _pcg_step(inc_hi + init_hi + _carry(inc_lo, init_lo, lo), lo, inc_hi, inc_lo)
    out = np.empty((len(keys[0]), width))
    for j in range(width):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> 58
        x = x >> rot | x << ((64 - rot) & 63)
        out[:, j] = (x >> 11) * (1.0 / 9007199254740992.0)
    return out
