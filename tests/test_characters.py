"""Per-prime conductors and CRT-lifted primitive parts against independent oracles.

The oracles are the direct definitions: the product table over lcm(q, q')
with units found by gcd, the conductor as the least divisor f of q whose
units n = 1 mod f all have chi(n) = 1, and the primitive part read off
the smallest unit n = m mod f for each residue m.
"""

import functools
import math

import numpy as np
import pytest

from lfunclab.characters import (
    character_group,
    conjugate,
    multiply,
    primitive_characters_up_to_modulus,
    primitive_part,
)


@functools.lru_cache(maxsize=None)
def divisors(q: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, q + 1) if q % d == 0)


@functools.lru_cache(maxsize=None)
def unit_mask(L: int) -> np.ndarray:
    return np.gcd(np.arange(L, dtype=np.int64), L) == 1


def oracle_multiply(a, b) -> tuple[int, int, np.ndarray]:
    """(modulus, order_denom, angles) of a * b modulo lcm(q_a, q_b)."""
    L = math.lcm(a.modulus, b.modulus)
    M = math.lcm(a.order_denom, b.order_denom)
    if L == 1:
        return 1, 1, np.array([0], dtype=np.int64)
    ns = np.arange(L, dtype=np.int64)
    aa = a.angles[ns % a.modulus] if a.modulus > 1 else np.zeros(L, dtype=np.int64)
    bb = b.angles[ns % b.modulus] if b.modulus > 1 else np.zeros(L, dtype=np.int64)
    unit = unit_mask(L)
    angles = -np.ones(L, dtype=np.int64)
    angles[unit] = (aa[unit] * (M // a.order_denom) + bb[unit] * (M // b.order_denom)) % M
    return L, M, angles


def oracle_conductor(q: int, angles: np.ndarray) -> int:
    """Scan every divisor of q against every unit: the least divisor f with no
    unit n = 1 mod f off the kernel (f = q always qualifies, as n = 1 is a unit)."""
    if q == 1:
        return 1
    units = np.nonzero(angles >= 0)[0]
    fs = np.array(divisors(q))[:, None]
    off_kernel = ((units % fs == 1 % fs) & (angles[units] != 0)).any(axis=1)
    return int(fs[np.argmin(off_kernel), 0])


def oracle_primitive_part(q: int, order_denom: int, angles: np.ndarray, f: int):
    """(modulus, order_denom, angles) of the character mod f inducing (q, angles)."""
    if f == q:
        return q, order_denom, angles
    if f == 1:
        return 1, 1, np.array([0], dtype=np.int64)
    out = -np.ones(f, dtype=np.int64)
    for m in range(1, f):
        if math.gcd(m, f) != 1:
            continue
        n = m
        while math.gcd(n, q) != 1:
            n += f
        out[m] = angles[n]
    return f, order_denom, out


def assert_character(chi, modulus, order_denom, angles, conductor):
    assert (chi.modulus, chi.order_denom, chi.conductor) == (modulus, order_denom, conductor)
    assert chi.angles.dtype == np.int64
    assert np.array_equal(chi.angles, angles)


def assert_matches_oracle(chi, modulus, order_denom, angles):
    """chi has this table, the oracle's conductor, and the oracle's primitive part."""
    f = oracle_conductor(modulus, angles)
    assert_character(chi, modulus, order_denom, angles, f)
    assert_character(primitive_part(chi), *oracle_primitive_part(modulus, order_denom, angles, f), f)


PRIME_POWERS = (4, 8, 16, 32, 64, 9, 27, 25, 49)


def test_every_character_up_to_64():
    count = 0
    for q in range(1, 65):
        for chi in character_group(q):
            assert_matches_oracle(chi, q, chi.order_denom, chi.angles)
            count += 1
    assert count == sum(
        sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1) for q in range(1, 65)
    )


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_prime_power_groups_and_their_products(q):
    # every conductor p^k of the group occurs among these products
    group = character_group(q)
    levels = set()
    for a in group:
        for b in group:
            prod = multiply(a, conjugate(b))
            assert_matches_oracle(prod, *oracle_multiply(a, conjugate(b)))
            levels.add(prod.conductor)
    p = min(d for d in range(2, q + 1) if q % d == 0)
    expected = {p**k for k in range(int(round(math.log(q, p))) + 1)}
    if p == 2:
        expected.discard(2)  # no primitive character mod 2
    assert levels == expected


@pytest.mark.slow
def test_products_up_to_fifty():
    prim = primitive_characters_up_to_modulus(50)
    for i, a in enumerate(prim):
        for b in prim[i:]:
            b_bar = conjugate(b)
            assert_matches_oracle(multiply(a, b_bar), *oracle_multiply(a, b_bar))


def test_module_caches_are_bounded():
    import importlib
    import pkgutil

    import lfunclab

    cached = []
    for info in pkgutil.iter_modules(lfunclab.__path__):
        module = importlib.import_module(f"lfunclab.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                assert obj.cache_info().maxsize is not None, f"{info.name}.{name}"
                cached.append(name)
    assert {"split_prime", "unit_group", "character_group", "_conductor_tests"} <= set(cached)
