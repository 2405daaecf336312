"""Exact Dirichlet character arithmetic.

A character mod q is stored by its angle table: chi(n) = e(angles[n]/M)
with e(x) = exp(2 pi i x), angles[n] an integer and M the group exponent
carried by the character.  gcd(n, q) > 1 is marked by angle -1.  Products,
conjugates, conductors, and primitive parts are then exact integer
computations; complex values only appear on evaluation, through unit_root.

PrimeAngles gives characters' local data at primes for the GL1 pair rule
of coeffs: the angle of each one's prime-to-p part at p, and an id of its
p-part.  The primitive character inducing chi_a * conj(chi_b) vanishes at p
exactly when the p-parts differ, and otherwise has the angle
A_a M/M_a - A_b M/M_b mod M, M = lcm(M_a, M_b), with no product table built.

Group structure: (Z/qZ)* is decomposed into cyclic components with fixed
generators (smallest primitive root for odd prime powers, -1 and 5 for
2^e with e >= 3), so enumeration order is deterministic and the character
labelled (q, j) is the same in every run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .ideals import factor_int


def _primitive_root(pe: int, p: int) -> int:
    """Smallest primitive root mod p^e for odd p."""
    phi = pe - pe // p
    factors = [f for f, _ in factor_int(phi)]
    for g in range(2, pe):
        if math.gcd(g, pe) != 1:
            continue
        if all(pow(g, phi // f, pe) != 1 for f in factors):
            return g
    raise UsageError(f"no primitive root mod {pe}")


def _crt_lift(residue: int, modulus: int, q: int) -> int:
    """x = residue mod modulus, x = 1 mod q/modulus."""
    other = q // modulus
    if other == 1:
        return residue % q
    inv = pow(other, -1, modulus)
    return (1 + other * ((residue - 1) * inv % modulus)) % q


@dataclass(frozen=True)
class UnitGroup:
    """Cyclic decomposition of (Z/qZ)* with per-element discrete logs."""

    q: int
    orders: tuple[int, ...]
    generators: tuple[int, ...]
    exponent: int  # lcm of orders (1 for q <= 2)
    dlogs: np.ndarray  # shape (len(orders), q); -1 where gcd(n, q) > 1


@functools.lru_cache(maxsize=65536)
def unit_group(q: int) -> UnitGroup:
    if q < 1:
        raise UsageError("modulus must be positive")
    comps: list[tuple[int, int]] = []  # (generator mod q, order)
    for p, e in factor_int(q):
        pe = p**e
        if p == 2:
            if e == 2:
                comps.append((_crt_lift(3, 4, q), 2))
            elif e >= 3:
                comps.append((_crt_lift(pe - 1, pe, q), 2))
                comps.append((_crt_lift(5, pe, q), 2 ** (e - 2)))
        else:
            g = _primitive_root(pe, p)
            comps.append((_crt_lift(g, pe, q), pe - pe // p))
    orders = tuple(o for _, o in comps)
    gens = tuple(g for g, _ in comps)
    exponent = 1
    for o in orders:
        exponent = math.lcm(exponent, o)
    dlogs = -np.ones((len(comps), q if q > 1 else 1), dtype=np.int64)
    # walk the whole group once, recording the exponent tuple of each unit
    for idx in itertools.product(*(range(o) for o in orders)):
        val = 1
        for g, t in zip(gens, idx):
            val = val * pow(g, t, q) % q
        for i, t in enumerate(idx):
            dlogs[i, val] = t
    if q == 1:
        dlogs[:, :] = 0
    return UnitGroup(q, orders, gens, exponent, dlogs)


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    modulus: int
    order_denom: int  # M: angles are multiples of 1/M turns
    angles: np.ndarray = field(repr=False)  # int64 length max(q,1); -1 marks nonunits
    conductor: int
    index: int = -1  # enumeration index within its modulus; -1 for derived characters

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def parity(self) -> int:
        """0 for even (chi(-1)=1), 1 for odd."""
        if self.modulus == 1:
            return 0
        a = int(self.angles[self.modulus - 1])
        return 0 if a == 0 else 1

    def canonical_key(self):
        """(modulus, reduced order, reduced angles): equal exactly for equal characters."""
        g = self.order_denom
        for a in self.angles:
            if a > 0:
                g = math.gcd(g, int(a))
        red = tuple(int(a) // g if a >= 0 else -1 for a in self.angles)
        return (self.modulus, self.order_denom // g, red)

    def value(self, n: int) -> complex:
        q = self.modulus
        if q == 1:
            return 1 + 0j
        a = int(self.angles[n % q])
        if a < 0:
            return 0j
        return unit_root(a, self.order_denom)

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at integer array ns."""
        q = self.modulus
        if q == 1:
            return np.ones(len(ns), dtype=np.complex128)
        a = self.angles[np.asarray(ns, dtype=np.int64) % q]
        out = np.exp(2j * np.pi * a / self.order_denom)
        out[a < 0] = 0
        return out

    def __repr__(self):
        return f"chi(mod {self.modulus}, #{self.index}, cond {self.conductor})"


def unit_root(a: int, m: int) -> complex:
    """e(a/m) = exp(2 pi i a/m) for integers a and m: the one scalar evaluation of an angle."""
    return complex(np.exp(2j * np.pi * a / m))


@functools.lru_cache(maxsize=4096)
def _conductor_tests(q: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """For each p^e || q, the residues mod q that decide the p-part of a conductor.

    Level k (0 <= k < e) holds generators of 1 + p^k Z mod p^e, CRT-lifted
    to 1 mod q/p^e: a primitive root for k = 0 and 1 + p^k above it for odd
    p; -1 and 5 for k <= 1 and 1 + 2^k above it for p = 2.
    """
    out = []
    for p, e in factor_int(q):
        pe = p**e
        if p == 2:
            levels = [(pe - 1, 5)] * min(e, 2) + [(1 + 2**k,) for k in range(2, e)]
        else:
            levels = [(_primitive_root(pe, p),)] + [(1 + p**k,) for k in range(1, e)]
        lifted = tuple(tuple(_crt_lift(g, pe, q) for g in gens) for gens in levels)
        out.append((p, lifted))
    return tuple(out)


def _conductor_of(q: int, angles: np.ndarray) -> int:
    """Product over p^e || q of p^k, k the least level the character is trivial on."""
    f = 1
    for p, levels in _conductor_tests(q):
        k = next(
            (k for k, gens in enumerate(levels) if all(angles[g] == 0 for g in gens)),
            len(levels),
        )
        f *= p**k
    return f


class PrimeAngles:
    """Local data of a list of characters at primes, for the GL1 pair rule.

    at(primes) gives two (primes, characters) int arrays.  angles: the angle,
    in units of 1/order_denom, of each character's prime-to-p part at p, that
    is chi(n) for n = p mod q/p^e and n = 1 mod p^e, p^e || q.  parts: an id
    of its p-part, 0 when that is trivial (p does not divide the conductor),
    else p^k + j when it is induced from character #j of character_group(p^k),
    so equal p-parts of any two characters get equal ids.  One lookup into
    the stacked angle tables serves every prime that divides no modulus.
    """

    def __init__(self, characters: list[DirichletCharacter]):
        self.characters = characters
        self.moduli = np.array([chi.modulus for chi in characters], dtype=np.int64)
        self._offsets = np.cumsum(self.moduli) - self.moduli
        self._angles = np.concatenate([chi.angles for chi in characters] or [np.empty(0, np.int64)])

    def at(self, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        primes = np.asarray(primes, dtype=np.int64)[:, None]
        angles = self._angles[self._offsets + primes % self.moduli]
        parts = np.zeros_like(angles)
        for i, c in zip(*np.nonzero(self.moduli % primes == 0)):
            angles[i, c], parts[i, c] = _ramified_prime_angle(self.characters[c], int(primes[i, 0]))
        return angles, parts


def _ramified_prime_angle(chi: DirichletCharacter, p: int) -> tuple[int, int]:
    """PrimeAngles.at for one character at one prime p dividing its modulus."""
    q = chi.modulus
    pe = p ** dict(factor_int(q))[p]
    angle = int(chi.angles[_crt_lift(p, q // pe, q)])
    pk = math.gcd(chi.conductor, pe)
    if pk == 1:
        return angle, 0
    grp = unit_group(pk)
    j = 0
    for g, order in zip(grp.generators, grp.orders):
        j = j * order + int(chi.angles[_crt_lift(g, pe, q)]) * order // chi.order_denom
    return angle, pk + j


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(1, 1, np.array([0], dtype=np.int64), 1, 0)


@functools.lru_cache(maxsize=65536)
def character_group(q: int) -> tuple[DirichletCharacter, ...]:
    """All Dirichlet characters mod q in deterministic enumeration order."""
    if q == 1:
        return (trivial_character(),)
    grp = unit_group(q)
    M = grp.exponent
    chars = []
    # exponent tuples in row-major order over the component orders
    exponents = itertools.product(*(range(o) for o in grp.orders))
    for count, idx in enumerate(exponents):
        angles = -np.ones(q, dtype=np.int64)
        unit_mask = grp.dlogs[0] >= 0 if len(grp.orders) else np.ones(q, dtype=bool)
        if len(grp.orders):
            acc = np.zeros(q, dtype=np.int64)
            for i, (j, o) in enumerate(zip(idx, grp.orders)):
                acc[unit_mask] += j * grp.dlogs[i][unit_mask] * (M // o)
            angles[unit_mask] = acc[unit_mask] % M
        else:
            angles[np.array([n for n in range(q) if math.gcd(n, q) == 1])] = 0
        cond = _conductor_of(q, angles)
        chars.append(DirichletCharacter(q, M, angles, cond, count))
    return tuple(chars)


def primitive_characters(q: int) -> tuple[DirichletCharacter, ...]:
    return tuple(c for c in character_group(q) if c.is_primitive)


def multiply(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    """The product character modulo lcm(q_a, q_b) (not reduced to primitive)."""
    L = math.lcm(a.modulus, b.modulus)
    M = math.lcm(a.order_denom, b.order_denom)
    if L == 1:
        return trivial_character()
    ns = np.arange(L, dtype=np.int64)
    aa = a.angles[ns % a.modulus] if a.modulus > 1 else np.zeros(L, dtype=np.int64)
    bb = b.angles[ns % b.modulus] if b.modulus > 1 else np.zeros(L, dtype=np.int64)
    unit = (aa >= 0) & (bb >= 0)
    angles = -np.ones(L, dtype=np.int64)
    angles[unit] = (aa[unit] * (M // a.order_denom) + bb[unit] * (M // b.order_denom)) % M
    cond = _conductor_of(L, angles)
    return DirichletCharacter(L, M, angles, cond)


def conjugate(a: DirichletCharacter) -> DirichletCharacter:
    angles = a.angles.copy()
    pos = angles > 0
    angles[pos] = a.order_denom - angles[pos]
    return DirichletCharacter(a.modulus, a.order_denom, angles, a.conductor, a.index)


def primitive_part(a: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing a."""
    f = a.conductor
    if f == a.modulus:
        return a
    if f == 1:
        return trivial_character()
    q = a.modulus
    # lift m mod f to n = m mod head, n = 1 mod q/head, where head is the part
    # of q on the primes of f: n is a unit mod q exactly when m is one mod f
    head = math.prod(p**e for p, e in factor_int(q) if f % p == 0)
    rest = q // head
    m = np.arange(f, dtype=np.int64)
    n = (1 + rest * ((m - 1) * pow(rest, -1, head) % head)) % q
    return DirichletCharacter(f, a.order_denom, a.angles[n], f)


def primitive_characters_up_to_modulus(q_max: int) -> list[DirichletCharacter]:
    out = []
    for q in range(1, q_max + 1):
        out.extend(primitive_characters(q))
    return out


def selftest() -> list[tuple[str, bool, str]]:
    results = []
    # orthogonality: sum_n chi(n) conj(chi'(n)) = phi(q) [chi = chi']
    ok = True
    worst = 0.0
    for q in (3, 8, 12, 16, 45, 50):
        chars = character_group(q)
        phi = sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)
        ns = np.arange(q)
        tables = np.stack([c.values(ns) for c in chars])
        gram = tables @ tables.conj().T
        target = phi * np.eye(len(chars))
        worst = max(worst, float(np.abs(gram - target).max()))
    ok = worst < 1e-9
    results.append(("character orthogonality", ok, f"max deviation {worst:.2e}"))

    # conductor of the character inducing chi*conj(chi') divides lcm(q, q')
    ok = True
    for q in (3, 4, 5, 7, 9, 12):
        for q2 in (3, 4, 5, 8):
            for c1 in primitive_characters(q):
                for c2 in primitive_characters(q2):
                    prod = multiply(c1, conjugate(c2))
                    if math.lcm(q, q2) % prod.conductor != 0:
                        ok = False
    results.append(("product conductor divides lcm", ok, ""))

    chi3 = primitive_characters(3)[0]
    val = chi3.value(2)
    results.append(("mod-3 character value", abs(val + 1) < 1e-12, f"chi(2) = {val}"))
    prod = primitive_part(multiply(chi3, conjugate(chi3)))
    results.append(("chi * conj(chi) induces the trivial character", prod.modulus == 1, ""))
    return results
