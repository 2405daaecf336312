"""Exact Dirichlet character arithmetic.

A character mod q is stored by its angle table: chi(n) = e(angles[n]/M)
with e(x) = exp(2 pi i x), angles[n] an integer and M the group exponent
carried by the character.  gcd(n, q) > 1 is marked by angle -1.  Products,
conjugates, conductors, and primitive parts are then exact integer
computations; complex values only appear on evaluation.

Group structure: (Z/qZ)* is decomposed into cyclic components with fixed
generators (smallest primitive root for odd prime powers, -1 and 5 for
2^e with e >= 3), so enumeration order is deterministic and the character
labelled (q, j) is the same in every run.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
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
    idx = [0] * len(comps)
    total = 1
    for o in orders:
        total *= o
    for _ in range(total):
        val = 1
        for (g, o), t in zip(comps, idx):
            val = val * pow(g, t, q) % q
        for i, t in enumerate(idx):
            dlogs[i, val] = t
        for i in range(len(idx) - 1, -1, -1):
            idx[i] += 1
            if idx[i] < orders[i]:
                break
            idx[i] = 0
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
        return complex(np.exp(2j * np.pi * a / self.order_denom))

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at integer array ns."""
        q = self.modulus
        if q == 1:
            return np.ones(len(ns), dtype=np.complex128)
        a = self.angles[np.asarray(ns, dtype=np.int64) % q]
        out = np.exp(2j * np.pi * a / self.order_denom)
        out[a < 0] = 0
        return out

    def table(self) -> np.ndarray:
        """Residue-class value table chi(0), ..., chi(q-1)."""
        return self.values(np.arange(max(self.modulus, 1)))

    def __repr__(self):
        return f"chi(mod {self.modulus}, #{self.index}, cond {self.conductor})"


def _conductor_of(q: int, angles: np.ndarray) -> int:
    if q == 1:
        return 1
    units = np.nonzero(angles >= 0)[0]
    vals = angles[units]
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        sel = units % f == 1 % f
        if not np.any(vals[sel] != 0):
            return f
    return q


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(1, 1, np.array([0], dtype=np.int64), 1, 0)


@functools.lru_cache(maxsize=None)
def character_group(q: int) -> tuple[DirichletCharacter, ...]:
    """All Dirichlet characters mod q in deterministic enumeration order."""
    if q == 1:
        return (trivial_character(),)
    grp = unit_group(q)
    M = grp.exponent
    chars = []
    # exponent tuples in row-major order over the component orders
    idx = [0] * len(grp.orders)
    total = 1
    for o in grp.orders:
        total *= o
    for count in range(total):
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
        for i in range(len(idx) - 1, -1, -1):
            idx[i] += 1
            if idx[i] < grp.orders[i]:
                break
            idx[i] = 0
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
    unit = np.gcd(ns, L) == 1
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
    angles = -np.ones(f, dtype=np.int64)
    for m in range(1, f):
        if math.gcd(m, f) != 1:
            continue
        n = m
        while math.gcd(n, q) != 1:
            n += f
        angles[m] = a.angles[n]
    return DirichletCharacter(f, a.order_denom, angles, f)


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
