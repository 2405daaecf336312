"""The ideals of a norm bound as int64 arrays: the one enumeration of ideals.

IdealTable lists the integral ideals of norm <= bound, or the prime powers
alone, in (norm, factors) order, each as its first prime-power factor times
an earlier ideal, so that a factorization is a walk along the table.
PrimePowers holds the prime powers those first factors index, in the
field's one prime-power order: by norm, then (p, slot, e).  The order does
not depend on the bound, so the prime powers of a bound B are a prefix of
those of any B' >= B, and a prime power's position names it at every bound.
IdealIndex objects are made only on request (IdealTable.ideals,
ideals.enumerate_ideals).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .ideals import IdealIndex, NumberFieldSpec, check_ideal_bytes, prime_ideal_arrays


@dataclass(frozen=True, eq=False)
class PrimePowers:
    """Prime-power ideals P^e, one entry each: the rational prime p below P,
    P's slot, the exponent e and the norm N(P) of the prime."""

    prime: np.ndarray
    slot: np.ndarray
    exponent: np.ndarray
    prime_norm: np.ndarray
    norm: np.ndarray  # of P^e


def _prime_powers(field: NumberFieldSpec, bound: int) -> PrimePowers:
    """The prime powers of norm <= bound in (norm, factors) order: the prime
    ideals, with the higher powers of those of norm <= sqrt(bound) merged in.
    No higher power shares its norm with a prime ideal, so the order is by
    norm, then (p, slot, e), and the powers of a smaller bound are a prefix."""
    prime, slot, prime_norm = prime_ideal_arrays(field, bound)
    higher = []  # (norm, p, slot, e, N(P)) for e >= 2
    small = prime_norm * prime_norm <= bound
    for p, s, pn in zip(*(x[small].tolist() for x in (prime, slot, prime_norm))):
        norm, e = pn * pn, 2
        while norm <= bound:
            higher.append((norm, p, s, e, pn))
            norm, e = norm * pn, e + 1
    extra = np.array(sorted(higher), dtype=np.int64).reshape(-1, 5).T
    at = [bisect.bisect_left(prime_norm, norm) + n for n, norm in enumerate(extra[0].tolist())]
    first = np.ones(len(prime) + len(higher), dtype=bool)
    first[at] = False
    merged = []
    for x, more in zip((prime_norm, prime, slot, 1, prime_norm), extra):
        column = np.empty(len(first), dtype=np.int64)
        column[first], column[at] = x, more
        merged.append(_frozen(column))
    norm, prime, slot, exponent, prime_norm = merged
    return PrimePowers(prime, slot, exponent, prime_norm, norm)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_ONE, _SPLIT, _INERT = 0, 1, 2  # rational primes by the prime ideals above them


class IdealTable:
    """Integral ideals in (norm, factors) order, as int64 arrays: the one
    enumeration of ideals.

    Entry i is its first prime-power factor in (p, slot) order, the entry
    power[i] of powers, times the ideal at position parent[i] of the base
    table, -1 for the unit ideal; depth[i] counts its prime-power factors,
    and the unit ideal has none.  IdealTable(field, bound) holds every ideal
    of norm <= bound and prime_powers(field, bound) the prime powers alone.
    Indexing (a slice, a mask or positions) selects entries that keep
    walking the base table's factors.
    Arrays are read-only, as tables are cached and shared.

    The full table is built norm by norm.  With p the smallest rational
    prime dividing a norm m, m = p^k r, the ideals of norm m are a p-part
    of norm p^k times an ideal of norm r, and their (norm, factors) order
    is the p-part's, then the order at r: over a split p, P^a P'^(k - a)
    for a = 1..k, then P'^k.  So the count c(m) = c(p^k) c(r) and the
    position within norm m, j c(r) + t for the j-th p-part and the t-th
    ideal of norm r, give every entry's first factor and parent with array
    operations.
    """

    def __init__(self, field: NumberFieldSpec, bound: int):
        check_ideal_bytes(field, bound)
        powers = _prime_powers(field, bound)
        # per norm m: its smallest prime p and m / p, from the sieve's own
        # multiples, so that no int64 array is divided: numpy's division
        # kernels would add their code pages to every step's peak RSS
        spf, quot = np.zeros(bound + 1, dtype=np.int64), np.zeros(bound + 1, dtype=np.int64)
        for p in range(2, math.isqrt(bound) + 1):
            if not spf[p]:
                multiples = spf[p * p :: p]
                new = multiples == 0
                multiples[new] = p
                quot[p * p :: p][new] = np.arange(p, bound // p + 1)[new]
        primes = np.flatnonzero(spf == 0)  # with 0 and 1, which no loop below reads
        spf[primes], quot[primes] = primes, 1
        # m = p^k rest with p not dividing rest; pk = p^k
        rest, k, pk = quot.copy(), np.ones(bound + 1, dtype=np.int64), spf.copy()
        more = 2 + np.flatnonzero(spf[rest[2:]] == spf[2:])
        while more.size:
            rest[more] = quot[rest[more]]
            k[more] += 1
            pk[more] *= spf[more]
            more = more[spf[rest[more]] == spf[more]]
        if field.is_rationals:
            norm, rest, first = np.arange(1, bound + 1), rest[1:], pk[1:]
            parent = rest - 1
            slot = 0
        else:
            kind = np.full(bound + 1, _INERT, dtype=np.int64)  # the unsplit rational primes past sqrt(bound)
            kind[powers.prime[powers.prime_norm == powers.prime]] = _ONE
            kind[powers.prime[powers.slot == 1]] = _SPLIT
            kind = kind[spf]
            local = np.ones(bound + 1, dtype=np.int64)  # c(p^k)
            over_split, over_inert = kind == _SPLIT, kind == _INERT
            local[over_split] = k[over_split] + 1
            local[over_inert] = np.resize([1, 0], k.max() + 1)[k[over_inert]]  # 1 at even k
            local[:2] = (0, 1)
            count, at = local.copy(), rest.copy()
            more = np.flatnonzero(at > 1)
            while more.size:
                count[more] *= local[at[more]]
                at[more] = rest[at[more]]
                more = more[at[more] > 1]
            offset = np.cumsum(count) - count
            # norm m holds c(p^k) blocks, one per p-part, of c(rest) ideals each
            blocks = local
            blocks[count == 0] = 0
            block_norm = np.repeat(np.arange(bound + 1), blocks)
            part = np.arange(len(block_norm)) - (np.cumsum(blocks) - blocks)[block_norm]
            size = count[rest[block_norm]]
            norm, part = np.repeat(block_norm, size), np.repeat(part, size)
            index = np.arange(len(norm)) - np.repeat(np.cumsum(size) - size, size)
            del local, at, blocks, block_norm, size
            p, k, rest, kind, first = spf[norm], k[norm], rest[norm], kind[norm], pk[norm]
            # over a split p the p-part's first factor is P^a, a = part + 1 <= k, or P'^k
            split = np.flatnonzero(kind == _SPLIT)
            a = k.copy()
            below = split[part[split] < k[split]]
            a[below] = part[below] + 1
            slot = np.zeros_like(norm)
            slot[split[part[split] == k[split]]] = 1
            parent = offset[rest] + index
            partial = np.flatnonzero(a < k)  # P^a P'^(k - a): the parent keeps P'^(k - a)
            p, a, left = p[partial], a[partial], (k - a)[partial]
            pa, pleft = np.ones_like(p), np.ones_like(p)
            for step in range(int(k.max(initial=0))):
                pa[a > step] *= p[a > step]
                pleft[left > step] *= p[left > step]
            first[partial] = pa
            rest = rest[partial]
            parent[partial] = offset[pleft * rest] + left * count[rest] + index[partial]
        parent[norm == first] = -1
        # a split prime's two slots are neighbours among the powers: slot 0, then
        # slot 1; spf's array, read for the last time above, maps norms to slot 0
        position, slot0 = spf, powers.slot == 0
        position[powers.norm[slot0]] = np.flatnonzero(slot0)
        power = position[first] + slot
        power[0] = parent[0] = -1  # the unit ideal
        depth = np.zeros(len(power), dtype=np.int64)
        depth[power >= 0] = 1
        more = np.flatnonzero(parent >= 0)
        at = parent[more]
        while more.size:
            depth[more] += 1
            at = parent[at]
            more, at = more[at >= 0], at[at >= 0]
        self._set(field, bound, norm, parent, power, depth, powers)

    def _set(self, field, bound, norm, parent, power, depth, powers):
        self.field, self.bound, self.powers = field, bound, powers
        self.norm, self.parent, self.power, self.depth = (
            _frozen(np.asarray(x, dtype=np.int64)) for x in (norm, parent, power, depth)
        )
        self._walk = (self.power, self.parent)

    @classmethod
    def prime_powers(cls, field: NumberFieldSpec, bound: int) -> "IdealTable":
        """The prime-power ideals of norm <= bound, in (norm, factors) order."""
        powers = _prime_powers(field, bound)
        size = len(powers.prime)
        table = cls.__new__(cls)
        unit, one = np.broadcast_to(np.int64(-1), size), np.broadcast_to(np.int64(1), size)
        table._set(field, bound, powers.norm, unit, np.arange(size), one, powers)
        return table

    __iter__ = None  # entries are read as arrays; ideals() lists them

    def __len__(self) -> int:
        return len(self.norm)

    def __getitem__(self, select) -> "IdealTable":
        view = IdealTable.__new__(IdealTable)
        view.field, view.bound, view.powers, view._walk = self.field, self.bound, self.powers, self._walk
        view.norm, view.parent, view.power, view.depth = (
            _frozen(x[select]) for x in (self.norm, self.parent, self.power, self.depth)
        )
        return view

    def _steps(self):
        """(entries, powers entries) at each step of a walk along the factors,
        first factors first."""
        row = np.flatnonzero(self.depth)
        power, parent = self.power[row], self.parent[row]
        base_power, base_parent = self._walk
        while row.size:
            yield row, power
            more = parent >= 0
            row, parent = row[more], parent[more]
            power, parent = base_power[parent], base_parent[parent]

    def factors(self) -> np.ndarray:
        """(entries, width) powers entries of each ideal's factors in (p, slot)
        order, front-padded with -1 to the largest depth (at least 1)."""
        width = max(1, int(self.depth.max(initial=0)))
        out = np.full((len(self), width), -1, dtype=np.int64)
        start = width - self.depth
        for step, (row, power) in enumerate(self._steps()):
            out[row, start[row] + step] = power
        return out

    def ideals(self) -> list[IdealIndex]:
        """The entries as IdealIndex objects."""
        powers = self.powers
        keys = list(zip(zip(powers.prime.tolist(), powers.slot.tolist()), powers.exponent.tolist()))
        return [
            IdealIndex(self.field, tuple(keys[j] for j in row if j >= 0), norm)
            for row, norm in zip(self.factors().tolist(), self.norm.tolist())
        ]

    def min_prime_norm(self) -> np.ndarray:
        """The smallest norm of a prime dividing each ideal; 0 for the unit ideal."""
        out = np.full(len(self), np.iinfo(np.int64).max)
        out[self.depth == 0] = 0
        for row, power in self._steps():
            out[row] = np.minimum(out[row], self.powers.prime_norm[power])
        return out

    def divisible_by(self, d: IdealIndex) -> np.ndarray:
        """Whether d divides each ideal: each prime's exponent against d's."""
        out = np.ones(len(self), dtype=bool)
        for (p, slot), e in d.factors:
            exponent = np.zeros(len(self), dtype=np.int64)
            for row, power in self._steps():
                hit = (self.powers.prime[power] == p) & (self.powers.slot[power] == slot)
                exponent[row[hit]] = self.powers.exponent[power[hit]]
            out &= exponent >= e
        return out
