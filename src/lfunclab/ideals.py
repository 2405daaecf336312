"""Integral-ideal arithmetic for Q and quadratic number fields.

Ideals are tracked purely by their prime factorization.  A prime ideal is
identified by ``(p, slot)`` where ``p`` is the rational prime below it and
``slot`` distinguishes the two primes above a split ``p`` in a quadratic
field (``slot`` is always 0 otherwise).  Norms are p for rational primes
and for split/ramified primes of a quadratic field, and p^2 for inert
primes.  No generators are ever stored, so class-number-one is not
assumed anywhere.

Slots of a split prime are fixed labels: _splitting names the two primes
above p as slots 0 and 1, attached to no particular root of x^2 = D (mod p).
Nothing numerical depends on which prime is slot 0; the fixed labels only
make runs reproducible.

IdealIndex is one ideal as an object, for arithmetic and for loops that take
one ideal at a time.  Every enumeration of the ideals up to a norm bound is
an idealtable.IdealTable of int64 arrays; enumerate_ideals turns one into
IdealIndex objects.  check_ideal_bytes refuses a bound whose ideals could
take more than IDEAL_BYTES_CEILING as IdealIndex objects, which also bounds
every table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ResourceLimitError, UsageError

PRIME_SIEVE_CEILING = 10_000_000  # bytes of the boolean sieve: one per integer up to the bound
IDEAL_BYTES_CEILING = 1 << 30  # what an enumeration may hold, at BYTES_PER_IDEAL each
BYTES_PER_IDEAL = 412  # measured: 300,000 IdealIndex objects over Q raised peak RSS by 118 MB

PrimeId = tuple[int, int]  # (rational prime, slot)


def is_prime(n: int) -> bool:
    """Trial-division primality test for a rational integer."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_int(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with p ascending: the factorization of n >= 1 by trial division."""
    out = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


@dataclass(frozen=True)
class NumberFieldSpec:
    """Q or a quadratic field Q(sqrt(d)), d squarefree and not 0 or 1."""

    d: int | None  # None for the rationals
    discriminant: int
    degree: int
    real_places: int
    complex_places: int

    @staticmethod
    def rationals() -> "NumberFieldSpec":
        return NumberFieldSpec(None, 1, 1, 1, 0)

    @staticmethod
    def quadratic(d: int) -> "NumberFieldSpec":
        if d in (0, 1):
            raise UsageError(f"quadratic field parameter must not be {d}")
        if any(e > 1 for _, e in factor_int(abs(d))):
            raise UsageError(f"quadratic field parameter {d} is not squarefree")
        disc = d if d % 4 == 1 else 4 * d
        if d > 0:
            return NumberFieldSpec(d, disc, 2, 2, 0)
        return NumberFieldSpec(d, disc, 2, 0, 1)

    @property
    def is_rationals(self) -> bool:
        return self.d is None

    def infinite_place_degrees(self) -> tuple[int, ...]:
        """d(v) for each infinite place: 1 per real place, 2 per complex."""
        return (1,) * self.real_places + (2,) * self.complex_places

    def describe(self) -> str:
        return "rationals" if self.is_rationals else f"quadratic({self.d})"


def kronecker_symbol(a: int, p: int) -> int:
    """Kronecker symbol (a|p) for p prime."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


@dataclass(frozen=True)
class Splitting:
    kind: str  # "rational" | "split" | "inert" | "ramified"
    primes: tuple[tuple[PrimeId, int], ...]  # ((p, slot), norm) per prime above p


@functools.lru_cache(maxsize=65536)
def split_prime(field: NumberFieldSpec, p: int) -> Splitting:
    """Decompose the rational prime p in the field.

    Ramified iff p | D_F, split iff (D_F|p) = 1, inert otherwise.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not a rational prime")
    return _splitting(field, p)


def _splitting(field: NumberFieldSpec, p: int) -> Splitting:
    """split_prime for a p known to be prime."""
    if field.is_rationals:
        return Splitting("rational", (((p, 0), p),))
    D = field.discriminant
    if D % p == 0:
        return Splitting("ramified", (((p, 0), p),))
    k = kronecker_symbol(D, p)
    if k == 1:
        return Splitting("split", (((p, 0), p), ((p, 1), p)))
    return Splitting("inert", (((p, 0), p * p),))


def prime_norm(field: NumberFieldSpec, pid: PrimeId) -> int:
    p, slot = pid
    for cand, norm in split_prime(field, p).primes:
        if cand == (p, slot):
            return norm
    raise UsageError(f"prime id {pid} does not exist in {field.describe()}")


@dataclass(frozen=True)
class IdealIndex:
    """An integral ideal, given by its prime factorization and norm."""

    field: NumberFieldSpec
    factors: tuple[tuple[PrimeId, int], ...]  # sorted by (p, slot), exponents >= 1
    norm: int

    def __repr__(self):
        if not self.factors:
            return "(1)"
        parts = [f"P({p}:{s})^{e}" if e > 1 else f"P({p}:{s})" for (p, s), e in self.factors]
        return "*".join(parts)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def sort_key(self):
        return (self.norm, self.factors)


def unit_ideal(field: NumberFieldSpec) -> IdealIndex:
    return IdealIndex(field, (), 1)


def ideal_from_factors(field: NumberFieldSpec, factors) -> IdealIndex:
    items = tuple(sorted((pid, e) for pid, e in factors if e != 0))
    norm = 1
    for pid, e in items:
        if e < 0:
            raise UsageError("ideal exponents must be nonnegative")
        norm *= prime_norm(field, pid) ** e
    return IdealIndex(field, items, norm)


def prime_ideal(field: NumberFieldSpec, pid: PrimeId) -> IdealIndex:
    return IdealIndex(field, ((pid, 1),), prime_norm(field, pid))


def ideal_mul(a: IdealIndex, b: IdealIndex) -> IdealIndex:
    if a.field != b.field:
        raise UsageError("ideal product requires a common field")
    exps = dict(a.factors)
    for pid, e in b.factors:
        exps[pid] = exps.get(pid, 0) + e
    factors = tuple(sorted(exps.items()))
    return IdealIndex(a.field, factors, a.norm * b.norm)


def ideal_from_int(field: NumberFieldSpec, n: int) -> IdealIndex:
    """The ideal (n) generated by a positive rational integer.

    (p) factors as p0*p1 (split), p0^2 (ramified), or p0 (inert/rational).
    """
    if n < 1:
        raise UsageError("ideal_from_int expects a positive integer")
    factors = []
    for p, e in factor_int(n):
        spl = split_prime(field, p)
        mult = 2 if spl.kind == "ramified" else 1
        for pid, _ in spl.primes:
            factors.append((pid, e * mult))
    return ideal_from_factors(field, factors)


def gcd_lcm(a: IdealIndex, b: IdealIndex) -> tuple[IdealIndex, IdealIndex]:
    """Componentwise min/max of exponents; gcd*lcm = a*b."""
    if a.field != b.field:
        raise UsageError("gcd/lcm requires ideals over a common field")
    ea, eb = dict(a.factors), dict(b.factors)
    gcd_f, lcm_f = [], []
    for pid in sorted(set(ea) | set(eb)):
        x, y = ea.get(pid, 0), eb.get(pid, 0)
        if min(x, y):
            gcd_f.append((pid, min(x, y)))
        lcm_f.append((pid, max(x, y)))
    return ideal_from_factors(a.field, gcd_f), ideal_from_factors(a.field, lcm_f)


def is_squarefree_ideal(a: IdealIndex) -> bool:
    return all(e == 1 for _, e in a.factors)


def primes_up_to(n: int) -> np.ndarray:
    if n > PRIME_SIEVE_CEILING:
        raise ResourceLimitError(f"a prime sieve up to {n} exceeds the ceiling {PRIME_SIEVE_CEILING}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def prime_ideal_arrays(field: NumberFieldSpec, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, slot, norm) of every prime ideal of norm <= bound, as int64 arrays
    sorted by (norm, p, slot)."""
    p = primes_up_to(bound)
    if field.is_rationals:
        return p, np.zeros_like(p), p
    listed = sorted(
        (norm, q, slot)
        for q in p.tolist()  # sieved, so no primality test
        for (_, slot), norm in _splitting(field, q).primes
        if norm <= bound
    )
    norm, prime, slot = np.array(listed, dtype=np.int64).reshape(-1, 3).T
    return prime, slot, norm


def prime_ideals_up_to(field: NumberFieldSpec, bound: int) -> list[tuple[PrimeId, int]]:
    """All prime ideals of norm <= bound, sorted by (norm, p, slot)."""
    prime, slot, norm = (x.tolist() for x in prime_ideal_arrays(field, bound))
    return list(zip(zip(prime, slot), norm))


def check_ideal_bytes(field: NumberFieldSpec, bound: int) -> None:
    """Refuse a bound whose ideals could take more than IDEAL_BYTES_CEILING as
    IdealIndex objects, before anything is sieved or built."""
    if bound < 1:
        raise UsageError("an ideal table needs bound >= 1")
    # B ideals over Q; a quadratic field has at most d(n) of norm n, so at
    # most sum_{d <= B} floor(B/d) <= B (1 + ln B)
    count = bound if field.is_rationals else bound * (1.0 + math.log(bound))
    held = math.ceil(count * BYTES_PER_IDEAL)
    if held > IDEAL_BYTES_CEILING:
        raise ResourceLimitError(
            f"ideals of norm <= {bound} over {field.describe()} could take {held} bytes, "
            f"which exceeds the ceiling of {IDEAL_BYTES_CEILING} bytes"
        )


def enumerate_ideals(field: NumberFieldSpec, bound: int) -> list[IdealIndex]:
    """All integral ideals of norm <= bound, sorted by (norm, factorization),
    as IdealIndex objects: the entries of idealtable.IdealTable, for loops
    that take one ideal at a time."""
    from .idealtable import IdealTable

    return IdealTable(field, bound).ideals()


def validate_ideal(a: IdealIndex) -> None:
    """Check the norm/factorization invariant; raises InvariantError."""
    norm = 1
    last = None
    for pid, e in a.factors:
        if e < 1:
            raise InvariantError(f"ideal {a} carries a nonpositive exponent")
        if last is not None and pid <= last:
            raise InvariantError(f"ideal {a} factors are not sorted")
        last = pid
        p, slot = pid
        spl = split_prime(a.field, p)
        known = {cand: n for cand, n in spl.primes}
        if pid not in known:
            raise InvariantError(f"ideal {a} names a prime id {pid} that does not exist")
        norm *= known[pid] ** e
    if norm != a.norm:
        raise InvariantError(f"ideal {a} has norm {a.norm}, factorization gives {norm}")


def dedekind_zeta_ideal_counts(field: NumberFieldSpec, bound: int) -> np.ndarray:
    """counts[m] = number of ideals of norm m, for m <= bound.

    Independent of enumerate_ideals: over Q this is identically 1; over a
    quadratic field it is the divisor-sum convolution 1 * chi_D with chi_D
    the Kronecker symbol mod the discriminant.
    """
    counts = np.zeros(bound + 1, dtype=np.int64)
    if field.is_rationals:
        counts[1:] = 1
        return counts
    D = field.discriminant
    chi_vals = np.zeros(bound + 1, dtype=np.int64)
    chi_vals[1] = 1
    for n in range(2, bound + 1):
        m, v = n, 1
        d = 2
        while d * d <= m:
            while m % d == 0:
                v *= kronecker_symbol(D, d)
                m //= d
            d += 1
        if m > 1:
            v *= kronecker_symbol(D, m)
        chi_vals[n] = v
    for d in range(1, bound + 1):
        counts[d::d] += chi_vals[d]
    return counts


def selftest() -> list[tuple[str, bool, str]]:
    """Fast invariant suite used by the CLI --selftest hook."""
    results = []
    q = NumberFieldSpec.rationals()
    gauss = NumberFieldSpec.quadratic(-1)

    ids = enumerate_ideals(q, 20)
    ok = [i.norm for i in ids] == list(range(1, 21))
    results.append(("rational ideal enumeration", ok, "norms 1..20"))

    ids = enumerate_ideals(gauss, 5)
    ok = [i.norm for i in ids] == [1, 2, 4, 5, 5]
    results.append(("gaussian ideal enumeration", ok, str([i.norm for i in ids])))

    for field in (q, gauss, NumberFieldSpec.quadratic(5)):
        bound = 300
        counts = dedekind_zeta_ideal_counts(field, bound)
        enum = enumerate_ideals(field, bound)
        ok = len(enum) == int(counts.sum())
        results.append(
            (f"zeta coefficient count over {field.describe()}", ok, f"{len(enum)} ideals")
        )
        for ideal in enum[:50]:
            validate_ideal(ideal)

    a = ideal_from_int(q, 12)
    b = ideal_from_int(q, 18)
    g, l = gcd_lcm(a, b)
    ok = g.norm * l.norm == a.norm * b.norm and g.norm == 6 and l.norm == 36
    results.append(("gcd*lcm = product", ok, f"gcd {g.norm} lcm {l.norm}"))
    return results
