"""Dirichlet coefficients of standard and Rankin-Selberg L-functions.

Local factors are encoded by parameter multisets.  The four series kinds:

    lambda    coefficients of L             (complete homogeneous h_k)
    mu        coefficients of 1/L           (signed elementary e_k)
    biglambda coefficients of -L'/L         (power sums times log Np)
    logl      coefficients of log L         (power sums over ell)

For a pair of members the unramified local parameter multiset is the
product set {alpha_i * conj(beta_j)}.  At ramified primes two models are
available: "product" keeps the same product formula with zero parameters
included (a documented stand-in), while "gl1_exact" replaces the pair of
degree-1 members by the primitive Dirichlet character psi inducing
chi_a * conj(chi_b), which is exact.  default_model and pair_model choose
the model; reports do not carry it.
psi is never built: psi(p) is 0 where the p-parts of chi_a and chi_b
differ, and otherwise e(angle/M) with the integer angle
A_a M/M_a - A_b M/M_b mod M, M = lcm(M_a, M_b), from each member's angle
A at p (characters.PrimeAngles).

Every series is a pair: a member's own series is its pair with the trivial
member pi0, whose parameters are all 1 (family_arrays pairs each member with
the trivial member when no pi0 is given).

Pair coefficients use the Cauchy identity: the x^k coefficient of
prod_{i,j} (1 - a_i conj(b_j) x)^{-1} equals
sum over partitions lam of k with at most min(n, n') parts of
s_lam(a) * conj(s_lam(b)), with Schur values from the Jacobi-Trudi
determinant in complete homogeneous polynomials.  The determinant form
stays finite at repeated parameters, where quotient-of-alternants fails.
Against a degree-1 partner the only partition is (k,), so s_(k) = h_k and
no determinant is taken.

_PrimePowerArrays keeps one table row per prime power, filled once for all
its engines in one block per rows call: gl1_exact engines by the angle rule,
with one memo lookup per distinct (angle, M, exponent), product engines from
each member's values at the prime power (Schur values, power sum or the pair
polynomial), combined over the engines by array operations that repeat the
scalar arithmetic part by part, so that no bit moves.  rows alone multiplies
the rows out over an ideal's factors, for one series (expand_global) and for
a family (family_arrays and the pair tables of covers).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import characters as chars
from .errors import ResourceLimitError, UsageError
from .ideals import (
    IDEAL_BYTES_CEILING,
    IdealIndex,
    NumberFieldSpec,
    enumerate_ideals,
    ideal_mul,
    prime_ideal,
    prime_powers_up_to,
)
from .localdata import Family, LocalParameters, Representation, contragredient, trivial_representation

SERIES_KINDS = ("lambda", "mu", "biglambda", "logl")
PARTITION_SIZE_CAP = 64
ROWS_CHUNK = 1 << 14  # values per step of _PrimePowerArrays.rows, which bounds its working arrays
TABLE_ROWS = 64  # prime-power rows of a new _PrimePowerArrays table
TABLE_BYTES_CEILING = IDEAL_BYTES_CEILING  # a table or a rows output may hold what an enumeration may
_IDEAL_CACHE_MAX_BOUND = 200_000


def check_table_bytes(rows: int, columns: int, what: str) -> None:
    """Refuse a (rows, columns) complex array past TABLE_BYTES_CEILING, before it is allocated."""
    held = 16 * rows * columns
    if held > TABLE_BYTES_CEILING:
        raise ResourceLimitError(
            f"{what} of {rows} x {columns} complex values would take {held} bytes, "
            f"which exceeds the ceiling of {TABLE_BYTES_CEILING} bytes"
        )


@functools.lru_cache(maxsize=8)
def _cached_ideal_list(field: NumberFieldSpec, bound: int) -> tuple[IdealIndex, ...]:
    return tuple(enumerate_ideals(field, bound))


def ideal_list(field: NumberFieldSpec, bound: int):
    """Ideal enumeration with a small cache for repeated moderate bounds."""
    if bound <= _IDEAL_CACHE_MAX_BOUND:
        return _cached_ideal_list(field, bound)
    return enumerate_ideals(field, bound)


@dataclass
class CoefficientSeries:
    """Coefficients indexed by integral ideals up to a norm bound.

    biglambda and logl series store only their prime-power support.
    """

    field: NumberFieldSpec
    kind: str
    bound: int
    values: dict[IdealIndex, complex]

    def value(self, ideal: IdealIndex) -> complex:
        return self.values.get(ideal, 0j)

    def items_sorted(self):
        return sorted(self.values.items(), key=lambda kv: kv[0].sort_key())


# ---------------------------------------------------------------------------
# symmetric-function kernels


def poly_from_roots(alphas) -> np.ndarray:
    """Coefficients c[0..n] of prod_j (1 - alpha_j x); c[k] = (-1)^k e_k."""
    c = np.zeros(len(alphas) + 1, dtype=np.complex128)
    c[0] = 1.0
    for j, a in enumerate(alphas):
        c[1 : j + 2] -= a * c[: j + 1].copy()
    return c


def hom_sym_values(alphas, kmax: int) -> np.ndarray:
    """h_0..h_kmax of the multiset, by inverting prod (1 - alpha x)."""
    c = poly_from_roots(alphas)
    h = np.zeros(kmax + 1, dtype=np.complex128)
    h[0] = 1.0
    for k in range(1, kmax + 1):
        acc = 0j
        for j in range(1, min(len(c) - 1, k) + 1):
            acc += c[j] * h[k - j]
        h[k] = -acc
    return h


def power_sum(alphas, k: int) -> complex:
    return complex(sum(a**k for a in alphas)) if k else complex(len(alphas))


@functools.lru_cache(maxsize=65536)
def partitions_of(k: int, max_parts: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k into at most max_parts parts, lexicographic order."""
    if k > PARTITION_SIZE_CAP:
        raise UsageError(f"partition size {k} exceeds the cap {PARTITION_SIZE_CAP}")
    if k == 0:
        return ((),)
    if max_parts == 0:
        return ()
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(k, k, [])
    return tuple(out)


def schur_from_h(h: np.ndarray, lam: tuple[int, ...]) -> complex:
    """Jacobi-Trudi: s_lam = det[ h_{lam_i - i + j} ]."""
    r = len(lam)
    if r == 0:
        return 1 + 0j
    if r == 1:
        return complex(h[lam[0]])
    m = np.zeros((r, r), dtype=np.complex128)
    for i in range(r):
        for j in range(r):
            idx = lam[i] - i + j
            if 0 <= idx < len(h):
                m[i, j] = h[idx]
            elif idx == 0:
                m[i, j] = 1.0
    return complex(np.linalg.det(m))


def rankin_selberg_local(a: LocalParameters, b: LocalParameters, k: int) -> complex:
    """x^k coefficient of the local pair factor at a common prime.

    Cauchy identity: the sum over partitions of k of
    s_lam(alpha) * conj(s_lam(beta)), the product model.
    """
    if a.prime != b.prime:
        raise UsageError("local pair coefficients need a common prime")
    if k == 0:
        return 1 + 0j
    max_parts = min(len(a.alphas), len(b.alphas))
    acc = 0j
    for x, y in zip(_schur_values(a, k, max_parts), _schur_values(b, k, max_parts)):
        acc += x * np.conj(y)
    return complex(acc)


def _schur_values(params: LocalParameters, k: int, max_parts: int) -> tuple[complex, ...]:
    """s_lam(alphas) for lam in partitions_of(k, max_parts), in that order.

    Each side of a pair coefficient depends on one member only, so values
    that take a determinant are kept on the parameters, which
    Representation.local_at caches per prime: every pair sharing the member
    reuses them.  One entry per (k, max_parts), computed at those partitions
    only.  max_parts = 1, a partner of degree 1, is the one value h_k: it
    takes no determinant and is not kept.  A request with fewer parts than a
    kept entry selects from it, as partitions_of lists the partitions with
    at most max_parts parts in the same relative order.  partitions_of
    rejects k > PARTITION_SIZE_CAP before anything is kept.
    """
    kept = params.kernels
    values = kept.get((k, max_parts))
    if values is not None:
        return values
    partitions = partitions_of(k, max_parts)
    for parts in range(len(params.alphas), max_parts, -1) if kept else ():
        wider = kept.get((k, parts))
        if wider is not None:
            at = dict(zip(partitions_of(k, parts), wider))
            return tuple(at[lam] for lam in partitions)
    h = hom_sym_values(params.alphas, k)
    values = tuple(schur_from_h(h, lam) for lam in partitions)
    if max_parts > 1:
        kept[k, max_parts] = values
    return values


# ---------------------------------------------------------------------------
# ramified model choice


def _has_character(rep: Representation) -> bool:
    return rep.degree == 1 and rep.character is not None


def default_model(family: Family) -> str:
    """gl1_exact when every member is a degree-1 character member, else product."""
    return "gl1_exact" if all(_has_character(m) for m in family.members) else "product"


def pair_model(a: Representation, b: Representation, model: str) -> str:
    """The model for one pair: gl1_exact survives only between two character members."""
    if model == "gl1_exact" and _has_character(a) and _has_character(b):
        return "gl1_exact"
    return "product"


# ---------------------------------------------------------------------------
# local coefficient table for one pair


class _LocalEngine:
    """One series of local coefficients, the pair a x conj(b), of one kind
    under one ramified model; a member's own series is its pair with the
    trivial member.  It holds no rule: _PrimePowerArrays fills gl1_exact
    engines from their members' character angles (_Gl1Pairs) and product
    engines from their members' values (_ProductEngines).
    """

    def __init__(self, a: Representation, b: Representation, kind: str, model: str):
        if kind not in SERIES_KINDS:
            raise UsageError(f"unknown series kind {kind!r}")
        self.a, self.b, self.kind, self.model = a, b, kind, model
        if model == "gl1_exact":
            if not (_has_character(a) and _has_character(b)):
                raise UsageError("gl1_exact requires two degree-1 members with character data")
        elif model != "product":
            raise UsageError(f"unknown ramified model {model!r}")


@functools.lru_cache(maxsize=65536)
def _gl1_local(angle: int, m: int, e: int, kind: str) -> complex:
    """The GL1 model's value at p^e where psi(p) = e(angle/m): psi(p)^e for lambda,
    -psi(p) or 0 for mu, psi(p)^e / e for logl; biglambda's psi(p)^e awaits log p."""
    v = chars.unit_root(angle, m)
    if kind == "mu":
        return -v if e == 1 else 0j
    return v**e / e if kind == "logl" else v**e


class _Gl1Pairs:
    """Local values of gl1_exact engines from their members' character angles.

    psi, the primitive character inducing chi_a * conj(chi_b), is never built:
    psi(p) = e(angle/M) with angle = A_a M/M_a - A_b M/M_b mod M, M = lcm(M_a, M_b),
    and psi(p) = 0 where the p-parts of chi_a and chi_b differ (characters.PrimeAngles).
    """

    def __init__(self, engines: list[_LocalEngine], kind: str):
        self.kind = kind
        # each engine as two indices into the distinct characters of its members
        sides = [rep.character for eng in engines for rep in (eng.a, eng.b)]
        characters = {id(chi): chi for chi in sides}
        position = {key: n for n, key in enumerate(characters)}
        self._angles = chars.PrimeAngles(list(characters.values()))
        self._sides = np.array([position[id(chi)] for chi in sides], dtype=np.intp).reshape(-1, 2).T
        denoms = np.array([chi.order_denom for chi in characters.values()], dtype=np.int64)
        pair_denoms = denoms[self._sides]
        self._order = np.lcm(*pair_denoms)  # M of each engine
        self._scale = self._order // pair_denoms
        # (M, angle) -> base + angle numbers the pairs 0 <= angle < M of every M apart
        orders, position = np.unique(self._order, return_inverse=True)
        self._base = (np.cumsum(orders) - orders)[position]

    def block(self, factors) -> np.ndarray:
        """The (prime powers, engines) values, with one memo lookup per distinct
        (angle, M, exponent)."""
        primes, column = np.unique([pid[0] for pid, _ in factors], return_inverse=True)
        angles, parts = self._angles.at(primes)
        a, b = self._sides
        psi = (angles[:, a] * self._scale[0] - angles[:, b] * self._scale[1]) % self._order
        live = (parts[:, a] == parts[:, b])[column]
        exponents = np.array([e for _, e in factors])[:, None]
        angle, order, base, e = (
            np.broadcast_to(x, live.shape)[live]
            for x in (psi[column], self._order, self._base, exponents)
        )
        _, first, inverse = np.unique(
            (base + angle) * (exponents.max() + 1) + e, return_index=True, return_inverse=True
        )
        distinct = zip(*(x[first].tolist() for x in (angle, order, e)))
        memo = np.array([_gl1_local(*key, self.kind) for key in distinct], dtype=np.complex128)
        values = np.zeros(live.shape, dtype=np.complex128)
        values[live] = memo[inverse]
        if self.kind == "biglambda":
            values = _times_log(values, np.array([math.log(p) for p in primes.tolist()])[column, None])
        return values


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _times_log(values: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """values times the float log p, part by part, as a scalar complex (Python's or
    numpy's) times a float: (re log p - im 0, re 0 + im log p)."""
    re, im = values.real, values.imag
    return _complex(re * log_p - im * 0.0, re * 0.0 + im * log_p)


def _times_conj(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts of x * conj(y), formed as numpy's scalar product forms them;
    its array product can differ in the last bit."""
    xr, xi, yr, yi = x.real, x.imag, y.real, -y.imag
    return xr * yr - xi * yi, xr * yi + xi * yr


def _pair_mu_poly(pa: LocalParameters, pb: LocalParameters) -> np.ndarray:
    """prod over i, j of (1 - alpha_i conj(beta_j) x), one factor at a time.

    np.convolve sums with a dot product, whose rounding no elementwise
    formula reproduces, so pair mu keeps this chain, once per pair and prime.
    """
    prod_poly = np.ones(1, dtype=np.complex128)
    for x in pa.alphas:
        for y in pb.alphas:
            prod_poly = np.convolve(prod_poly, [1.0, -x * np.conj(y)])
    return prod_poly


class _ProductEngines:
    """Local values of product-model engines from their members' values.

    A member is a Representation on some engine's side.  Per block it reads
    its parameters once per prime and computes its values once per prime
    power: the power sum for biglambda and logl, the _schur_values tuple for
    lambda.  Each engine's value then comes from array operations over the
    engines' member indices, part by part, in the order of numpy's scalar
    arithmetic.  lambda is the Cauchy sum over partitions_of(k, min(n, n'))
    in that order; mu reads _pair_mu_poly.
    """

    def __init__(self, engines: list[_LocalEngine], kind: str):
        self.kind = kind
        members = {id(rep): rep for eng in engines for rep in (eng.a, eng.b)}
        position = {key: n for n, key in enumerate(members)}
        self._members = list(members.values())
        self._parts = max(min(eng.a.degree, eng.b.degree) for eng in engines)
        sides = [position[id(rep)] for eng in engines for rep in (eng.a, eng.b)]
        self._sides = np.array(sides, dtype=np.intp).reshape(-1, 2).T

    def block(self, factors) -> np.ndarray:
        """The (prime powers, engines) values."""
        field = self._members[0].field
        primes = {pid: prime_ideal(field, pid) for pid, _ in factors}
        local = {pid: [rep.local_at(prime) for rep in self._members] for pid, prime in primes.items()}
        rows = [(local[pid], e) for pid, e in factors]
        kind = self.kind
        if kind == "lambda":
            return self._cauchy(rows)
        if kind == "mu":
            polys = {}
            out = np.empty((len(rows), self._sides.shape[1]), dtype=np.complex128)
            for row, (params, e) in zip(out, rows):
                key = params[0].prime
                if key not in polys:
                    polys[key] = [_pair_mu_poly(params[i], params[j]) for i, j in self._sides.T.tolist()]
                row[:] = [c[e] if e < len(c) else 0j for c in polys[key]]
            return out
        flat = [power_sum(pa.alphas, e) for params, e in rows for pa in params]
        sums = np.array(flat, dtype=np.complex128).reshape(len(rows), len(self._members))
        a, b = self._sides
        re, im = _times_conj(sums[:, a], sums[:, b])
        if kind == "biglambda":
            log_p = np.array([math.log(primes[pid].norm) for pid, _ in factors])[:, None]
            return _times_log(_complex(re, im), log_p)
        # numpy's complex over an int e: (re + im * (0/e)) * (1 / (e + 0 * (0/e)))
        inverse = 1.0 / np.array([e for _, e in factors], dtype=np.float64)[:, None]
        return _complex((re + im * 0.0) * inverse, (im - re * 0.0) * inverse)

    def _cauchy(self, rows) -> np.ndarray:
        """Pair lambda: sum over partitions lam of s_lam(alpha) * conj(s_lam(beta)),
        accumulated from 0j in partitions_of order, one exponent at a time.

        Every pair sums over the partitions with at most self._parts parts, the
        largest min(n, n') over the engines.  A member has Schur value 0j at a
        partition with more parts than its degree, so a pair's partitions with
        more than min(n, n') parts add products that are +-0, and a sum that
        starts at 0j and so never is -0.0 keeps its bits under them: each value
        is the scalar sum over partitions_of(k, min(n, n')).
        """
        out = np.empty((len(rows), self._sides.shape[1]), dtype=np.complex128)
        exponents = np.array([e for _, e in rows])
        a, b = self._sides
        # sorted(set()) rather than np.unique, which imports numpy.ma
        for e in sorted(set(exponents.tolist())):
            at = np.flatnonzero(exponents == e)
            lams = partitions_of(e, self._parts)
            flat = [self._schur_row(pa, e, lams) for r in at.tolist() for pa in rows[r][0]]
            schur = np.array(flat, dtype=np.complex128).reshape(len(at), len(self._members), len(lams))
            re, im = np.zeros((len(at), len(a))), np.zeros((len(at), len(a)))
            for j in range(len(lams)):
                x_re, x_im = _times_conj(schur[:, a, j], schur[:, b, j])
                re, im = re + x_re, im + x_im
            out[at] = _complex(re, im)
        return out

    def _schur_row(self, params: LocalParameters, e: int, lams) -> list:
        """The member's Schur values at the partitions lams, 0j past its degree."""
        parts = min(len(params.alphas), self._parts)
        values = _schur_values(params, e, parts)
        if parts == self._parts:
            return list(values)
        at = dict(zip(partitions_of(e, parts), values))
        return [at.get(lam, 0j) for lam in lams]


class _PrimePowerArrays:
    """Values at ideals of a fixed list of engines of one kind: the one product of local values.

    Row r >= 2 of a growing table, zero-filled so that unused rows cost no memory,
    holds one prime power's values over the engines; row 0 is 1+0j and row 1 is 0j.
    Each rows call fills the rows of the prime powers new to the table in one block
    (_fill): the gl1_exact engines through _Gl1Pairs, the product engines through
    _ProductEngines.
    rows multiplies each ideal's factor rows with the explicit real/imaginary formula
    of Python's complex product (numpy's can differ in the last bit), so each value is
    the Python product of the local values in factor order.  Factor lists are
    front-padded with row 0, as (1+0j)(1+0j) is exact; biglambda and logl read row 1
    off prime powers; exact zeros come out as 0j.  The table and rows' output are
    checked against TABLE_BYTES_CEILING before they are allocated.
    """

    def __init__(self, engines: list[_LocalEngine], kind: str):
        check_table_bytes(TABLE_ROWS, len(engines), "a coefficient table")
        self.engines = engines
        self.kind = kind
        self._table = np.zeros((TABLE_ROWS, len(engines)), dtype=np.complex128)
        self._table[0] = 1
        self._row: dict[tuple[tuple[int, int], int], int] = {}
        self._last: tuple[IdealIndex, np.ndarray] | None = None
        self._sources = []
        for model, source in (("gl1_exact", _Gl1Pairs), ("product", _ProductEngines)):
            columns = [k for k, eng in enumerate(engines) if eng.model == model]
            if columns:
                self._sources.append((columns, source([engines[k] for k in columns], kind)))

    def _fill(self, factors: list[tuple[tuple[int, int], int]]) -> None:
        """Rows for prime powers new to the table, over every engine at once."""
        first = len(self._row) + 2
        end = first + len(factors)
        if end > len(self._table):
            size = max(2 * len(self._table), end)
            check_table_bytes(size, len(self.engines), "a coefficient table")
            grown = np.zeros((size, len(self.engines)), dtype=np.complex128)
            grown[:first] = self._table[:first]
            self._table = grown
        for row, factor in enumerate(factors, first):
            self._row[factor] = row
        block = self._table[first:end]
        for columns, source in self._sources:
            block[:, columns] = source.block(factors)

    def rows(self, ideals) -> np.ndarray:
        """The (engines, ideals) array of values, column j at ideals[j]."""
        check_table_bytes(len(self.engines), len(ideals), "coefficient rows")
        if self.kind in ("biglambda", "logl"):
            ideals_with_rows = (i for i in ideals if len(i.factors) == 1)
        else:
            ideals_with_rows = ideals
        new = dict.fromkeys(f for i in ideals_with_rows for f in i.factors if f not in self._row)
        if new:
            self._fill(list(new))
        size = len(self.engines)
        out = np.empty((size, len(ideals)), dtype=np.complex128)
        step = max(1, ROWS_CHUNK // max(1, size))
        for start in range(0, len(ideals), step):
            chunk = ideals[start : start + step]
            depth = max(len(i.factors) for i in chunk) or 1
            flat = itertools.chain.from_iterable(self._padded(i, depth) for i in chunk)
            index = np.fromiter(flat, dtype=np.intp, count=len(chunk) * depth)
            re, im = np.ones((len(chunk), size)), np.zeros((len(chunk), size))
            for r in index.reshape(len(chunk), depth).T:
                loc = self._table[r]
                re, im = re * loc.real - im * loc.imag, re * loc.imag + im * loc.real
            out.real[:, start : start + step], out.imag[:, start : start + step] = re.T, im.T
        out[out == 0] = 0
        return out

    def _padded(self, ideal: IdealIndex, depth: int) -> tuple[int, ...]:
        """The ideal's table rows, front-padded with row 0 to the depth."""
        if self.kind in ("biglambda", "logl") and len(ideal.factors) != 1:
            return (0,) * (depth - 1) + (1,)
        return (0,) * (depth - len(ideal.factors)) + tuple(map(self._row.__getitem__, ideal.factors))

    def at(self, ideal: IdealIndex) -> np.ndarray:
        """rows at one ideal; the last ideal's values are kept, so that
        reading them entry by entry costs one product."""
        if self._last is None or self._last[0] != ideal:
            values = self.rows([ideal])[:, 0]
            values.flags.writeable = False  # kept for the next call, so shared
            self._last = (ideal, values)
        return self._last[1]


def family_arrays(
    family: Family, kind: str, pi0: Representation | None
) -> tuple[_PrimePowerArrays, _PrimePowerArrays]:
    """A family's coefficients of one kind, one entry per member.

    Each member against pi0 itself, that is paired with contragredient(pi0),
    under pair_model(member, pi0, default_model(family)); pi0 = None stands
    for the trivial member of the family's field, which gives each member's
    own series.  The second array holds the one diagonal
    lambda_{pi0 x dual pi0}, 1.0 at every ideal for the trivial member.
    """
    pi0 = pi0 or trivial_representation(family.field)
    dual = contragredient(pi0)
    model = default_model(family)
    column = [_LocalEngine(m, dual, kind, pair_model(m, pi0, model)) for m in family.members]
    diagonal = _LocalEngine(pi0, pi0, "lambda", pair_model(pi0, pi0, model))
    return _PrimePowerArrays(column, kind), _PrimePowerArrays([diagonal], "lambda")


def expand_global(
    a: Representation,
    b: Representation,
    bound: int,
    kind: str,
    ramified_model: str = "product",
) -> CoefficientSeries:
    """Assemble global coefficients up to the norm bound.

    The series belongs to the pairing of a against the contragredient of b;
    pass b = contragredient(pi0) for a pairing with pi0 itself, and the
    trivial member for a's own series.  lambda and mu are multiplicative
    over coprime ideals; biglambda and logl are supported on prime powers
    only and the returned series stores just that support.
    """
    field = a.field
    if b.field != field:
        raise UsageError("pair expansion requires a common field")
    engine = _LocalEngine(a, b, kind, ramified_model)
    prime_powers = kind in ("biglambda", "logl")
    ideals = prime_powers_up_to(field, bound) if prime_powers else ideal_list(field, bound)
    row = _PrimePowerArrays([engine], kind).rows(ideals)[0].tolist()
    values = {ideal: val for ideal, val in zip(ideals, row) if val != 0 or ideal.is_unit}
    return CoefficientSeries(field, kind, bound, values)


class KahanAccumulator:
    """Compensated complex accumulation, one guard per real component."""

    __slots__ = ("re", "im", "cre", "cim")

    def __init__(self):
        self.re = self.im = self.cre = self.cim = 0.0

    def add(self, z: complex):
        y = z.real - self.cre
        t = self.re + y
        self.cre = (t - self.re) - y
        self.re = t
        y = z.imag - self.cim
        t = self.im + y
        self.cim = (t - self.im) - y
        self.im = t

    def value(self) -> complex:
        return complex(self.re, self.im)


def dirichlet_convolve(a: CoefficientSeries, b: CoefficientSeries, bound: int) -> CoefficientSeries:
    """(a * b)(n) = sum over ideal factorizations n = d e of a(d) b(e)."""
    if a.field != b.field:
        raise UsageError("convolution requires series over a common field")
    if a.bound < bound or b.bound < bound:
        raise UsageError("operand series are shorter than the requested bound")
    a_items = [(i, v) for i, v in a.items_sorted() if i.norm <= bound]
    b_items = [(i, v) for i, v in b.items_sorted() if i.norm <= bound]
    acc: dict[IdealIndex, KahanAccumulator] = {}
    for ia, va in a_items:
        limit = bound // ia.norm
        for ib, vb in b_items:
            if ib.norm > limit:
                break
            key = ideal_mul(ia, ib)
            slot = acc.get(key)
            if slot is None:
                slot = acc[key] = KahanAccumulator()
            slot.add(va * vb)
    return CoefficientSeries(
        a.field,
        f"conv({a.kind},{b.kind})",
        bound,
        {k: v.value() for k, v in acc.items()},
    )


def diagonal_sum(rep: Representation, x: int) -> complex:
    """sum over N(n) <= x of lambda_{pi x dual(pi)}(n) / N(n), Kahan-summed in ideal
    order; character members use the gl1_exact model, which is exact for them."""
    series = expand_global(rep, rep, x, "lambda", pair_model(rep, rep, "gl1_exact"))
    acc = KahanAccumulator()
    for ideal, val in series.items_sorted():
        acc.add(val / ideal.norm)
    return acc.value()


def mertens_sum(rep: Representation, x: int) -> float:
    """diagonal_sum(rep, x) as a float: diagonal coefficients are nonnegative
    reals, so a total with an imaginary part is rejected."""
    if x < 3:
        raise UsageError("mertens_sum requires x >= 3")
    total = diagonal_sum(rep, x)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise UsageError(f"diagonal coefficient sum is not real: {total}")
    return float(total.real)


def selftest() -> list[tuple[str, bool, str]]:
    from .localdata import synthetic_family

    results = []
    rng = np.random.default_rng(1234)

    # Cauchy identity against direct series inversion
    worst = 0.0
    for _ in range(20):
        n, n2 = rng.integers(1, 4, size=2)
        al = rng.normal(size=n) + 1j * rng.normal(size=n)
        be = rng.normal(size=n2) + 1j * rng.normal(size=n2)
        prime = prime_ideal(NumberFieldSpec.rationals(), (2, 0))
        pa = LocalParameters(prime, tuple(map(complex, al)))
        pb = LocalParameters(prime, tuple(map(complex, be)))
        poly = np.ones(1, dtype=np.complex128)
        for x in al:
            for y in be:
                poly = np.convolve(poly, [1.0, -x * np.conj(y)])
        inv = np.zeros(9, dtype=np.complex128)
        inv[0] = 1.0
        for k in range(1, 9):
            inv[k] = -sum(poly[j] * inv[k - j] for j in range(1, min(len(poly) - 1, k) + 1))
        for k in range(9):
            got = rankin_selberg_local(pa, pb, k)
            ref = complex(inv[k])
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    results.append(("Cauchy identity vs inversion", worst < 1e-10, f"rel err {worst:.2e}"))

    # lambda * mu = unit indicator for the trivial member
    triv = trivial_representation()
    lam = expand_global(triv, triv, 200, "lambda")
    mu = expand_global(triv, triv, 200, "mu")
    conv = dirichlet_convolve(lam, mu, 200)
    resid = max(
        abs(v - (1.0 if i.is_unit else 0.0)) for i, v in conv.values.items()
    )
    results.append(("lambda * mu = unit", resid < 1e-12, f"residual {resid:.2e}"))

    # classical von Mangoldt from the trivial pair
    big = expand_global(triv, triv, 100, "biglambda")
    ok = abs(big.value(IdealIndex(triv.field, (((2, 0), 3),), 8)) - math.log(2)) < 1e-12
    results.append(("Lambda(8) = log 2", ok, ""))

    # diagonal nonnegativity on a synthetic family
    fam = synthetic_family(2, 2, seed=3)
    diag = expand_global(fam.members[0], fam.members[0], 300, "lambda")
    low = min(v.real for v in diag.values.values())
    results.append(("diagonal nonnegativity", low > -1e-12, f"min {low:.2e}"))

    h10 = mertens_sum(triv, 10)
    results.append(("harmonic mertens value", abs(h10 - 2.9289682539682538) < 1e-12, f"{h10}"))
    return results
