"""Dirichlet coefficients of standard and Rankin-Selberg L-functions.

Local factors are encoded by parameter multisets.  The four series kinds:

    lambda    coefficients of L             (complete homogeneous h_k)
    mu        coefficients of 1/L           (signed elementary (-1)^k e_k)
    biglambda coefficients of -L'/L         (power sums times log Np)
    logl      coefficients of log L         (power sums over ell)

For a pair of members the unramified local parameter multiset is the
product set {alpha_i * conj(beta_j)}.  At ramified primes two models are
available: "product" keeps the same product formula with zero parameters
included (a documented stand-in), while "gl1_exact" replaces the pair of
degree-1 members by the primitive Dirichlet character psi inducing
chi_a * conj(chi_b), which is exact.  default_model chooses one model for
every pair of a table; reports do not carry it.
psi is never built: psi(p) is 0 where the p-parts of chi_a and chi_b
differ, and otherwise e(angle/M) with the integer angle
A_a M/M_a - A_b M/M_b mod M, M = lcm(M_a, M_b), from each member's angle
A at p (characters.PrimeAngles).

Every series is a pair: a member's own series is its pair with the trivial
member pi0, whose parameters are all 1 (family_arrays pairs each member with
the trivial member when no pi0 is given).

Pair coefficients come from power sums.  The power sums of the product
multiset factor, P_j = p_j(alpha) * conj(p_j(beta)), and log L(pi x pi') at
p is sum_j P_j x^j / j; so L and 1/L are exp(+-sum_j P_j x^j / j), whose
coefficients newton_series builds by Newton's identities
k c_k = +-sum_{j<=k} P_j c_{k-j} (Macdonald, Symmetric Functions and Hall
Polynomials, I.2).  No partition or determinant is taken, and pair mu is
0j past the degree of the pair polynomial.  Against the Cauchy sum over
partitions and the np.convolve pair polynomial, the tests' oracle, valid
members agree to 3e-12 relative to max(1, |value|).  The recurrence loses
digits where its sum cancels: on 200 draws of standard complex Gaussian
parameters of degree up to 4, which are not valid members, mu of a 4 x 4
pair at k = 16 is off by 9e-5 of its value (1.8e-7 of the pair's largest
coefficient), while lambda stays within 1.2e-14.  Validation caps |alpha|
at N(p)^theta_bound(n), which keeps the terms of the sums, and so that
spread, small.

A table of pair series is a member list and two index arrays into it, one
pair per column, under one model (_PrimePowerArrays).  It keeps one row per
prime power, filled once for all its columns, in pieces of bounded size:
under gl1_exact by the angle rule, as uint32 codes into one array of
distinct values that lasts as long as the table, each value computed once
per (angle, M, exponent); under product as complex values from each
member's power sums at the prime, combined over the columns by array
operations.  rows alone
multiplies the rows out over the factors that an idealtable.IdealTable
gives each ideal, for one series (expand_global) and for a family
(family_arrays and the pair tables of covers).

A series of one pair (CoefficientSeries) is arrays over an ideal table:
the stored terms' ideals, selected from the table, with their norms and
values, in the table's (norm, factors) order.  No per-ideal object or dict
is kept; IdealIndex objects are made only on request (items, value).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import characters as chars
from .errors import ResourceLimitError, UsageError
from .ideals import IDEAL_BYTES_CEILING, IdealIndex, NumberFieldSpec, ideal_mul, prime_ideal, prime_norm
from .idealtable import IdealTable, PrimePowers
from .localdata import Family, LocalParameters, Representation, contragredient, trivial_representation

SERIES_KINDS = ("lambda", "mu", "biglambda", "logl")
PARTITION_SIZE_CAP = 64
ROWS_CHUNK = 1 << 12  # values per step of _PrimePowerArrays.rows, which bounds its working arrays
FILL_VALUES = 1 << 10  # values per piece of a _fill block, which bounds the kernels' working arrays
TABLE_ROWS = 64  # prime-power rows a new _PrimePowerArrays table is checked for; its fills size it
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
def _cached_ideal_list(field: NumberFieldSpec, bound: int) -> IdealTable:
    return IdealTable(field, bound)


def ideal_list(field: NumberFieldSpec, bound: int) -> IdealTable:
    """The table of the ideals of norm <= bound, cached for repeated moderate bounds."""
    if bound <= _IDEAL_CACHE_MAX_BOUND:
        return _cached_ideal_list(field, bound)
    return IdealTable(field, bound)


@dataclass
class CoefficientSeries:
    """Coefficients of one kind at the integral ideals of norm <= bound, as
    arrays over an ideal table.

    ideals selects the stored terms from the table, in its (norm, factors)
    order: the nonzero coefficients, and the unit ideal's for lambda and mu.
    values holds their coefficients and norms their norms.  biglambda and
    logl series are read off the table of prime powers alone.
    """

    field: NumberFieldSpec
    kind: str
    bound: int
    ideals: IdealTable
    values: np.ndarray  # complex128, one per stored term

    @property
    def norms(self) -> np.ndarray:
        return self.ideals.norm

    def value(self, ideal: IdealIndex) -> complex:
        """The coefficient at the ideal, 0j where no term is stored."""
        lo, hi = bisect.bisect_left(self.norms, ideal.norm), bisect.bisect_right(self.norms, ideal.norm)
        for at, stored in enumerate(self.ideals[lo:hi].ideals(), lo):
            if stored == ideal:
                return complex(self.values[at])
        return 0j

    def items(self) -> list[tuple[IdealIndex, complex]]:
        """(ideal, coefficient) of every stored term, in table order."""
        return list(zip(self.ideals.ideals(), self.values.tolist()))


# ---------------------------------------------------------------------------
# symmetric-function kernels


def power_sum(alphas, k: int) -> complex:
    return complex(sum(a**k for a in alphas)) if k else complex(len(alphas))


@functools.lru_cache(maxsize=65536)
def partitions_of(k: int, max_parts: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k into at most max_parts parts, lexicographic order; the
    tests' Cauchy-identity oracle sums over them, and the benchmark reads its
    cache counters."""
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


def newton_series(sums: np.ndarray, sign: int) -> np.ndarray:
    """c_0..c_K of exp(sign * sum_j P_j x^j / j) from the pair power sums
    P_1..P_K on the last axis: the coefficients of L for sign 1 and of 1/L
    for sign -1, by Newton's identities k c_k = sign * sum_{j<=k} P_j c_{k-j}.
    Each sum is divided by k, not multiplied by 1/k, so that sums of small
    integers, as the trivial member's, stay exact.
    """
    c = np.zeros(sums.shape[:-1] + (sums.shape[-1] + 1,), dtype=np.complex128)
    c[..., 0] = 1
    for k in range(1, c.shape[-1]):
        c[..., k] = sign * (sums[..., :k] * c[..., k - 1 :: -1]).sum(axis=-1) / k
    return c


def rankin_selberg_local(a: LocalParameters, b: LocalParameters, k: int) -> complex:
    """x^k coefficient of the local pair factor at a common prime, the product
    model: newton_series of the pair power sums p_j(alpha) * conj(p_j(beta))."""
    if a.prime != b.prime:
        raise UsageError("local pair coefficients need a common prime")
    sums = [power_sum(a.alphas, j) * np.conj(power_sum(b.alphas, j)) for j in range(1, k + 1)]
    return complex(newton_series(np.array(sums, dtype=np.complex128), 1)[k])


# ---------------------------------------------------------------------------
# ramified model choice


def default_model(members) -> str:
    """gl1_exact when every member is a degree-1 character member, else product."""
    exact = all(m.degree == 1 and m.character is not None for m in members)
    return "gl1_exact" if exact else "product"


def _gl1_local(angle: int, m: int, e: int, kind: str) -> complex:
    """The GL1 model's value at p^e where psi(p) = e(angle/m): psi(p)^e for lambda,
    -psi(p) or 0 for mu, psi(p)^e / e for logl; biglambda's psi(p)^e awaits log p."""
    v = chars.unit_root(angle, m)
    if kind == "mu":
        return -v if e == 1 else 0j
    return v**e / e if kind == "logl" else v**e


class _Gl1Pairs:
    """Local values of gl1_exact columns from their members' character angles,
    as codes into one value array that grows with the source.

    psi, the primitive character inducing chi_a * conj(chi_b), is never built:
    psi(p) = e(angle/M) with angle = A_a M/M_a - A_b M/M_b mod M, M = lcm(M_a, M_b),
    and psi(p) = 0 where the p-parts of chi_a and chi_b differ (characters.PrimeAngles).
    values[0] is 0j, values[1] is 1+0j and values[2 + k] is _gl1_local at the k-th
    of _keys, int64 numbers of (angle, M, exponent); biglambda's values are psi(p)^e,
    which its table multiplies by log p as it reads them.  The source lasts as
    long as its table, so that the codes stay valid across fills.
    """

    def __init__(self, members: tuple[Representation, ...], sides: np.ndarray, kind: str):
        self.kind = kind
        characters = [m.character for m in members]
        self._angles = chars.PrimeAngles(characters)
        self._sides = sides
        denoms = np.array([chi.order_denom for chi in characters], dtype=np.int64)
        pair_denoms = denoms[sides]
        self._order = np.lcm(*pair_denoms)  # M of each column
        self._scale = self._order // pair_denoms
        # (M, angle) -> base + angle numbers the pairs 0 <= angle < M of every M apart
        orders, position = np.unique(self._order, return_inverse=True)
        self._base = (np.cumsum(orders) - orders)[position]
        self.values = np.array([0j, 1 + 0j])
        self._keys = np.empty(0, dtype=np.int64)

    def block(self, prime: np.ndarray, slot: np.ndarray, exponent: np.ndarray) -> np.ndarray:
        """The (prime powers, columns) codes at the prime powers P^e given by
        their (p, slot, e) arrays, with one _gl1_local call per key new to the
        source."""
        primes, column = np.unique(prime, return_inverse=True)
        angles, parts = self._angles.at(primes)
        a, b = self._sides
        psi = (angles[:, a] * self._scale[0] - angles[:, b] * self._scale[1]) % self._order
        live = (parts[:, a] == parts[:, b])[column]
        angle, order, base, e = (
            np.broadcast_to(x, live.shape)[live] for x in (psi[column], self._order, self._base, exponent[:, None])
        )
        key = (base + angle) * 64 + e  # a prime power of norm below 2^63 has e < 64
        known = len(self._keys)
        distinct, first, inverse = np.unique(np.concatenate([self._keys, key]), return_index=True, return_inverse=True)
        added = np.flatnonzero(first >= known)
        code = first + 2
        code[added] = np.arange(known + 2, known + 2 + len(added))
        at = first[added] - known  # the first entry of each new key
        fresh = [_gl1_local(*key, self.kind) for key in zip(*(x[at].tolist() for x in (angle, order, e)))]
        self._keys = np.concatenate([self._keys, distinct[added]])
        self.values = np.concatenate([self.values, np.array(fresh, dtype=np.complex128)])
        codes = np.zeros(live.shape, dtype=np.intp)
        codes[live] = code[inverse[known:]]
        return codes


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


class _ProductEngines:
    """Local values of product-model columns from their members' power sums.

    Per block each member's parameters are read once per prime and its power
    sums p_1..p_K taken there, K the largest exponent the block needs at that
    prime.  The pair power sums P_j = p_j(alpha) * conj(p_j(beta)) are one
    product over the columns' member indices, the coefficients of
    log L(pi x pi') at p being P_j / j.
    biglambda and logl read P_e, in the order of numpy's scalar arithmetic;
    lambda and mu are newton_series of P, exp(+-sum_j P_j x^j / j).  mu is
    0j past n_a * n_b, the degree of the pair polynomial, where n counts a
    member's nonzero parameters at p.
    """

    def __init__(self, members: tuple[Representation, ...], sides: np.ndarray, kind: str):
        self.kind = kind
        self._members = members
        self._sides = sides

    def block(self, prime: np.ndarray, slot: np.ndarray, exponent: np.ndarray) -> np.ndarray:
        """The (prime powers, columns) values at the prime powers P^e given by
        their (p, slot, e) arrays, one array step per distinct K."""
        field = self._members[0].field
        factors = list(zip(zip(prime.tolist(), slot.tolist()), exponent.tolist()))
        primes = {pid: prime_ideal(field, pid) for pid, _ in factors}
        local = {pid: [rep.local_at(prime) for rep in self._members] for pid, prime in primes.items()}
        depth = {}
        for pid, e in factors:
            depth[pid] = max(depth.get(pid, 0), e)
        kind = self.kind
        a, b = self._sides
        out = np.empty((len(factors), a.size), dtype=np.complex128)
        for top in sorted(set(depth.values())):
            group = {pid: n for n, pid in enumerate(p for p, k in depth.items() if k == top)}
            rows = [r for r, (pid, _) in enumerate(factors) if pid in group]
            at = np.array([group[factors[r][0]] for r in rows], dtype=np.intp)
            e = np.array([factors[r][1] for r in rows], dtype=np.intp)
            flat = [power_sum(pa.alphas, j) for pid in group for pa in local[pid] for j in range(1, top + 1)]
            sums = np.array(flat, dtype=np.complex128).reshape(len(group), len(self._members), top)
            re, im = _times_conj(sums[:, a], sums[:, b])
            if kind == "biglambda":
                log_p = np.array([math.log(primes[factors[r][0]].norm) for r in rows])[:, None]
                out[rows] = _times_log(_complex(re[at, :, e - 1], im[at, :, e - 1]), log_p)
            elif kind == "logl":
                # numpy's complex over an int e: (re + im * (0/e)) * (1 / (e + 0 * (0/e)))
                re, im, inverse = re[at, :, e - 1], im[at, :, e - 1], 1.0 / e[:, None]
                out[rows] = _complex((re + im * 0.0) * inverse, (im - re * 0.0) * inverse)
            else:
                values = newton_series(_complex(re, im), 1 if kind == "lambda" else -1)
                if kind == "mu":
                    nonzero = np.array(
                        [[sum(x != 0 for x in pa.alphas) for pa in local[pid]] for pid in group]
                    )
                    degree = (nonzero[:, a] * nonzero[:, b])[..., None]
                    values[np.arange(top + 1) > degree] = 0
                out[rows] = values[at, :, e]
        return out


class _PrimePowerArrays:
    """Values at ideals of pair series of one kind under one ramified model: the
    one product of local values.

    sides is a (2, columns) index array into members: column k is the pair
    members[sides[0, k]] x conj(members[sides[1, k]]), and a member may stand
    on both sides.  The kind and the model are checked once, for every column.
    Row 2 + k of the table holds the values over the columns at the field's k-th
    prime power, in the order of idealtable.PrimePowers, which every bound
    extends; row 0 is 0j and row 1 is 1+0j.  Under product the rows are complex
    values.  Under gl1_exact they are codes into the value array of the table's
    _Gl1Pairs source, built at the first fill and kept as long as the table, so
    that a code stays valid across fills: uint32 over several columns, 4 bytes
    an entry, and intp over one column, whose codes then index without a cast.
    Codes 0 and 1 are 0j and 1+0j; biglambda's values are psi(p)^e, multiplied
    by the log p of their row as the rows are read (_local), as _times_log
    multiplied them before.  The first fill sizes the table to
    its rows and later ones at least double it: a table allocated ahead of its
    rows past 4 MiB takes numpy's huge pages, whose RSS moves in 2 MiB steps
    with the table's alignment.  rows reads an IdealTable: it first fills the
    rows of the table's prime powers past those it holds (fill), through
    _Gl1Pairs under gl1_exact and _ProductEngines under product, in pieces of
    about FILL_VALUES values.  rows multiplies each ideal's factor rows with the explicit
    real/imaginary formula of Python's complex product (numpy's can differ in the last
    bit), so each value is the Python product of the local values in factor order.
    Factor lists are front-padded with row 1, as (1+0j)(1+0j) is exact; biglambda and
    logl read row 0 off prime powers; exact zeros come out as 0j.  The table and rows'
    output are checked against TABLE_BYTES_CEILING before they are allocated, at
    16 bytes an entry whatever the table holds.
    """

    def __init__(self, members, sides, kind: str, model: str):
        if kind not in SERIES_KINDS:
            raise UsageError(f"unknown series kind {kind!r}")
        if model == "gl1_exact":
            if default_model(members) != "gl1_exact":
                raise UsageError("gl1_exact requires two degree-1 members with character data")
        elif model != "product":
            raise UsageError(f"unknown ramified model {model!r}")
        self.members, self.kind, self.model = tuple(members), kind, model
        self.sides = np.asarray(sides, dtype=np.intp)
        columns = self.sides.shape[1]
        check_table_bytes(TABLE_ROWS, columns, "a coefficient table")
        coded = model == "gl1_exact"
        # uint32 codes; one column keeps intp codes, which index without a cast
        self._table = np.zeros((2, columns), dtype=(np.uint32 if columns > 1 else np.intp) if coded else np.complex128)
        self._table[1] = 1
        # coded biglambda rows are psi(p)^e, read times the log p of their row; rows 0 and 1 take 1.0
        self._log_p = np.ones(2) if coded and kind == "biglambda" else None
        self._powers: PrimePowers | None = None  # those of rows 2, 3, ...
        self._bound = 0  # every prime power of norm <= _bound has its row
        self._last: tuple[IdealIndex, np.ndarray] | None = None

    @functools.cached_property
    def _source(self) -> _Gl1Pairs | _ProductEngines:
        """The source of the local values, built when first read and kept as long
        as the table, whose codes index its values."""
        source = _Gl1Pairs if self.model == "gl1_exact" else _ProductEngines
        return source(self.members, self.sides, self.kind)

    def fill(self, ideals: IdealTable) -> None:
        """Fill the rows of the prime powers the ideals' table indexes past
        those this table holds."""
        if ideals.bound > self._bound:
            self._fill(ideals.powers, len(self._powers.norm) if self._powers else 0)
            self._powers, self._bound = ideals.powers, ideals.bound

    def _fill(self, powers: PrimePowers, start: int) -> None:
        """Rows 2 + k for the prime powers k >= start of powers, over every
        column at once: in pieces of about FILL_VALUES values (one row at
        least), where under the product model a prime's exponents share a
        piece, so that its members' power sums are taken once."""
        columns = self.sides.shape[1]
        end = 2 + len(powers.norm)
        if end > len(self._table):
            size = max(2 * len(self._table), end)
            check_table_bytes(size, columns, "a coefficient table")
            grown = np.zeros((size, columns), dtype=self._table.dtype)
            grown[: 2 + start] = self._table[: 2 + start]
            self._table = grown
        if self._log_p is not None:
            logs = [math.log(p) for p in powers.prime[start:].tolist()]
            self._log_p = np.concatenate([self._log_p[: 2 + start], logs])
        order = np.arange(start, len(powers.norm))
        if self.model == "product":  # each prime's exponents together, in order
            prime = (2 * powers.prime + powers.slot).tolist()  # one number per prime ideal
            order = np.array(sorted(order.tolist(), key=prime.__getitem__), dtype=np.intp)
            prime = [prime[k] for k in order.tolist()]
        piece = max(1, FILL_VALUES // max(1, columns))
        begin = 0
        while begin < len(order):
            stop = min(begin + piece, len(order))
            while self.model == "product" and stop < len(order) and prime[stop] == prime[stop - 1]:
                stop += 1
            taken = order[begin:stop]
            block = self._source.block(powers.prime[taken], powers.slot[taken], powers.exponent[taken])
            self._table[2 + taken] = block
            begin = stop

    def rows(self, ideals: IdealTable) -> np.ndarray:
        """The (columns, ideals) array of values, column j at entry j of the table."""
        size = self.sides.shape[1]
        check_table_bytes(size, len(ideals), "coefficient rows")
        self.fill(ideals)
        out = np.empty((size, len(ideals)), dtype=np.complex128)
        step = max(1, ROWS_CHUNK // max(1, size))
        for start in range(0, len(ideals), step):
            chunk = ideals[start : start + step]
            index = np.add(chunk.factors(), 2, dtype=np.intp)
            if self.kind in ("biglambda", "logl"):
                off = chunk.depth != 1
                index[off] = 1
                index[off, -1] = 0
            out.real[:, start : start + step], out.imag[:, start : start + step] = self._product(index)
        out[out == 0] = 0
        return out

    def _product(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The real and imaginary (columns, ideals) parts of the product of the
        table rows that each row of index lists, in order."""
        size = self.sides.shape[1]
        re, im = np.ones((len(index), size)), np.zeros((len(index), size))
        for r in index.T:
            loc = self._local(r)
            re, im = re * loc.real - im * loc.imag, re * loc.imag + im * loc.real
        return re.T, im.T

    def _local(self, r: np.ndarray) -> np.ndarray:
        """The (len(r), columns) complex values of table rows r: under gl1_exact
        their codes' values, biglambda's times log p."""
        if self.model == "product":
            return self._table[r]
        loc = self._source.values[self._table[r]]
        if self._log_p is not None:  # _times_log in place: (re log p - im 0, re 0 + im log p)
            log_p = self._log_p[r][:, None]
            re_zero = loc.real * 0.0
            loc.real *= log_p
            loc.real -= loc.imag * 0.0
            loc.imag *= log_p
            loc.imag += re_zero
        return loc

    def at(self, ideal: IdealIndex) -> np.ndarray:
        """rows at one ideal, each factor's row found among the filled prime
        powers by its (norm, p, slot, e), after filling to at least twice the
        bound when the ideal lies past it; the last ideal's values are kept,
        so that reading them entry by entry costs one product."""
        if self._last is None or self._last[0] != ideal:
            if self.kind in ("biglambda", "logl") and len(ideal.factors) != 1:
                index = [0]
            else:
                if ideal.norm > self._bound:
                    self.fill(IdealTable.prime_powers(ideal.field, max(ideal.norm, 2 * self._bound)))
                # the held powers in their (norm, p, slot, e) order, read as Python ints
                held = self._powers
                columns = (held.norm, held.prime, held.slot, held.exponent)
                norm, prime, slot, exponent = (x.item for x in columns)
                # a tuple display: tuple() over a generator leaves up to 2,000 resized tuples on a free list
                place = lambda k: (norm(k), prime(k), slot(k), exponent(k))
                keys = [(prime_norm(ideal.field, pid) ** e, *pid, e) for pid, e in ideal.factors]
                index = [2 + bisect.bisect_left(range(len(held.norm)), key, key=place) for key in keys] or [1]
            values = _complex(*self._product(np.array([index])))[:, 0]
            values[values == 0] = 0
            values.flags.writeable = False  # kept for the next call, so shared
            self._last = (ideal, values)
        return self._last[1]


def family_arrays(
    family: Family, kind: str, pi0: Representation | None
) -> tuple[_PrimePowerArrays, _PrimePowerArrays]:
    """A family's coefficients of one kind, one entry per member.

    Each member against pi0 itself, that is paired with contragredient(pi0);
    pi0 = None stands for the trivial member of the family's field, which
    gives each member's own series.  The second array holds the one diagonal
    lambda_{pi0 x dual pi0}, 1.0 at every ideal for the trivial member.  Both
    take default_model of the members and pi0 together.
    """
    pi0 = pi0 or trivial_representation(family.field)
    members = family.members + (contragredient(pi0),)
    model = default_model(members)
    size = len(family.members)
    column = _PrimePowerArrays(members, [np.arange(size), np.full(size, size)], kind, model)
    return column, _PrimePowerArrays([pi0], [[0], [0]], "lambda", model)


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
    members = [a] if a is b else [a, b]  # a member paired with itself is read once
    table = _PrimePowerArrays(members, [[0], [len(members) - 1]], kind, ramified_model)
    if kind in ("biglambda", "logl"):
        ideals = IdealTable.prime_powers(field, bound)
    else:
        ideals = ideal_list(field, bound)
    row = table.rows(ideals)[0]
    stored = (row != 0) | (ideals.depth == 0)
    return CoefficientSeries(field, kind, bound, ideals[stored], row[stored])


def fsum_complex(terms) -> complex:
    """The exactly rounded sum of complex terms: math.fsum of the real and of
    the imaginary parts, so the result does not depend on the terms' order."""
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def dirichlet_convolve(a: CoefficientSeries, b: CoefficientSeries, bound: int) -> CoefficientSeries:
    """(a * b)(n) = sum over ideal factorizations n = d e of a(d) b(e)."""
    if a.field != b.field:
        raise UsageError("convolution requires series over a common field")
    if a.bound < bound or b.bound < bound:
        raise UsageError("operand series are shorter than the requested bound")
    a_items = [(i, v) for i, v in a.items() if i.norm <= bound]
    b_items = [(i, v) for i, v in b.items() if i.norm <= bound]
    terms: dict[IdealIndex, list[complex]] = {}
    for ia, va in a_items:
        limit = bound // ia.norm
        for ib, vb in b_items:  # in norm order
            if ib.norm > limit:
                break
            terms.setdefault(ideal_mul(ia, ib), []).append(va * vb)
    table = ideal_list(a.field, bound)
    found = [(at, terms[ideal]) for at, ideal in enumerate(table.ideals()) if ideal in terms]
    stored = np.array([at for at, _ in found], dtype=np.intp)
    values = np.array([fsum_complex(t) for _, t in found], dtype=np.complex128)
    return CoefficientSeries(a.field, f"conv({a.kind},{b.kind})", bound, table[stored], values)


def diagonal_sum(rep: Representation, x: int) -> complex:
    """sum over N(n) <= x of lambda_{pi x dual(pi)}(n) / N(n), exactly rounded by
    fsum_complex; character members use the gl1_exact model, which is exact for them."""
    series = expand_global(rep, rep, x, "lambda", default_model([rep]))
    return fsum_complex(val / norm for val, norm in zip(series.values.tolist(), series.norms.tolist()))


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
    from .ziggurat import standard_normal

    results = []

    # the power-sum recurrence against direct series inversion, on standard
    # complex Gaussian parameters over a fixed cycle of degrees 1..3
    degrees = [(1 + t % 3, 1 + t // 3 % 3) for t in range(20)]
    normals = iter(standard_normal(1234, 2 * sum(n + n2 for n, n2 in degrees)).tolist())
    worst = 0.0
    for n, n2 in degrees:
        al = [complex(next(normals), next(normals)) for _ in range(n)]
        be = [complex(next(normals), next(normals)) for _ in range(n2)]
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
    results.append(("power-sum recurrence vs inversion", worst < 1e-10, f"rel err {worst:.2e}"))

    # lambda * mu = unit indicator for the trivial member
    triv = trivial_representation()
    lam = expand_global(triv, triv, 200, "lambda")
    mu = expand_global(triv, triv, 200, "mu")
    conv = dirichlet_convolve(lam, mu, 200)
    resid = max(abs(v - (1.0 if i.is_unit else 0.0)) for i, v in conv.items())
    results.append(("lambda * mu = unit", resid < 1e-12, f"residual {resid:.2e}"))

    # classical von Mangoldt from the trivial pair
    big = expand_global(triv, triv, 100, "biglambda")
    ok = abs(big.value(IdealIndex(triv.field, (((2, 0), 3),), 8)) - math.log(2)) < 1e-12
    results.append(("Lambda(8) = log 2", ok, ""))

    # diagonal nonnegativity on a synthetic family
    fam = synthetic_family(2, 2, seed=3)
    diag = expand_global(fam.members[0], fam.members[0], 300, "lambda")
    low = float(diag.values.real.min())
    results.append(("diagonal nonnegativity", low > -1e-12, f"min {low:.2e}"))

    h10 = mertens_sum(triv, 10)
    results.append(("harmonic mertens value", abs(h10 - 2.9289682539682538) < 1e-12, f"{h10}"))
    return results
