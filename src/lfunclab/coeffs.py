"""Dirichlet coefficients of standard and Rankin-Selberg L-functions.

Local factors are encoded by parameter multisets.  The four series kinds:

    lambda    coefficients of L             (complete homogeneous h_k)
    mu        coefficients of 1/L           (signed elementary e_k)
    biglambda coefficients of -L'/L         (power sums times log Np)
    logl      coefficients of log L         (power sums over ell)

For a pair of members the unramified local parameter multiset is the
product set {alpha_i * conj(beta_j)}.  At ramified primes two models are
available: "product" keeps the same product formula with zero parameters
included (a documented stand-in, labelled non-exact in reports), while
"gl1_exact" replaces the pair of degree-1 members by the primitive
Dirichlet character inducing chi_a * conj(chi_b), which is exact.

Pair coefficients use the Cauchy identity: the x^k coefficient of
prod_{i,j} (1 - a_i conj(b_j) x)^{-1} equals
sum over partitions lam of k with at most min(n, n') parts of
s_lam(a) * conj(s_lam(b)), with Schur values from the Jacobi-Trudi
determinant in complete homogeneous polynomials.  The determinant form
stays finite at repeated parameters, where quotient-of-alternants fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import characters as chars
from .errors import UsageError
from .ideals import (
    IdealIndex,
    NumberFieldSpec,
    enumerate_ideals,
    ideal_mul,
    prime_ideal,
    prime_ideals_up_to,
    unit_ideal,
)
from .localdata import Family, LocalParameters, Representation, contragredient

SERIES_KINDS = ("lambda", "mu", "biglambda", "logl")
PARTITION_SIZE_CAP = 64
_IDEAL_CACHE_MAX_BOUND = 200_000


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
    exact: bool = True  # False when the ramified product model was used

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


def local_lambda(params: LocalParameters, k: int) -> complex:
    """Complete homogeneous symmetric polynomial h_k of the parameters."""
    if k < 0:
        raise UsageError("k must be nonnegative")
    if k == 0:
        return 1 + 0j
    return complex(hom_sym_values(params.alphas, k)[k])


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
    s_lam(alpha) * conj(s_lam(beta)), the product model.  _LocalEngine
    applies the gl1_exact model itself.
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


def _schur_values(params: LocalParameters, k: int, max_parts: int):
    """s_lam(alphas) for lam in partitions_of(k, max_parts), in that order.

    Each side of a pair coefficient depends on one member only, so the
    values over every partition of k into at most degree parts are kept on
    the parameters, which Representation.local_at caches per prime: every
    pair sharing the member reuses them.  A smaller max_parts (a partner of
    lower degree) selects the partitions with at most max_parts parts,
    which partitions_of lists in the same relative order.  One entry per k,
    and partitions_of rejects k > PARTITION_SIZE_CAP before anything is kept.
    """
    degree = len(params.alphas)
    values = params.kernels.get(k)
    if values is None:
        partitions = partitions_of(k, degree)
        h = hom_sym_values(params.alphas, k)
        values = params.kernels[k] = tuple(schur_from_h(h, lam) for lam in partitions)
    if max_parts == degree:
        return values
    return [v for lam, v in zip(partitions_of(k, degree), values) if len(lam) <= max_parts]


# Above the pair count of the 285-member stress family: a caller that builds
# a fresh table per ideal cycles through every pair, and a cache smaller than
# that cycle would miss on every lookup.
PRODUCT_CACHE_MAX = 65536
_product_primitive_cache: dict[tuple, chars.DirichletCharacter] = {}


def product_primitive_character(chi_a, chi_b):
    """Primitive character inducing chi_a * conj(chi_b).

    Cached by value, on the two canonical keys, so separately built copies
    of one character (such as contragredients) share an entry; the cache
    drops its oldest entry beyond PRODUCT_CACHE_MAX.
    """
    key = (chi_a.canonical_key(), chi_b.canonical_key())
    psi = _product_primitive_cache.get(key)
    if psi is None:
        if len(_product_primitive_cache) >= PRODUCT_CACHE_MAX:
            del _product_primitive_cache[next(iter(_product_primitive_cache))]
        psi = chars.primitive_part(chars.multiply(chi_a, chars.conjugate(chi_b)))
        _product_primitive_cache[key] = psi
    return psi


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
# local coefficient table for one member or pair


class _LocalEngine:
    """Per-(prime, exponent) coefficients for a member or a pair a x conj(b)."""

    def __init__(self, a: Representation, b: Representation | None, kind: str, model: str):
        if kind not in SERIES_KINDS:
            raise UsageError(f"unknown series kind {kind!r}")
        self.a, self.b, self.kind = a, b, kind
        self.model = model
        self.psi = None
        if model == "gl1_exact":
            if b is None:
                raise UsageError("gl1_exact applies to pairs of degree-1 members")
            if not (_has_character(a) and _has_character(b)):
                raise UsageError("gl1_exact requires two degree-1 members with character data")
            self.psi = product_primitive_character(a.character, b.character)
        elif model != "product":
            raise UsageError(f"unknown ramified model {model!r}")
        self._cache: dict[tuple[tuple[int, int], int], complex] = {}

    @property
    def exact(self) -> bool:
        if self.psi is not None:
            return True
        reps = [self.a] if self.b is None else [self.a, self.b]
        # the product model is exact whenever no ramified prime can occur
        return all(r.conductor.is_unit for r in reps)

    def at(self, ideal: IdealIndex) -> complex:
        """Value at an ideal: the product of the local values over its factors.

        biglambda and logl vanish off prime powers.
        """
        if self.kind in ("biglambda", "logl") and len(ideal.factors) != 1:
            return 0j
        acc = 1 + 0j
        for pid, e in ideal.factors:
            acc *= self.value(self.a.field, pid, e)
            if acc == 0:
                return 0j
        return acc

    def value(self, field, pid, e: int) -> complex:
        key = (pid, e)
        if key not in self._cache:
            self._cache[key] = self._compute(field, pid, e)
        return self._cache[key]

    def _compute(self, field, pid, e: int) -> complex:
        if e == 0:
            return 1 + 0j
        kind = self.kind
        if self.psi is not None:
            p = pid[0]
            v = self.psi.value(p)
            if kind == "lambda":
                return v**e
            if kind == "mu":
                return -v if e == 1 else 0j
            if kind == "biglambda":
                return v**e * math.log(p)
            return v**e / e  # logl
        prime = prime_ideal(field, pid)
        pa = self.a.local_at(prime)
        if self.b is None:
            if kind == "lambda":
                return local_lambda(pa, e)
            if kind == "mu":
                c = poly_from_roots(pa.alphas)
                return complex(c[e]) if e < len(c) else 0j
            ps = power_sum(pa.alphas, e)
            if kind == "biglambda":
                return ps * math.log(prime.norm)
            return ps / e
        pb = self.b.local_at(prime)
        if kind == "lambda":
            return rankin_selberg_local(pa, pb, e)
        if kind == "mu":
            prod_poly = np.ones(1, dtype=np.complex128)
            for x in pa.alphas:
                for y in pb.alphas:
                    prod_poly = np.convolve(prod_poly, [1.0, -x * np.conj(y)])
            return complex(prod_poly[e]) if e < len(prod_poly) else 0j
        ps = power_sum(pa.alphas, e) * np.conj(power_sum(pb.alphas, e))
        if kind == "biglambda":
            return complex(ps * math.log(prime.norm))
        return complex(ps / e)


class _PrimePowerArrays:
    """Local values of a fixed list of engines of one kind, one array per prime power.

    Each array is filled once from the engines' _compute.  The values at an
    ideal are the product of its factors' arrays, taken with the explicit
    real/imaginary formula of Python's complex product (numpy's complex
    multiply can differ from it in the last bit), so every entry equals
    _LocalEngine.at bit for bit: biglambda and logl vanish off prime powers,
    and zeros come out as 0j.  The last ideal's values are kept, so that
    reading them entry by entry costs one product.
    """

    def __init__(self, engines: list[_LocalEngine], field, kind: str):
        self.engines = engines
        self.field = field
        self.kind = kind
        self._local: dict[tuple[tuple[int, int], int], np.ndarray] = {}
        self._last: tuple[IdealIndex, np.ndarray] | None = None

    def local(self, pid, e: int) -> np.ndarray:
        arr = self._local.get((pid, e))
        if arr is None:
            arr = np.array(
                [eng._compute(self.field, pid, e) for eng in self.engines], dtype=np.complex128
            )
            self._local[(pid, e)] = arr
        return arr

    def at(self, ideal: IdealIndex) -> np.ndarray:
        if self._last is not None and self._last[0] == ideal:
            return self._last[1]
        size = len(self.engines)
        out = np.zeros(size, dtype=np.complex128)
        if self.kind not in ("biglambda", "logl") or len(ideal.factors) == 1:
            re, im = np.ones(size), np.zeros(size)
            for pid, e in ideal.factors:
                loc = self.local(pid, e)
                re, im = re * loc.real - im * loc.imag, re * loc.imag + im * loc.real
            out.real, out.imag = re, im
            out[out == 0] = 0
        out.flags.writeable = False  # kept for the next call, so shared
        self._last = (ideal, out)
        return out

    def rows(self, ideals) -> np.ndarray:
        """The (engines, ideals) array whose column j is at(ideals[j])."""
        out = np.empty((len(self.engines), len(ideals)), dtype=np.complex128)
        for j, ideal in enumerate(ideals):
            out[:, j] = self.at(ideal)
        return out


def family_arrays(
    family: Family, kind: str, pi0: Representation | None, model: str
) -> tuple[_PrimePowerArrays, _PrimePowerArrays | None]:
    """A family's coefficients of one kind, one entry per member.

    pi0 = None: each member's own series (product model), and no diagonal.
    pi0 given: each member against pi0 itself, that is paired with
    contragredient(pi0), under pair_model(member, pi0, model); the second
    array holds the one diagonal lambda_{pi0 x dual pi0}.
    """
    field = family.field
    if pi0 is None:
        own = [_LocalEngine(m, None, kind, "product") for m in family.members]
        return _PrimePowerArrays(own, field, kind), None
    dual = contragredient(pi0)
    column = [_LocalEngine(m, dual, kind, pair_model(m, pi0, model)) for m in family.members]
    diagonal = _LocalEngine(pi0, pi0, "lambda", pair_model(pi0, pi0, model))
    return _PrimePowerArrays(column, field, kind), _PrimePowerArrays([diagonal], field, "lambda")


def expand_global(
    a: Representation,
    b: Representation | None,
    bound: int,
    kind: str,
    ramified_model: str = "product",
) -> CoefficientSeries:
    """Assemble global coefficients up to the norm bound.

    With b given, the series belongs to the pairing of a against the
    contragredient of b; pass b = contragredient(pi0) for a pairing with
    pi0 itself.  lambda and mu are multiplicative over coprime ideals;
    biglambda and logl are supported on prime powers only and the returned
    series stores just that support.
    """
    field = a.field
    if b is not None and b.field != field:
        raise UsageError("pair expansion requires a common field")
    engine = _LocalEngine(a, b, kind, ramified_model)
    values: dict[IdealIndex, complex] = {}
    if kind in ("biglambda", "logl"):
        for pid, pn in prime_ideals_up_to(field, bound):
            norm_pow = pn
            e = 1
            while norm_pow <= bound:
                ideal = IdealIndex(field, ((pid, e),), norm_pow)
                val = engine.value(field, pid, e)
                if val != 0:
                    values[ideal] = val
                norm_pow *= pn
                e += 1
    else:
        for ideal in ideal_list(field, bound):
            val = engine.at(ideal)
            if val != 0 or ideal.is_unit:
                values[ideal] = val
    return CoefficientSeries(field, kind, bound, values, exact=engine.exact)


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
        exact=a.exact and b.exact,
    )


def unit_indicator_series(field: NumberFieldSpec, bound: int) -> CoefficientSeries:
    return CoefficientSeries(field, "unit", bound, {unit_ideal(field): 1 + 0j})


def mertens_sum(rep: Representation, x: int) -> float:
    """sum over N(n) <= x of lambda_{pi x dual(pi)}(n) / N(n).

    Diagonal coefficients are nonnegative reals; the gl1_exact model is
    used automatically for character members, where it is exact.
    """
    if x < 3:
        raise UsageError("mertens_sum requires x >= 3")
    series = expand_global(rep, rep, x, "lambda", pair_model(rep, rep, "gl1_exact"))
    acc = KahanAccumulator()
    for ideal, val in series.items_sorted():
        acc.add(val / ideal.norm)
    total = acc.value()
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise UsageError(f"diagonal coefficient sum is not real: {total}")
    return float(total.real)


def selftest() -> list[tuple[str, bool, str]]:
    from .localdata import synthetic_family, trivial_representation

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
    lam = expand_global(triv, None, 200, "lambda")
    mu = expand_global(triv, None, 200, "mu")
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
