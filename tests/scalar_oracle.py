"""The scalar rules, kept in the tests as the oracle for
`_PrimePowerArrays.rows`: a Python complex product of one column's local
values over the ideal's factors, with no table and no padding.  A column is
a plain `Column` record (a, b, kind, model), which `columns` reads off a
table's members and index pairs.  A product
column's local value is computed on its own, one prime power at a time,
from the members' parameters (`product_local`): lambda by the Cauchy
identity (Macdonald, Symmetric Functions and Hall Polynomials, I.4), the sum
over partitions lam of s_lam(alpha) * conj(s_lam(beta)) with Schur values
from the Jacobi-Trudi determinant in the complete homogeneous h_k, and mu
from the pair polynomial prod (1 - alpha_i conj(beta_j) x) built by
np.convolve, one factor at a time.  A gl1_exact column's local values come
from the product character itself, built by `multiply` and `primitive_part`
and evaluated prime by prime.

`own_local` keeps the rule a member's own series had before it became the
member's pair with the trivial member: h_e, (-1)^e e_e or the power sum of
the member's parameters alone.

`member_rng`, `grc_tuple` and `synthetic_alphas` keep the synthetic members'
rule as numpy's Generator draws it, one generator per (member, prime): the
oracle for `pcg64.stream_doubles` and the families built on it.
`weight_battery` keeps the covers weight battery's rule as numpy's
Generator draws it, the oracle for `covers.weight_battery`, and
`ziggurat_walk` walks numpy's ziggurat one raw word at a time to count the
draws each of its paths returns.

`gram_constant` keeps the large-sieve constant's full-matrix rule: the
whole |S| x N row matrix at one N, its weighted columns and one Gram, the
oracle for `sieve.bound_table`'s chunked Gram.

`KahanAccumulator` keeps the compensated summation the series pipelines
used before `coeffs.fsum_complex`: the oracle's own accumulator for the
Selberg pair loop, and the old aggregation that the sifted sums are
compared with.

`gl1_complex_rows` keeps the complex table of a gl1_exact table, one
complex value per prime power and column, that its codes into one value
array replaced: the oracle for the stored rows, signed zeros included.

`walk_ideals` keeps the recursive enumeration of ideals that
`ideals.IdealTable` replaced: one IdealIndex per factorization over the
norm-sorted prime list, then a sort by (norm, factors); `divides` and
`min_prime_norm` read one ideal's factorization, the oracles of the
table's divisibility and smallest-prime-norm masks.  `table_of` selects
given IdealIndex objects from an IdealTable, so that `rows` can read
them."""

import math
from typing import NamedTuple

import numpy as np

from lfunclab.characters import PrimeAngles, conjugate, multiply, primitive_part
from lfunclab.coeffs import _gl1_local, _times_log, family_arrays, ideal_list, partitions_of, power_sum
from lfunclab.idealtable import IdealTable
from lfunclab.ideals import IdealIndex, prime_ideal, prime_ideals_up_to, prime_norm
from lfunclab.ziggurat import _FI, _INV_R, _KI, _R, _WI


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


def walk_ideals(field, bound: int) -> list:
    """All ideals of norm <= bound, sorted by (norm, factors), from the
    recursive walk over the norm-sorted prime ideals."""
    prime_list = prime_ideals_up_to(field, bound)
    out = []

    def extend(start: int, norm: int, factors: tuple):
        out.append(IdealIndex(field, tuple(sorted(factors)), norm))
        for i in range(start, len(prime_list)):
            pid, pn = prime_list[i]
            if norm * pn > bound:
                # prime_list is norm-sorted: no later prime fits either
                break
            acc_norm, e = norm, 0
            while acc_norm * pn <= bound:
                acc_norm *= pn
                e += 1
                extend(i + 1, acc_norm, factors + ((pid, e),))

    extend(0, 1, ())
    out.sort(key=IdealIndex.sort_key)
    return out


def table_of(field, ideals):
    """The entries of the IdealTable up to the largest norm at the given
    ideals, in the given order."""
    table = IdealTable(field, max((ideal.norm for ideal in ideals), default=1))
    position = {ideal: at for at, ideal in enumerate(table.ideals())}
    return table[np.array([position[ideal] for ideal in ideals], dtype=np.intp)]


def divides(d, n) -> bool:
    en = dict(n.factors)
    return all(en.get(pid, 0) >= e for pid, e in d.factors)


def min_prime_norm(a) -> int | None:
    """Smallest prime-ideal norm dividing a, or None for the unit ideal."""
    norms = [prime_norm(a.field, pid) for pid, _ in a.factors]
    return min(norms) if norms else None


class Column(NamedTuple):
    """One pair series: member a against the dual of member b, of one kind
    under one ramified model."""

    a: object
    b: object
    kind: str
    model: str


def columns(arrays) -> list[Column]:
    """The columns of a _PrimePowerArrays table, from its members, its (2,
    columns) index pairs, its kind and its model."""
    members = arrays.members
    return [Column(members[i], members[j], arrays.kind, arrays.model) for i, j in arrays.sides.T.tolist()]


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


def schur_from_h(h: np.ndarray, lam: tuple[int, ...]) -> complex:
    """Jacobi-Trudi: s_lam = det[ h_{lam_i - i + j} ]; finite at repeated
    parameters, where the quotient of alternants fails."""
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


def cauchy_local(pa, pb, k: int) -> complex:
    """The x^k coefficient of prod (1 - alpha_i conj(beta_j) x)^{-1} by the
    Cauchy identity: the sum over partitions lam of k with at most
    min(n, n') parts of s_lam(alpha) * conj(s_lam(beta))."""
    if k == 0:
        return 1 + 0j
    ha, hb = hom_sym_values(pa.alphas, k), hom_sym_values(pb.alphas, k)
    acc = 0j
    for lam in partitions_of(k, min(len(pa.alphas), len(pb.alphas))):
        acc += schur_from_h(ha, lam) * np.conj(schur_from_h(hb, lam))
    return complex(acc)


# Product-model lambda and mu rows against this oracle, relative to
# max(1, |oracle|): the library sums Newton's recurrence, the oracle the
# Cauchy identity or the np.convolve polynomial, so they agree to rounding.
PRODUCT_TOL = 1e-11


def assert_rows_match(got, want, cols) -> None:
    """Each column's row of got against want: bit for bit, except product-model
    lambda and mu rows, which agree within PRODUCT_TOL."""
    for row, expected, col in zip(got, want, cols):
        label = (col.a.label, col.b.label, col.kind)
        if col.model == "product" and col.kind in ("lambda", "mu"):
            assert deviation(row, expected) <= PRODUCT_TOL, label
        else:
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64)), label


def deviation(got, want) -> float:
    """The largest |got - want| / max(1, |want|) over the entries."""
    got, want = np.asarray(got), np.asarray(want)
    if not want.size:
        return 0.0
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


def convolve_mu(pa, pb, k: int) -> complex:
    """The x^k coefficient of prod (1 - alpha_i conj(beta_j) x), one
    np.convolve per factor."""
    poly = np.ones(1, dtype=np.complex128)
    for x in pa.alphas:
        for y in pb.alphas:
            poly = np.convolve(poly, [1.0, -x * np.conj(y)])
    return complex(poly[k]) if k < len(poly) else 0j


def local_lambda(params, k: int) -> complex:
    """Complete homogeneous symmetric polynomial h_k of the parameters."""
    if k == 0:
        return 1 + 0j
    return complex(hom_sym_values(params.alphas, k)[k])


def own_local(member, kind: str, pid, e: int) -> complex:
    """The member's own value at p^e: h_e, (-1)^e e_e or the power sum (times
    log Np for biglambda, over e for logl), in Python's complex arithmetic."""
    if e == 0:
        return 1 + 0j
    prime = prime_ideal(member.field, pid)
    pa = member.local_at(prime)
    if kind == "lambda":
        return local_lambda(pa, e)
    if kind == "mu":
        c = poly_from_roots(pa.alphas)
        return complex(c[e]) if e < len(c) else 0j
    ps = power_sum(pa.alphas, e)
    if kind == "biglambda":
        return ps * math.log(prime.norm)
    return ps / e


def own_row(member, kind: str, ideals) -> list[complex]:
    """The member's own coefficients at the ideals, by own_local."""
    local = lambda pid, e: own_local(member, kind, pid, e)
    return [product_over_factors(local, kind, ideal) for ideal in ideals]


def product_local(col, pid, e: int) -> complex:
    """The product model's value at p^e for one column: the pair's Cauchy sum,
    np.convolve product polynomial or product of power sums."""
    if e == 0:
        return 1 + 0j
    kind = col.kind
    prime = prime_ideal(col.a.field, pid)
    pa = col.a.local_at(prime)
    pb = col.b.local_at(prime)
    if kind == "lambda":
        return cauchy_local(pa, pb, e)
    if kind == "mu":
        return convolve_mu(pa, pb, e)
    ps = power_sum(pa.alphas, e) * np.conj(power_sum(pb.alphas, e))
    if kind == "biglambda":
        return complex(ps * math.log(prime.norm))
    return complex(ps / e)


def product_character(col):
    """The primitive character inducing chi_a * conj(chi_b) of a gl1_exact column."""
    return primitive_part(multiply(col.a.character, conjugate(col.b.character)))


def gl1_local(psi, kind: str, pid, e: int) -> complex:
    """psi(p)^e times the kind's factor: the GL1 model's local value at p^e."""
    p = pid[0]
    v = psi.value(p)
    if kind == "lambda":
        return v**e
    if kind == "mu":
        return -v if e == 1 else 0j
    if kind == "biglambda":
        return v**e * math.log(p)
    return v**e / e  # logl


def gl1_complex_rows(arrays, powers) -> np.ndarray:
    """The complex table that a gl1_exact table's codes replace: row 0 is 0j,
    row 1 is 1+0j and row 2 + k holds the values over the table's columns at
    the k-th of the prime powers, by the angle rule with one _gl1_local call
    per distinct (angle, M, exponent), biglambda's times log p by _times_log,
    and 0j where the p-parts of the pair differ."""
    a, b = arrays.sides
    denoms = np.array([m.character.order_denom for m in arrays.members], dtype=np.int64)
    order = np.lcm(denoms[a], denoms[b])
    angles, parts = PrimeAngles([m.character for m in arrays.members]).at(powers.prime)
    psi = (angles[:, a] * (order // denoms[a]) - angles[:, b] * (order // denoms[b])) % order
    out = np.zeros((2 + len(powers.prime), a.size), dtype=np.complex128)
    out[1] = 1
    memo = {}
    for k, c in zip(*np.nonzero(parts[:, a] == parts[:, b])):
        key = (int(psi[k, c]), int(order[c]), int(powers.exponent[k]))
        if key not in memo:
            memo[key] = _gl1_local(*key, arrays.kind)
        out[2 + k, c] = memo[key]
    if arrays.kind == "biglambda":
        out[2:] = _times_log(out[2:], np.array([math.log(p) for p in powers.prime.tolist()])[:, None])
    return out


def scalar_coefficient(col, ideal) -> complex:
    """The column's coefficient at the ideal."""
    return scalar_row(col, [ideal])[0]


def scalar_row(col, ideals) -> list[complex]:
    """The column's coefficients at the ideals, a gl1_exact column's product
    character built once.

    biglambda and logl vanish off prime powers (the unit ideal included);
    a product that reaches zero stays 0j.
    """
    if col.model == "gl1_exact":
        psi = product_character(col)
        local = lambda pid, e: gl1_local(psi, col.kind, pid, e)
    else:
        local = lambda pid, e: product_local(col, pid, e)
    return [product_over_factors(local, col.kind, ideal) for ideal in ideals]


def product_over_factors(local, kind: str, ideal) -> complex:
    if kind in ("biglambda", "logl") and len(ideal.factors) != 1:
        return 0j
    acc = 1 + 0j
    for pid, e in ideal.factors:
        acc *= local(pid, e)
        if acc == 0:
            return 0j
    return acc


def member_rng(seed: int, member: int, pid) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(member, pid[0], pid[1]))
    return np.random.Generator(np.random.PCG64(ss))


def grc_tuple(rng: np.random.Generator, n: int) -> list[complex]:
    """Conjugate-stable n-tuple on the unit circle."""
    out: list[complex] = []
    for _ in range(n // 2):
        phi = rng.uniform(0.0, np.pi)
        out.extend([complex(np.cos(phi), np.sin(phi)), complex(np.cos(phi), -np.sin(phi))])
    if n % 2:
        out.append(complex(1.0 if rng.random() < 0.5 else -1.0, 0.0))
    return out


def synthetic_alphas(n: int, seed: int, model, member: int, prime) -> tuple[complex, ...]:
    """Member `member`'s parameters at the prime ideal in
    synthetic_family(n, count, seed, model, field)."""
    pid = prime.factors[0][0]
    rng = member_rng(seed, member, pid)
    if model != "grc" and member == 0 and pid == (int(model[1]), 0):
        r = float(prime.norm) ** model[2]
        return (complex(r, 0.0), complex(1.0 / r, 0.0), *grc_tuple(rng, n - 2))
    return tuple(grc_tuple(rng, n))


def gram_constant(family, n_bound: int, pi0, kind: str) -> float:
    """Largest eigenvalue of A A^H, A the family's rows at the ideals of norm
    <= n_bound with each column scaled by its pi0 weight^(-1/2), the columns
    of weight <= 1e-14 dropped: one matrix and one Gram at this N."""
    ideals = ideal_list(family.field, n_bound)
    column, diagonal = family_arrays(family, kind, pi0)
    a, weights = column.rows(ideals), diagonal.rows(ideals)[0].real
    keep = weights > 1e-14
    a = a[:, keep] / np.sqrt(weights[keep])[None, :]
    if not a.size or not np.abs(a).max():
        return 0.0
    gram = a @ a.conj().T
    return float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[-1])


def weight_battery(size: int, trials: int, seed: int) -> np.ndarray:
    """covers.weight_battery as numpy.random draws it."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = [np.ones(size, dtype=np.complex128)]
    rows.extend(np.eye(size, dtype=np.complex128))
    gauss = rng.standard_normal((trials, size)) + 1j * rng.standard_normal((trials, size))
    return np.vstack([np.array(rows), gauss])


def ziggurat_walk(seed: int, count: int) -> tuple[list[float], dict[str, int]]:
    """The first `count` standard normals of numpy's
    Generator(PCG64(SeedSequence(seed))), one word of its random_raw()
    stream at a time, as random_standard_normal walks them; and how many
    each path returned ("fast", "wedge", "tail") or rejected ("rejected")."""
    bitgen = np.random.PCG64(np.random.SeedSequence(seed))

    def raw():
        while True:
            yield from bitgen.random_raw(4096).tolist()

    words = raw()
    unit = lambda: (next(words) >> 11) * (1.0 / 9007199254740992.0)
    values, paths = [], dict.fromkeys(("fast", "wedge", "tail", "rejected"), 0)
    while len(values) < count:
        r = next(words)
        idx, rabs = r & 0xFF, r >> 9 & 0x000FFFFFFFFFFFFF
        x = -(rabs * _WI[idx]) if r >> 8 & 1 else rabs * _WI[idx]
        if rabs < _KI[idx]:
            path = "fast"
        elif idx == 0:
            while True:
                xx = -_INV_R * math.log1p(-unit())
                yy = -math.log1p(-unit())
                if yy + yy > xx * xx:
                    break
            x, path = (-(_R + xx) if rabs >> 8 & 1 else _R + xx), "tail"
        elif (_FI[idx - 1] - _FI[idx]) * unit() + _FI[idx] < math.exp(-0.5 * x * x):
            path = "wedge"
        else:
            paths["rejected"] += 1
            continue
        values.append(x)
        paths[path] += 1
    return values, paths
