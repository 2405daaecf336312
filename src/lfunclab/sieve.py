"""Large sieve constants, bound comparisons, and Selberg sieve machinery.

The sieve constant of a family is the operator norm squared of its
coefficient matrix B: rows indexed by members, columns by ideals of norm up
to N.  By duality it is the largest eigenvalue of the |S| x |S| Gram
B B^H, which over the first N columns is a sum of chunk Grams; bound_table
walks the ideals once in norm order, adds each chunk's Gram and solves at
every N, so no |S| x N matrix is held.  The Gram and the values the walk
computes are checked against the table ceiling before they exist.  Asymptotic
bound shapes are reported with their unspecified constants omitted and a
shape_only flag set; only the classical GL1 bound N + Q^2 - 1 is an
effective inequality that gets asserted.

Sifting densities g(p) come from local diagonal L-values at s = 1,
computed from the parameter product formula; the Selberg weights are the
classical optimizers of the diagonal quadratic form for that density,
with the closed-form minimum value checked against brute force.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .coeffs import (
    check_table_bytes,
    diagonal_sum,
    expand_global,
    family_arrays,
    fsum_complex,
    ideal_list,
)
from .errors import ResourceLimitError, UsageError
from .ideals import (
    IdealIndex,
    ideal_mul,
    is_squarefree_ideal,
    prime_ideal,
    prime_ideals_up_to,
    unit_ideal,
)
from .localdata import (
    Family,
    Representation,
    analytic_conductor,
    theta_bound,
    trivial_representation,
)


# ---------------------------------------------------------------------------
# test function and its Laplace transform

BUMP_SCALE = math.exp(1.0 / 3.0)  # makes phi >= 1 on [0, 1]
PHI_HAT_TARGET = 1e-12  # relative error estimate at which phi_hat stops doubling
PHI_HAT_MAX_PANELS = 1 << 16
# exp(s y) overflows near |y| = 2 once 2 |Re s| passes log(max float) = 709.78
PHI_HAT_SHIFT_FROM = 700.0
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def bump_phi(y):
    """Smooth majorant of the indicator of [0, 1], supported in (-2, 2).

    exp(4/3 - 1/(1 - (y/2)^2)) inside (-2, 2); the e^(1/3) rescale lifts
    the minimum over [0, 1] (attained at y = 1) to exactly 1.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    inside = np.abs(y) < 2.0
    t = y[inside] / 2.0
    out[inside] = np.exp(4.0 / 3.0 - 1.0 / (1.0 - t * t))
    return out if out.ndim else float(out)


def phi_hat(s: complex) -> complex:
    """Laplace-type transform of the bump: integral of phi(y) e^{s y} dy.

    Trapezoid rule on [-2, 2]: phi is C^infinity with every derivative
    zero at +-2, so the rule converges faster than any power of the step
    (Trefethen and Weideman, SIAM Review 56 (2014)).  The even nodes form
    the rule at half the panels, whose difference from the full rule
    bounds the error; the panel count doubles from 1024 until that
    estimate is at most PHI_HAT_TARGET * max(1, |result|).

    Beyond 2 |Re s| = PHI_HAT_SHIFT_FROM the rule sums e^(s y - shift)
    with shift = 2 |Re s|, which stays finite, and multiplies e^shift back
    in two halves; a transform beyond the float range raises UsageError.
    """
    s = complex(s)
    shift = 2.0 * abs(s.real) if 2.0 * abs(s.real) > PHI_HAT_SHIFT_FROM else 0.0
    panels = 1024
    while panels <= PHI_HAT_MAX_PANELS:
        y = np.linspace(-2.0, 2.0, panels + 1)[1:-1]  # phi vanishes at the endpoints
        f = bump_phi(y) * np.exp(s * y - shift)
        h = 4.0 / panels
        fine = complex(math.fsum(f.real), math.fsum(f.imag)) * h
        coarse = complex(math.fsum(f.real[1::2]), math.fsum(f.imag[1::2])) * (2.0 * h)
        if shift and (not fine or math.log(abs(fine)) + shift > LOG_FLOAT_MAX):
            raise UsageError(f"phi_hat({s}) exceeds the float range")
        if abs(fine - coarse) <= PHI_HAT_TARGET * max(math.exp(-shift), abs(fine)):
            half = math.exp(shift / 2.0)
            return fine * half * half
        panels *= 2
    raise ResourceLimitError(
        f"phi_hat({s}) needs more than {PHI_HAT_MAX_PANELS} trapezoid panels "
        f"for target {PHI_HAT_TARGET:g}"
    )


# ---------------------------------------------------------------------------
# weight vectors and the sieve constant

GRC_PROBE_NORM = 100  # family_grc_exponent scans the primes up to this norm
GRAM_CHUNK = 1024  # ideals per step of bound_table's Gram accumulation


@dataclass
class WeightVector:
    """Complex weights on ideals."""

    values: dict[IdealIndex, complex]


def family_grc_exponent(family: Family) -> float:
    """Best observed exponent toward |alpha| = 1 over the primes of norm <= GRC_PROBE_NORM."""
    theta = max(m.theta_hint for m in family.members)
    for pid, pn in prime_ideals_up_to(family.field, GRC_PROBE_NORM):
        prime = prime_ideal(family.field, pid)
        for m in family.members:
            top = m.local_at(prime).max_abs()
            if top > 1.0:
                theta = max(theta, math.log(top) / math.log(pn))
    return min(theta, theta_bound(max(m.degree for m in family.members)))


def bound_table(
    family: Family,
    n_list,
    pi0: Representation | None = None,
    kind: str = "lambda",
) -> list[dict]:
    """Measured sieve constant at each N of n_list against the published bound shapes.

    The constant at N is the largest eigenvalue of B B^H, B the members'
    coefficients against pi0 at the ideals of norm <= N, each column scaled
    by lambda_{pi0 x dual pi0}(n)^(-1/2) (1 for the default trivial pi0) and
    dropped where that weight is at most 1e-14.  B B^H over the first
    columns is a sum of chunk Grams, so one walk over the ideals in norm
    order adds B_c B_c^H, GRAM_CHUNK columns at a time, to one |S| x |S|
    Gram and solves it at each distinct N of the sorted list; the rows keep
    n_list's order.  The Gram is checked against the table ceiling before
    anything else, and the |S| x (ideals up to max N) values the pass
    computes before the first chunk.

    All shapes except the trivial count drop o(1) factors and implied
    constants, and are marked shape_only in the output.
    """
    s = len(family.members)
    if not s:
        raise UsageError("bound_table needs a nonempty family")
    check_table_bytes(s, s, "the Gram matrix")
    n_deg = max(m.degree for m in family.members)
    q = family.max_conductor
    th = family_grc_exponent(family)
    if not n_list:
        return []
    ideals = ideal_list(family.field, max(n_list))
    column, diagonal = family_arrays(family, kind, pi0)
    check_table_bytes(s, len(ideals), "coefficient rows")
    gram = np.zeros((s, s), dtype=np.complex128)
    measured = {}
    done = 0
    for n_bound in sorted(set(n_list)):
        cols = bisect.bisect_right(ideals.norm, n_bound)
        for start in range(done, cols, GRAM_CHUNK):
            chunk = ideals[start : min(start + GRAM_CHUNK, cols)]
            weights = diagonal.rows(chunk)[0].real
            keep = weights > 1e-14
            b = column.rows(chunk)[:, keep] / np.sqrt(weights[keep])[None, :]
            gram += b @ b.conj().T
        done = cols
        top = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[-1] if gram.any() else 0.0
        measured[n_bound] = float(top)
    rows = []
    for n_bound in n_list:
        rows.append(
            {
                "N": n_bound,
                "measured_C": measured[n_bound],
                "trivial_NS": float(n_bound * s),
                "dual_shape": n_bound + q**n_deg * s,
                "grc_shape": n_bound + math.sqrt(n_bound) * q ** (n_deg / 2) * s,
                "ram_shape": n_bound + q ** (4 * th * n_deg**2 + n_deg) * s,
                "hybrid_shape": n_bound
                + n_bound ** (0.5 + th) * q ** (n_deg * (0.5 - th)) * s,
                "theta": th,
                "shape_only": True,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# sifting density and Selberg weights


def local_diagonal_l1(rep: Representation, prime: IdealIndex) -> float:
    """L(1) of the local diagonal pair factor, from the parameter products."""
    params = rep.local_at(prime).alphas
    npr = prime.norm
    acc = 1.0 + 0.0j
    for x in params:
        for y in params:
            acc *= 1.0 - x * np.conj(y) / npr
    if acc == 0:
        return 0.0
    return float((1.0 / acc).real)


def g_factor(rep: Representation, d: IdealIndex) -> tuple[float, list[str]]:
    """Sifting density g(d) = prod over p | d of (1 - 1/L(1, local diagonal))."""
    if not is_squarefree_ideal(d):
        raise UsageError("g_factor is defined on squarefree ideals")
    flags: list[str] = []
    val = 1.0
    for pid, _ in d.factors:
        prime = prime_ideal(rep.field, pid)
        l1 = local_diagonal_l1(rep, prime)
        if l1 == 0.0:
            flags.append(f"local L(1) vanished at {prime}; factor forced to 1")
            continue
        val *= 1.0 - 1.0 / l1
    return val, flags


_BRUTE_FORCE_BLOCK = 256  # support rows per block of the brute-force diagonal
# over Q the support has at most z ideals; the brute-force diagonal costs |support|^2
SELBERG_MAX_Z = 100_000
DIAGONAL_TOL = 1e-10  # relative: the closed-form diagonal against its brute-force pair sum


@dataclass
class SieveWeights:
    rep: Representation
    z: float
    rho: dict[IdealIndex, float]
    support: list[IdealIndex]
    diagonal_value: float
    g: dict[IdealIndex, float] = field(default_factory=dict)
    prime_product: list[IdealIndex] = field(default_factory=list)

    def rho_value(self, d: IdealIndex) -> float:
        return self.rho.get(d, 0.0)

    def brute_force_diagonal(self) -> float:
        """sum over all pairs a, b of the support of rho(a) rho(b) g(lcm(a, b)).

        Independent of the closed form 1/G.  The support is squarefree, so
        with l = log g(p) and B the 0/1 support-by-prime matrix,
        g(lcm(a, b)) = exp(l_a + l_b - (B diag(l) B^T)_ab).  Rows go in
        fixed blocks, each multiplied only against the prime columns its
        rows touch, so memory stays O(block * |support|).
        """
        col = {p.factors[0][0]: j for j, p in enumerate(self.prime_product)}
        ell = np.log([self.g[p] for p in self.prime_product])
        n = len(self.support)
        pairs = [(i, col[pid]) for i, d in enumerate(self.support) for pid, _ in d.factors]
        row_idx, col_idx = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        log_g = np.bincount(row_idx, weights=ell[col_idx], minlength=n)
        rho = np.array([self.rho[d] for d in self.support])
        parts = []
        for start in range(0, n, _BRUTE_FORCE_BLOCK):
            stop = min(start + _BRUTE_FORCE_BLOCK, n)
            # with return_inverse, as a plain np.unique imports numpy.ma
            cols = np.unique(col_idx[(row_idx >= start) & (row_idx < stop)], return_inverse=True)[0]
            local = np.full(len(ell), -1)
            local[cols] = np.arange(len(cols))
            hit = local[col_idx] >= 0
            b = np.zeros((n, len(cols)))  # B on the block's columns, every row
            b[row_idx[hit], local[col_idx[hit]]] = 1.0
            shared = (b[start:stop] * ell[cols]) @ b.T
            g_lcm = np.exp(log_g[start:stop, None] + log_g[None, :] - shared)
            parts.append(float(rho[start:stop] @ (g_lcm @ rho)))
        return math.fsum(parts)

    def verify(self) -> dict:
        unit = unit_ideal(self.rep.field)
        checks = {
            "rho_unit_is_one": abs(self.rho_value(unit) - 1.0) < 1e-14,
            "rho_bounded_by_one": all(abs(r) <= 1 + 1e-12 for r in self.rho.values()),
            "support_in_range": all(
                d.norm <= self.z and is_squarefree_ideal(d) for d in self.support
            ),
        }
        brute = self.brute_force_diagonal()
        allowed = DIAGONAL_TOL * max(1.0, abs(self.diagonal_value))
        checks["diagonal_matches_brute_force"] = abs(brute - self.diagonal_value) <= allowed
        checks["brute_force_value"] = brute
        return checks


def selberg_weights(rep: Representation, z: float) -> SieveWeights:
    """Optimal Selberg weights for the sifting density g of the member.

    Support: squarefree d | P(z) with N(d) <= z, P(z) the product of
    primes of norm <= z with g(p) != 0.  rho(1) = 1, |rho| <= 1, and the
    diagonal quadratic form attains
    (sum over supported d of prod_{p | d} g(p)/(1 - g(p)))^(-1).
    """
    if z < 1:
        raise UsageError("selberg_weights needs z >= 1")
    if z > SELBERG_MAX_Z:
        raise ResourceLimitError(f"Selberg support z = {z:g} exceeds the ceiling {SELBERG_MAX_Z}")
    fld = rep.field
    unit = unit_ideal(fld)
    primes = []
    gp: dict[IdealIndex, float] = {}
    for pid, pn in prime_ideals_up_to(fld, int(z)):
        prime = prime_ideal(fld, pid)
        val, _ = g_factor(rep, prime)
        if val != 0.0:
            if not 0.0 < val < 1.0:
                raise UsageError(
                    f"sifting density g({prime}) = {val} outside (0, 1); "
                    "Selberg optimization undefined"
                )
            primes.append(prime)
            gp[prime] = val

    # squarefree divisors of P(z) with norm <= z, with h(d) = prod g/(1-g)
    support: list[IdealIndex] = []
    hvals: dict[IdealIndex, float] = {}

    def extend(i: int, ideal: IdealIndex, h: float):
        support.append(ideal)
        hvals[ideal] = h
        for j in range(i, len(primes)):
            p = primes[j]
            if ideal.norm * p.norm > z:
                break  # primes is norm-sorted
            gv = gp[p]
            extend(j + 1, ideal_mul(ideal, p), h * gv / (1.0 - gv))

    extend(0, unit, 1.0)
    support.sort(key=IdealIndex.sort_key)
    big_g = math.fsum(hvals.values())

    rho: dict[IdealIndex, float] = {}
    for d in support:
        # G restricted to f coprime to d with N(d f) <= z
        rest = 0.0
        d_pids = {pid for pid, _ in d.factors}

        def extend_rest(i: int, norm: int, acc_h: float):
            nonlocal rest
            rest += acc_h
            for j in range(i, len(primes)):
                p = primes[j]
                if p.factors[0][0] in d_pids:
                    continue
                if norm * p.norm > z:
                    break
                gv = gp[p]
                extend_rest(j + 1, norm * p.norm, acc_h * gv / (1.0 - gv))

        extend_rest(0, d.norm, 1.0)
        mu = -1.0 if sum(e for _, e in d.factors) % 2 else 1.0
        inv = 1.0
        for pid, _ in d.factors:
            inv /= 1.0 - gp[prime_ideal(fld, pid)]
        rho[d] = mu * inv * rest / big_g

    weights = SieveWeights(
        rep=rep,
        z=float(z),
        rho=rho,
        support=support,
        diagonal_value=1.0 / big_g,
        g=dict(gp),
        prime_product=primes,
    )
    return weights


# ---------------------------------------------------------------------------
# smooth sums against the residue main term


@dataclass
class SmoothSumResult:
    lhs: float
    main: float | None
    diff: float | None
    residue: float | None
    shape_only: bool
    flags: list[str]


def rs_residue_gl1(a: Representation, b: Representation) -> float:
    """Residue at s = 1 of the product-model diagonal GL1 pair series.

    Equal characters: the series is zeta damped by the ramified Euler
    factors, residue prod_{p | q} (1 - 1/p).  Distinct members: 0.
    """
    if a.character is None or b.character is None:
        raise UsageError("exact residues are available for GL1 characters only")
    if a.character.canonical_key() != b.character.canonical_key():
        return 0.0
    res = 1.0
    seen = set()
    for (p, _), _e in a.conductor.factors:
        if p not in seen:
            seen.add(p)
            res *= 1.0 - 1.0 / p
    return res


def smooth_sum_residue(
    a: Representation,
    b: Representation,
    x: float,
    t_sharp: float,
    d: IdealIndex | None = None,
) -> SmoothSumResult:
    """Bump-weighted coefficient sum over multiples of d, minus its main term.

    lhs = sum over d | n of phi(T log(N(n)/x)) lambda_{a x dual b}(n),
    exactly rounded by fsum_complex, with d | n read off the exponents of
    the series' ideal table;
    main = g_a(d) x phihat(1/T) / T * residue.  The product model is used
    for the coefficients so the GL1 residue formula matches exactly.
    """
    if x < 1 or t_sharp < 1:
        raise UsageError("smooth_sum_residue needs x >= 1 and T >= 1")
    fld = a.field
    d = d or unit_ideal(fld)
    flags: list[str] = []
    hi = int(math.floor(x * math.exp(2.0 / t_sharp)))
    series = expand_global(a, b, hi, "lambda", "product")
    lo = x * math.exp(-2.0 / t_sharp)
    window = (series.norms > lo) & series.ideals.divisible_by(d)
    total = fsum_complex(
        val * bump_phi(t_sharp * math.log(norm / x))
        for norm, val in zip(series.norms[window].tolist(), series.values[window].tolist())
    )
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        flags.append("pair sum has a nontrivial imaginary part; reporting the real part")
    lhs = float(total.real)

    if a.degree != 1 or b.degree != 1 or a.character is None or b.character is None:
        flags.append("residue unknown for this pair; main term is shape only")
        return SmoothSumResult(lhs, None, None, None, True, flags)
    res = rs_residue_gl1(a, b)
    gval, gflags = g_factor(a, d)
    flags.extend(gflags)
    main = gval * x * phi_hat(complex(1.0 / t_sharp)).real / t_sharp * res
    return SmoothSumResult(lhs, main, lhs - main, res, False, flags)


@dataclass
class DiagonalLowerBoundResult:
    ratio: float | None
    partial_sum: float
    log_z: float
    residue: float | None
    flags: list[str]


def diagonal_lower_bound_check(rep: Representation, z: float) -> DiagonalLowerBoundResult:
    """(sum_{N(n) <= z} diag(n)/N(n)) / (log z * residue), GL1-exact residue."""
    flags: list[str] = []
    if z < 1:
        raise UsageError("z must be >= 1")
    partial = diagonal_sum(rep, max(int(z), 1)).real
    logz = math.log(z)
    residue = None
    if rep.degree == 1 and rep.character is not None:
        residue = 1.0  # gl1_exact diagonal is the Dedekind zeta of Q
    else:
        flags.append("residue unknown; ratio is shape only")
    if logz == 0.0:
        flags.append("z = 1 makes log z vanish; returning the unit-ideal sum")
        return DiagonalLowerBoundResult(None, partial, 0.0, residue, flags)
    ratio = None if residue is None else partial / (logz * residue)
    return DiagonalLowerBoundResult(ratio, partial, logz, residue, flags)


# ---------------------------------------------------------------------------
# sifted sums


@dataclass
class SiftedSumResult:
    lhs: float
    rhs_shape: float | None
    weighted_norm_sq: float
    sifted_count: int
    single_rep_sum: float
    single_rep_shape: float
    shape_only: bool
    flags: list[str]


def sifted_sum_check(
    family: Family,
    pi0: Representation | None,
    x: float,
    t_sharp: float,
    z: float,
    weights: WeightVector | None = None,
    kind: str = "lambda",
) -> SiftedSumResult:
    """Sifted-window mean square against the sieve-weighted bound shape.

    Window: N(n) in (x, e^(1/T) x], every prime factor of norm > z, read
    off the ideal table's smallest prime norms.  The
    right side keeps the structural factors (1/log z)(x/T + Q^n z^(2n^2+2)
    T^(n^2 [F:Q]/2) |S| D_F^(-n^2/2)) with implied constants omitted.  Each
    member's weighted sum, the members' |.|^2, the weighted norm and the
    single-member sum are exactly rounded by math.fsum.
    """
    if z < 1 or x < 1 or t_sharp < 1:
        raise UsageError("sifted_sum_check needs x, T, z >= 1")
    flags: list[str] = []
    pi0 = pi0 or trivial_representation(family.field)
    fld = family.field
    hi = int(math.floor(x * math.exp(1.0 / t_sharp)))
    table = ideal_list(fld, max(hi, 1))
    window = table[(table.norm > x) & (table.depth > 0) & (table.min_prime_norm() > z)]
    column, diagonal = family_arrays(family, kind, pi0)
    diag0 = diagonal.rows(window)[0].real.tolist()
    if weights is None:
        ws = [1 + 0j] * len(window)
    else:
        ws = [weights.values.get(i, 0j) for i in window.ideals()]
    lhs = math.fsum(
        abs(fsum_complex(wv * val for wv, val in zip(ws, row) if wv)) ** 2
        for row in column.rows(window).tolist()
    )
    wnorm = math.fsum(d * abs(wv) ** 2 for d, wv in zip(diag0, ws))
    n_deg = max(m.degree for m in family.members)
    dfac = abs(fld.discriminant) ** (-(n_deg**2) / 2.0)
    q = family.max_conductor
    if math.log(z) <= 0:
        flags.append("z = 1: the 1/log z factor is undefined; rhs omitted")
        rhs = None
    else:
        rhs = (
            (x / t_sharp + dfac * q**n_deg * z ** (2 * n_deg**2 + 2)
             * t_sharp ** (fld.degree * n_deg**2 / 2.0) * len(family.members))
            / math.log(z)
            * wnorm
        )
    # single-member sifted sum with unit weights
    n0 = pi0.degree
    single = math.fsum(diag0)
    single_shape = x / (t_sharp * max(math.log(z), 1e-300)) + abs(
        fld.discriminant
    ) ** (-(n0**2) / 2.0) * analytic_conductor(pi0) ** n0 * z ** (
        2 * n0**2 + 2
    ) * t_sharp ** (fld.degree * n0**2 / 2.0)
    return SiftedSumResult(
        lhs, rhs, wnorm, len(window), single, single_shape, True, flags
    )


# ---------------------------------------------------------------------------
# mean-value integrals of inverse coefficients

MVT_MAX_POINTS = 1 << 20  # quadrature points; the grid and the values take 8 bytes each


@dataclass
class MvtResult:
    value: float
    shape: float
    points: int
    flags: list[str]


def mvt_mu(
    family: Family,
    pi0: Representation | None,
    x_bound: float,
    t_range: float,
    y_scale: float | None = None,
    variant: str = "low",
    truncation: float | None = None,
) -> MvtResult:
    """Mean square of inverse-coefficient partial sums on vertical segments.

    variant "low": sum over members of the integral over |v| <= T of
    |sum_{N(n) <= X} mu(n) N(n)^(-1/2 - i v)|^2 dv, by composite Simpson
    quadrature; reported next to the X log X shape.  variant "tail": the
    sum over N(n) in (X, truncation] at height 1 + 1/log Y (truncation
    defaults to e^4 X and is recorded), next to the log X shape.
    """
    if variant not in ("low", "tail"):
        raise UsageError("variant must be 'low' or 'tail'")
    flags: list[str] = []
    if x_bound < math.e:
        raise UsageError("X must be at least e")
    if not t_range > 0:
        raise UsageError(f"T must be positive, not {t_range:g}")
    if variant == "low":
        lo, hi = 1, int(x_bound)
        sigma = 0.5
    else:
        if y_scale is None or y_scale < math.e:
            raise UsageError("the tail variant needs Y >= e")
        truncation = truncation if truncation is not None else math.exp(4.0) * x_bound
        lo, hi = int(x_bound) + 1, int(truncation)
        if hi < lo:
            raise UsageError(
                f"the tail truncation {truncation:g} must pass X = {x_bound:g}: "
                "no norm lies in (X, truncation]"
            )
        sigma = 1.0 + 1.0 / math.log(y_scale)
        flags.append(f"tail truncated at N(n) <= {hi}")
    density = max(8.0, math.log(max(hi, 3)))
    points = max(int(2 * math.ceil(8 * t_range * density) + 1), 129)
    if points > MVT_MAX_POINTS:
        raise ResourceLimitError(f"{points} mvt points exceed the ceiling {MVT_MAX_POINTS}")
    if (points - 1) / (2 * t_range) < 4.0 * math.log(max(hi, 3)):
        flags.append("quadrature may undersample the integrand oscillation")
    vs = np.linspace(-t_range, t_range, points)
    table = ideal_list(family.field, hi)
    ideals = table[table.norm >= lo]
    all_norms = ideals.norm.astype(np.float64)
    column, _ = family_arrays(family, "mu", pi0)
    total = 0.0
    for row in column.rows(ideals):
        nonzero = row != 0
        if not nonzero.any():
            continue
        norms = all_norms[nonzero]
        cs = row[nonzero] * norms ** (-sigma)
        logn = np.log(norms)
        vals = np.empty(points, dtype=np.float64)
        chunk = max(1, 2_000_000 // len(norms))
        for start in range(0, points, chunk):
            vv = vs[start : start + chunk]
            phase = np.exp(-1j * np.outer(vv, logn))
            vals[start : start + chunk] = np.abs(phase @ cs) ** 2
        # composite Simpson (points is odd)
        h = vs[1] - vs[0]
        simpson = vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum()
        total += simpson * h / 3.0
    shape = x_bound * math.log(x_bound) if variant == "low" else math.log(x_bound)
    return MvtResult(float(total), float(shape), points, flags)


def selftest() -> list[tuple[str, bool, str]]:
    from .localdata import dirichlet_family_by_modulus, make_family

    results = []
    triv = trivial_representation()
    fam1 = make_family([triv], label="trivial")

    c = bound_table(fam1, [3])[0]["measured_C"]
    results.append(("rank-one sieve constant saturates N", abs(c - 3.0) < 1e-10, f"{c}"))

    fam = dirichlet_family_by_modulus(10)
    c = bound_table(fam, [200])[0]["measured_C"]
    results.append(
        ("classical bound N + Q^2 - 1 at q <= 10, N = 200", c <= 299 + 1e-6, f"C = {c:.6f}")
    )

    w = selberg_weights(triv, 3.0)
    checks = w.verify()
    ok = all(v for k, v in checks.items() if k != "brute_force_value")
    ok = ok and abs(w.diagonal_value - 0.4) < 1e-12
    results.append(("selberg weights hand value 0.4", ok, f"diag {w.diagonal_value}"))

    g, _ = g_factor(triv, prime_ideal(triv.field, (5, 0)))
    results.append(("g(p) = 1/p for the trivial member", abs(g - 0.2) < 1e-14, f"{g}"))

    r = smooth_sum_residue(triv, triv, 200.0, 1.0)
    rel = abs(r.diff) / 200.0
    results.append(("smooth sum matches residue main term", rel < 0.05, f"|diff|/x = {rel:.4f}"))

    d = diagonal_lower_bound_check(triv, 1000.0)
    results.append(
        ("harmonic ratio above 1", d.ratio is not None and 1.0 < d.ratio < 1.2, f"{d.ratio:.6f}")
    )
    return results
