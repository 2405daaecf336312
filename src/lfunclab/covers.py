"""Positive-semi-definite cover calculus for families of Dirichlet series.

A cover decomposition is a list of rank-one terms (d_j, n_j, u_j) with
|d_j| <= 1.  The covered series has coefficient matrix
sum_{n_j = n} d_j u_j u_j^* at each ideal n, the cover drops the d_j.
Covers cannot be certified abstractly from coefficients alone, so this
module verifies their checkable consequences instead: Hermitian
coefficient matrices with nonnegative spectra, bilinear Cauchy-Schwarz
inequalities over random weights, and coefficientwise reconstruction of
stored target series after each algebra operation.  The algebra has four
operations: cover_scale, cover_add, cover_mul, and cover_exp, which sums
the powers A^k / k! that the other three build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import (
    TABLE_ROWS,
    _LocalEngine,
    _PrimePowerArrays,
    check_table_bytes,
    default_model,
    family_arrays,
)
from .errors import DataIntegrityError, UnsupportedCaseError, UsageError
from .ideals import (
    IdealIndex,
    ideal_mul,
    prime_powers_up_to,
    unit_ideal,
)
from .localdata import Family, Representation, trivial_representation

MATRIX_KINDS = ("lambda", "mu", "biglambda", "logl", "lambda_centered")
HERMITIAN_HARD_TOL = 1e-6
RECONSTRUCTION_TOL = 1e-9
D_MODULUS_TOL = 1e-12


@dataclass
class CoefficientMatrix:
    ideal: IdealIndex
    kind: str
    entries: np.ndarray  # (|S|, |S|) complex
    # magnitude of the terms before any cancellation; None: the largest entry
    scale: float | None = None


class PairCoefficientTable:
    """Local values for a family: every pair (a, conj-dual b) with a <= b, and
    the pi0 column (each member against pi0 itself, plus pi0 x dual pi0).

    Each prime power's values over the upper-triangle pairs (np.triu_indices
    order) form one array, computed once; build one table per run and pass
    it to every ideal.  A family whose pair table would pass the table
    ceiling is refused before any engine is built.
    """

    def __init__(self, family: Family, kind: str):
        size = len(family.members)
        check_table_bytes(TABLE_ROWS, size * (size + 1) // 2, f"the pair table of {family.label}")
        self.family = family
        self.kind = kind
        self.model = default_model(family)
        self._upper = np.triu_indices(size)
        self._engines: dict[tuple[int, int], _LocalEngine] = {}
        self._pairs: _PrimePowerArrays | None = None
        self._pi0_arrays: dict[tuple, tuple[_PrimePowerArrays, _PrimePowerArrays]] = {}

    def engine(self, i: int, j: int) -> _LocalEngine:
        key = (i, j)
        if key not in self._engines:
            self._engines[key] = _LocalEngine(
                self.family.members[i], self.family.members[j], self.kind, self.model
            )
        return self._engines[key]

    def _pair_values(self, ideal: IdealIndex) -> np.ndarray:
        if self._pairs is None:
            engines = [self.engine(int(i), int(j)) for i, j in zip(*self._upper)]
            self._pairs = _PrimePowerArrays(engines, self.kind)
        return self._pairs.at(ideal)

    def entry(self, i: int, j: int, ideal: IdealIndex) -> complex:
        """Entry (i, j) of matrix(ideal); below the diagonal, the conjugate of (j, i)."""
        if i > j:
            return self.entry(j, i, ideal).conjugate()
        size = len(self.family.members)
        return complex(self._pair_values(ideal)[i * size - i * (i - 1) // 2 + j - i])

    def matrix(self, ideal: IdealIndex) -> np.ndarray:
        """The Hermitian (|S|, |S|) matrix of pair values at the ideal."""
        size = len(self.family.members)
        vals = self._pair_values(ideal)
        rows, cols = self._upper
        m = np.empty((size, size), dtype=np.complex128)
        m[cols, rows] = np.conj(vals)
        m[rows, cols] = vals
        return m

    def pi0_column(
        self, pi0: Representation | None, kind: str, ideal: IdealIndex
    ) -> tuple[np.ndarray, complex]:
        """(lambda^kind_{i x pi0}(n) for every member i, lambda_{pi0 x dual pi0}(n)).

        pi0 = None stands for the trivial member of the family's field.  The
        engines are built once per (pi0 object, kind).
        """
        key = (pi0, kind)
        if key not in self._pi0_arrays:
            base = pi0 or trivial_representation(self.family.field)
            self._pi0_arrays[key] = family_arrays(self.family, kind, base)
        column, diagonal = self._pi0_arrays[key]
        return column.at(ideal), complex(diagonal.at(ideal)[0])


def coefficient_matrix(
    family: Family,
    ideal: IdealIndex,
    kind: str = "lambda",
    pi0: Representation | None = None,
    table: PairCoefficientTable | None = None,
) -> CoefficientMatrix:
    """Family coefficient matrix at one ideal.

    Entry (i, j) is the coefficient of the pairing of member i against the
    dual of member j for the requested kind.  kind = "lambda_centered"
    subtracts the rank-one part: with the default trivial pi0 the entry is
    lambda_{i x dual j}(n) - lambda_i(n) conj(lambda_j(n)); a general pi0
    gives lambda_{pi0 x dual pi0}(n) lambda_{i x dual j}(n) -
    lambda_{i x pi0}(n) conj(lambda_{j x pi0}(n)).  A table passed in must
    have been built for this family and the base kind.
    """
    if kind not in MATRIX_KINDS:
        raise UsageError(f"unknown matrix kind {kind!r}")
    if pi0 is not None and kind != "lambda_centered":
        raise UsageError("pi0 weighting only enters the lambda_centered matrix kind")
    base_kind = "lambda" if kind == "lambda_centered" else kind
    if table is None:
        table = PairCoefficientTable(family, base_kind)
    elif (table.family, table.kind) != (family, base_kind):
        raise UsageError(
            f"pair table built for ({table.family.label}, {table.kind}) "
            f"cannot serve ({family.label}, {base_kind})"
        )
    m = table.matrix(ideal)
    if kind != "lambda_centered":
        return CoefficientMatrix(ideal, kind, m)
    vec, w00 = table.pi0_column(pi0, "lambda", ideal)
    # the two terms cancel (exactly, at squarefree ideals for characters):
    # rounding is measured against their own size, not the difference's
    scale = abs(w00) * float(np.abs(m).max()) + float(np.abs(vec).max()) ** 2
    m = w00 * m - np.outer(vec, np.conj(vec))
    return CoefficientMatrix(ideal, kind, m, scale)


def psd_check_full(m: CoefficientMatrix, tol: float = 1e-9) -> tuple[float, float, bool]:
    """(min eigenvalue, spectral norm, verdict min_eig >= -tol * spectral).

    The matrix must be Hermitian up to rounding; a deviation beyond 1e-6
    of its scale (the size of its terms before cancellation, when the
    matrix carries one) signals a coefficient bug and raises.
    """
    a = m.entries
    scale = max(1e-300, float(np.abs(a).max()) if m.scale is None else m.scale)
    herm_dev = float(np.abs(a - a.conj().T).max())
    if herm_dev > HERMITIAN_HARD_TOL * scale:
        raise DataIntegrityError(
            f"matrix at {m.ideal} deviates from Hermitian by {herm_dev:.3e} (scale {scale:.3e})"
        )
    sym = (a + a.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    min_eig = float(eigs[0])
    spectral = float(np.abs(eigs).max())
    # matrices that vanish identically (centered kind at squarefree ideals)
    # leave only rounding noise; the unit floor keeps the test decidable
    verdict = min_eig >= -tol * max(spectral, 1.0)
    return min_eig, spectral, verdict


@dataclass
class BilinearCheckResult:
    worst_margin: float
    argmin_weights: np.ndarray
    trials: int
    ideal: IdealIndex
    kind: str


def weight_battery(size: int, trials: int, seed: int) -> np.ndarray:
    """Seeded complex Gaussian weights plus all-ones and single spikes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = [np.ones(size, dtype=np.complex128)]
    rows.extend(np.eye(size, dtype=np.complex128))
    gauss = rng.standard_normal((trials, size)) + 1j * rng.standard_normal((trials, size))
    return np.vstack([np.array(rows), gauss])


def bilinear_inequality_check(
    kind: str,
    family: Family,
    pi0: Representation | None,
    ideal: IdealIndex,
    trials: int = 1000,
    seed: int = 0,
    table: PairCoefficientTable | None = None,
) -> BilinearCheckResult:
    """Worst margin of the covered Cauchy-Schwarz bound over random weights.

    margin(w) = lambda_{pi0 x dual pi0}(n) * sum_{i,j} w_i conj(w_j)
    lambda_{i x dual j}(n) - |sum_i w_i lambda^o_{i x pi0}(n)|^2, where
    lambda^o is the kind-selected coefficient (lambda, mu, or logl), all
    covered by lambda.  Nonnegative up to rounding for every weight vector.
    A table passed in must be a lambda table of this family.
    """
    if kind not in ("lambda", "mu", "logl"):
        raise UsageError("coverable kinds are lambda, mu, logl")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    table = table or PairCoefficientTable(family, "lambda")
    cover = coefficient_matrix(family, ideal, "lambda", table=table)
    vec, w00 = table.pi0_column(pi0, kind, ideal)
    ws = weight_battery(len(family.members), trials, seed)
    quad = np.einsum("ti,ij,tj->t", ws, cover.entries, ws.conj()).real
    lin = np.abs(ws @ vec) ** 2
    margins = w00.real * quad - lin
    worst = int(np.argmin(margins))
    return BilinearCheckResult(
        float(margins[worst]), ws[worst], len(ws), ideal, kind
    )


# ---------------------------------------------------------------------------
# cover decompositions


@dataclass
class CoverTerm:
    d: complex
    ideal: IdealIndex
    u: np.ndarray  # one complex entry per family member


@dataclass
class CoverDecomposition:
    """Rank-one-term realization of a covered series and its cover."""

    terms: list[CoverTerm]
    labels: tuple[str, ...]
    field: object
    norm_bound: int
    target_covered: dict[IdealIndex, np.ndarray] | None = None
    target_cover: dict[IdealIndex, np.ndarray] | None = None
    restricted_coprime_to: int = 1  # reconstruction defined away from this modulus
    description: str = ""

    def size(self) -> int:
        return len(self.labels)

    def _check_support(self, ideal: IdealIndex):
        if self.restricted_coprime_to > 1:
            for (p, _), _e in ideal.factors:
                if self.restricted_coprime_to % p == 0:
                    raise UnsupportedCaseError(
                        f"terms at {ideal} are not defined: the decomposition is "
                        f"restricted to ideals coprime to {self.restricted_coprime_to}"
                    )

    def reconstruct_covered(self, ideal: IdealIndex) -> np.ndarray:
        self._check_support(ideal)
        acc = np.zeros((self.size(), self.size()), dtype=np.complex128)
        for t in self.terms:
            if t.ideal == ideal:
                acc += t.d * np.outer(t.u, np.conj(t.u))
        return acc

    def reconstruct_cover(self, ideal: IdealIndex) -> np.ndarray:
        self._check_support(ideal)
        acc = np.zeros((self.size(), self.size()), dtype=np.complex128)
        for t in self.terms:
            if t.ideal == ideal:
                acc += np.outer(t.u, np.conj(t.u))
        return acc

    def support(self) -> list[IdealIndex]:
        return sorted({t.ideal for t in self.terms}, key=IdealIndex.sort_key)

    def verify(self) -> float:
        """Max reconstruction residual against stored targets; also checks |d| <= 1."""
        for t in self.terms:
            if abs(t.d) > 1 + D_MODULUS_TOL:
                raise DataIntegrityError(f"|d| = {abs(t.d)} exceeds 1 at term {t.ideal}")
        worst = 0.0
        for target, rebuild in (
            (self.target_covered, self.reconstruct_covered),
            (self.target_cover, self.reconstruct_cover),
        ):
            if target is None:
                continue
            keys = set(target) | {t.ideal for t in self.terms}
            for ideal in keys:
                if ideal.norm > self.norm_bound:
                    continue
                want = target.get(ideal)
                if want is None:
                    want = np.zeros((self.size(), self.size()), dtype=np.complex128)
                got = rebuild(ideal)
                worst = max(worst, float(np.abs(got - want).max()))
        if worst > RECONSTRUCTION_TOL:
            raise DataIntegrityError(
                f"cover reconstruction residual {worst:.3e} exceeds {RECONSTRUCTION_TOL:.1e}"
            )
        return worst


def _convolve_targets(
    ta: dict[IdealIndex, np.ndarray] | None,
    tb: dict[IdealIndex, np.ndarray] | None,
    bound: int,
):
    if ta is None or tb is None:
        return None
    out: dict[IdealIndex, np.ndarray] = {}
    for ia, ma in ta.items():
        for ib, mb in tb.items():
            if ia.norm * ib.norm > bound:
                continue
            key = ideal_mul(ia, ib)
            prod = ma * mb  # Hadamard: series multiply pointwise in (x, y)
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod.copy()
    return out


def _merge_targets(
    ta: dict[IdealIndex, np.ndarray] | None,
    tb: dict[IdealIndex, np.ndarray] | None,
):
    if ta is None or tb is None:
        return None
    out = {k: v.copy() for k, v in ta.items()}
    for k, v in tb.items():
        out[k] = out[k] + v if k in out else v.copy()
    return out


def cover_scale(a: CoverDecomposition, z: complex) -> CoverDecomposition:
    """z times the covered series: the phase of z enters d, sqrt|z| enters u."""
    mag = abs(z)
    phase = z / mag if mag > 0 else 0j
    terms = [CoverTerm(t.d * phase, t.ideal, t.u * math.sqrt(mag)) for t in a.terms]
    tc = {k: z * v for k, v in a.target_covered.items()} if a.target_covered else None
    tp = {k: mag * v for k, v in a.target_cover.items()} if a.target_cover else None
    out = CoverDecomposition(
        terms, a.labels, a.field, a.norm_bound, tc, tp, a.restricted_coprime_to,
        f"scale({z}) of {a.description}",
    )
    out.verify()
    return out


def cover_add(a: CoverDecomposition, b: CoverDecomposition) -> CoverDecomposition:
    """The sum, known up to the smaller of the two norm bounds."""
    if a.labels != b.labels:
        raise UsageError("decompositions index different families")
    bound = min(a.norm_bound, b.norm_bound)
    out = CoverDecomposition(
        [t for t in a.terms + b.terms if t.ideal.norm <= bound],
        a.labels, a.field, bound,
        _merge_targets(a.target_covered, b.target_covered),
        _merge_targets(a.target_cover, b.target_cover),
        max(a.restricted_coprime_to, b.restricted_coprime_to),
        f"({a.description}) + ({b.description})",
    )
    out.verify()
    return out


def cover_mul(a: CoverDecomposition, b: CoverDecomposition, truncation: int) -> CoverDecomposition:
    """The Dirichlet product, truncated to ideal norms <= truncation and known
    up to the smallest of the truncation and the two norm bounds: a divisor of
    an ideal has at most its norm, but a factor knows no term past its bound."""
    if a.labels != b.labels:
        raise UsageError("decompositions index different families")
    bound = min(truncation, a.norm_bound, b.norm_bound)
    terms = [
        CoverTerm(ta.d * tb.d, ideal_mul(ta.ideal, tb.ideal), ta.u * tb.u)
        for ta in a.terms
        for tb in b.terms
        if ta.ideal.norm * tb.ideal.norm <= bound
    ]
    if not terms:
        raise UsageError("truncation too small to represent any product term")
    out = CoverDecomposition(
        terms, a.labels, a.field, bound,
        _convolve_targets(a.target_covered, b.target_covered, bound),
        _convolve_targets(a.target_cover, b.target_cover, bound),
        max(a.restricted_coprime_to, b.restricted_coprime_to),
        f"({a.description}) * ({b.description})",
    )
    out.verify()
    return out


def cover_exp(a: CoverDecomposition, truncation: int) -> CoverDecomposition:
    """sum_k A^k / k! to ideal norms <= min(truncation, A's norm bound), from
    cover_mul, cover_scale and cover_add; A must have no unit-ideal term
    (strip constants first)."""
    if truncation < 1:
        raise UsageError("truncation too small to represent any term")
    truncation = min(truncation, a.norm_bound)
    if any(t.ideal.is_unit for t in a.terms):
        raise UsageError(
            "exp needs a covered series with zero unit-ideal coefficient; "
            "strip the constant term first"
        )
    size = len(a.labels)
    unit = unit_ideal(a.field)
    ones = np.ones((size, size), dtype=np.complex128)
    total = CoverDecomposition(
        [CoverTerm(1 + 0j, unit, np.ones(size, dtype=np.complex128))],
        a.labels, a.field, truncation, {unit: ones}, {unit: ones.copy()},
        a.restricted_coprime_to,
    )
    lowest = min((t.ideal.norm for t in a.terms), default=math.inf)
    power, k = a, 1  # power = A^k
    while True:
        total = cover_add(total, cover_scale(power, 1.0 / math.factorial(k)))
        # no product of A^k with A fits under the truncation: every later power is empty
        if min((t.ideal.norm for t in power.terms), default=math.inf) * lowest > truncation:
            break
        power, k = cover_mul(power, a, truncation), k + 1
    total.description = f"exp({a.description})"
    return total


def gl1_log_decomposition(family: Family, norm_bound: int) -> CoverDecomposition:
    """Explicit rank-one terms for the log-L family of GL1 characters.

    Term (p, f) lives at the ideal (p^f) with u(chi) = chi(p^f)/sqrt(f)
    and d = 1, for p coprime to every conductor in the family.  The
    covered series and the cover coincide, so log L is verified to be a
    positive semi-definite cover of itself on this support.  Ramified
    ideals are outside the decomposition's domain and raise.
    """
    members = family.members
    if any(m.degree != 1 or m.character is None for m in members):
        raise UsageError("the log decomposition needs an all-GL1 character family")
    cond_prod = 1
    for m in members:
        for (p, _), _e in m.conductor.factors:
            if cond_prod % p:
                cond_prod *= p
    terms = []
    target: dict[IdealIndex, np.ndarray] = {}
    for ideal in prime_powers_up_to(family.field, norm_bound):
        [((p, _), f)] = ideal.factors
        if cond_prod % p == 0:
            continue
        u = np.array([m.character.value(p) ** f for m in members]) / math.sqrt(f)
        terms.append(CoverTerm(1 + 0j, ideal, u))
        target[ideal] = np.outer(u, np.conj(u))
    out = CoverDecomposition(
        terms,
        tuple(m.label for m in members),
        family.field,
        norm_bound,
        target_covered=target,
        target_cover={k: v.copy() for k, v in target.items()},
        restricted_coprime_to=cond_prod,
        description=f"log-L terms for {family.label}",
    )
    out.verify()
    return out


def selftest() -> list[tuple[str, bool, str]]:
    from .ideals import ideal_from_int
    from .localdata import dirichlet_character_family, synthetic_family

    results = []
    fam = dirichlet_character_family(20)
    field = fam.field

    unitm = coefficient_matrix(fam, unit_ideal(field), "lambda")
    ok = np.allclose(unitm.entries, 1.0)
    results.append(("all-ones matrix at the unit ideal", ok, ""))

    worst_eig = 0.0
    table = PairCoefficientTable(fam, "lambda")
    for n in range(1, 120):
        m = coefficient_matrix(fam, ideal_from_int(field, n), "lambda", table=table)
        min_eig, _, verdict = psd_check_full(m)
        if not verdict:
            worst_eig = min(worst_eig, min_eig)
    results.append(("lambda matrices PSD for n < 120", worst_eig == 0.0, f"{worst_eig:.2e}"))

    worst = np.inf
    for n in (1, 2, 3, 6, 9, 12, 30):
        res = bilinear_inequality_check(
            "mu", fam, None, ideal_from_int(field, n), trials=50, seed=7
        )
        worst = min(worst, res.worst_margin)
    results.append(("bilinear mu margins", worst > -1e-9, f"worst {worst:.2e}"))

    dec = gl1_log_decomposition(fam, 100)
    resid = dec.verify()
    results.append(("log decomposition reconstructs", resid <= 1e-9, f"residual {resid:.2e}"))

    expd = cover_exp(dec, 60)
    lam_table = PairCoefficientTable(fam, "lambda")
    worst = 0.0
    for ideal in expd.support():
        got = expd.reconstruct_covered(ideal)
        size = len(fam.members)
        want = np.zeros((size, size), dtype=np.complex128)
        for i in range(size):
            for j in range(size):
                want[i, j] = lam_table.entry(i, j, ideal)
        worst = max(worst, float(np.abs(got - want).max()))
    results.append(("exp(log) rebuilds lambda", worst < 1e-9, f"max dev {worst:.2e}"))

    gl2 = synthetic_family(2, 3, seed=9)
    m = coefficient_matrix(gl2, ideal_from_int(field, 7), "lambda_centered")
    min_eig, _, verdict = psd_check_full(m)
    results.append(("centered synthetic matrix PSD", verdict, f"min eig {min_eig:.2e}"))
    return results
