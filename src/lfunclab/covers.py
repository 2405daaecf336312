"""Positive-semi-definite cover calculus for families of Dirichlet series.

A cover decomposition holds one block (d, U) per ideal n: weights |d| <= 1
and a term matrix U with a column per member.  The covered series has
coefficient matrix U^T diag(d) conj(U) at n, the cover U^T conj(U).
log_decomposition writes log L so for every family, at every prime power;
cover_exp, from cover_scale, cover_add and cover_mul, then gives L and 1/L
as exp(+-log L), the duality behind the large sieve.  Each operation checks
its blocks against targets computed independently.  Covers cannot be
certified from coefficients alone, so this module also checks their
consequences: Hermitian coefficient matrices with nonnegative spectra and
bilinear Cauchy-Schwarz inequalities over random weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import characters as chars
from .coeffs import (
    TABLE_ROWS,
    _LocalEngine,
    _PrimePowerArrays,
    check_table_bytes,
    default_model,
    family_arrays,
    power_sum,
)
from .errors import DataIntegrityError, UsageError
from .ideals import (
    IdealIndex,
    ideal_mul,
    prime_ideal,
    prime_powers_up_to,
    unit_ideal,
)
from .localdata import Family, Representation

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

        pi0 = None stands for the trivial member of the family's field, as in
        family_arrays.  The engines are built once per (pi0 object, kind).
        """
        key = (pi0, kind)
        if key not in self._pi0_arrays:
            self._pi0_arrays[key] = family_arrays(self.family, kind, pi0)
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
class CoverDecomposition:
    """A covered series and its cover, as one block (d, U) per ideal.

    At the ideal n, d holds one weight per term, |d| <= 1, and U one row per
    term with an entry per family member: the covered coefficient matrix is
    U^T diag(d) conj(U) and the cover U^T conj(U).  The targets are the two
    series computed independently, known up to norm_bound.
    """

    blocks: dict[IdealIndex, tuple[np.ndarray, np.ndarray]]
    labels: tuple[str, ...]
    field: object
    norm_bound: int
    target_covered: dict[IdealIndex, np.ndarray]
    target_cover: dict[IdealIndex, np.ndarray]

    def _block(self, ideal: IdealIndex) -> tuple[np.ndarray, np.ndarray]:
        return self.blocks.get(ideal, (np.zeros(0), np.zeros((0, len(self.labels)))))

    def reconstruct_covered(self, ideal: IdealIndex) -> np.ndarray:
        d, u = self._block(ideal)
        return u.T @ (d[:, None] * u.conj())

    def reconstruct_cover(self, ideal: IdealIndex) -> np.ndarray:
        _, u = self._block(ideal)
        return u.T @ u.conj()

    def verify(self) -> float:
        """Max reconstruction residual against the targets, at each ideal relative
        to max(1, the largest entry of the cover there), as psd_check_full
        scales its test; also checks |d| <= 1."""
        for ideal, (d, _) in self.blocks.items():
            if np.abs(d).max(initial=0.0) > 1 + D_MODULUS_TOL:
                raise DataIntegrityError(f"|d| = {np.abs(d).max()} exceeds 1 at {ideal}")
        size = len(self.labels)
        zero = np.zeros((size, size), dtype=np.complex128)
        worst = 0.0
        for ideal in self.blocks.keys() | self.target_covered.keys() | self.target_cover.keys():
            cover = self.reconstruct_cover(ideal)
            scale = max(1.0, float(np.abs(cover).max()))
            for got, target in (
                (self.reconstruct_covered(ideal), self.target_covered),
                (cover, self.target_cover),
            ):
                worst = max(worst, float(np.abs(got - target.get(ideal, zero)).max()) / scale)
        if worst > RECONSTRUCTION_TOL:
            raise DataIntegrityError(
                f"cover reconstruction residual {worst:.3e} exceeds {RECONSTRUCTION_TOL:.1e}"
            )
        return worst


def _gather(items, join) -> dict:
    """ideal -> join(the values listed for it), from (ideal, value) items."""
    lists: dict[IdealIndex, list] = {}
    for ideal, value in items:
        lists.setdefault(ideal, []).append(value)
    return {ideal: join(values) for ideal, values in lists.items()}


def _stack(blocks) -> tuple[np.ndarray, np.ndarray]:
    """One block of the blocks' terms, in order."""
    return np.concatenate([d for d, _ in blocks]), np.concatenate([u for _, u in blocks])


def _products(ta: dict, tb: dict, bound: int) -> list:
    """(ia * ib, ta[ia], tb[ib]) over the pairs of ideals with N(ia) N(ib) <= bound."""
    return [
        (ideal_mul(ia, ib), x, y)
        for ia, x in ta.items()
        for ib, y in tb.items()
        if ia.norm * ib.norm <= bound
    ]


def cover_scale(a: CoverDecomposition, z: complex) -> CoverDecomposition:
    """z times the covered series: the phase of z enters d, sqrt|z| enters U."""
    mag = abs(z)
    phase = z / mag if mag > 0 else 0j
    root = math.sqrt(mag)
    out = CoverDecomposition(
        {k: (d * phase, u * root) for k, (d, u) in a.blocks.items()},
        a.labels, a.field, a.norm_bound,
        {k: z * v for k, v in a.target_covered.items()},
        {k: mag * v for k, v in a.target_cover.items()},
    )
    out.verify()
    return out


def cover_add(a: CoverDecomposition, b: CoverDecomposition) -> CoverDecomposition:
    """The sum, known up to the smaller of the two norm bounds: each ideal's
    terms are a's followed by b's."""
    if a.labels != b.labels:
        raise UsageError("decompositions index different families")
    bound = min(a.norm_bound, b.norm_bound)

    def join(ta, tb, how):
        return _gather(((n, v) for t in (ta, tb) for n, v in t.items() if n.norm <= bound), how)

    out = CoverDecomposition(
        join(a.blocks, b.blocks, _stack), a.labels, a.field, bound,
        join(a.target_covered, b.target_covered, sum),
        join(a.target_cover, b.target_cover, sum),
    )
    out.verify()
    return out


def cover_mul(a: CoverDecomposition, b: CoverDecomposition, truncation: int) -> CoverDecomposition:
    """The Dirichlet product, truncated to ideal norms <= truncation and known
    up to the smallest of the truncation and the two norm bounds: a divisor of
    an ideal has at most its norm, but a factor knows no term past its bound.

    A pair of blocks multiplies as one face-splitting product: d = outer(d_a,
    d_b), U the row-wise Kronecker product of U_a and U_b.  The terms are
    checked against the table ceiling before any is built; the targets
    multiply entrywise, as the series do in each entry.
    """
    if a.labels != b.labels:
        raise UsageError("decompositions index different families")
    bound = min(truncation, a.norm_bound, b.norm_bound)
    pairs = _products(a.blocks, b.blocks, bound)
    if not pairs:
        raise UsageError("truncation too small to represent any product term")
    terms = sum(len(x[0]) * len(y[0]) for _, x, y in pairs)
    check_table_bytes(terms, len(a.labels), "the terms of a cover product")

    def face_split(da, ua, db, ub):
        return np.outer(da, db).ravel(), (ua[:, None] * ub[None]).reshape(-1, ua.shape[1])

    def targets(ta, tb):
        return _gather(((n, x * y) for n, x, y in _products(ta, tb, bound)), sum)

    out = CoverDecomposition(
        _gather(((n, face_split(*x, *y)) for n, x, y in pairs), _stack),
        a.labels, a.field, bound,
        targets(a.target_covered, b.target_covered),
        targets(a.target_cover, b.target_cover),
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
    if any(ideal.is_unit for ideal in a.blocks):
        raise UsageError(
            "exp needs a covered series with zero unit-ideal coefficient; "
            "strip the constant term first"
        )
    size = len(a.labels)
    unit = unit_ideal(a.field)
    ones = np.ones((size, size), dtype=np.complex128)
    total = CoverDecomposition(
        {unit: (np.ones(1, dtype=np.complex128), np.ones((1, size), dtype=np.complex128))},
        a.labels, a.field, truncation, {unit: ones}, {unit: ones},
    )
    lowest = min((ideal.norm for ideal in a.blocks), default=math.inf)
    power, k = a, 1  # power = A^k
    while True:
        total = cover_add(total, cover_scale(power, 1.0 / math.factorial(k)))
        # no product of A^k with A fits under the truncation: every later power is empty
        if min((ideal.norm for ideal in power.blocks), default=math.inf) * lowest > truncation:
            break
        power, k = cover_mul(power, a, truncation), k + 1
    return total


def log_decomposition(family: Family, bound: int) -> CoverDecomposition:
    """log L at every prime power p^f of norm <= bound, ramified ones included,
    under default_model(family), every d = 1; both targets are the logl pair
    table's matrices.

    gl1_exact: a term per p-part class c (characters.PrimeAngles), u_i =
    [part_i = c] e(A_i/M_i)^f / sqrt(f), so different p-parts pair to 0.
    product: one term, u_i = p_f(alpha_i(p)) / sqrt(f), a power sum.
    """
    members, field = family.members, family.field
    ideals = prime_powers_up_to(field, bound)
    factors = [factor for ideal in ideals for factor in ideal.factors]
    blocks = {}
    if default_model(family) == "gl1_exact":
        characters = [m.character for m in members]
        angles, parts = chars.PrimeAngles(characters).at(np.array([pid[0] for pid, _ in factors]))
        roots = np.exp(2j * np.pi * angles / np.array([chi.order_denom for chi in characters]))
        for ideal, (_, f), root, part in zip(ideals, factors, roots, parts):
            # with return_inverse, as a plain np.unique imports numpy.ma
            classes = np.unique(part, return_inverse=True)[0][:, None]
            u = np.where(part == classes, root**f, 0) / math.sqrt(f)
            blocks[ideal] = np.ones(len(classes), dtype=np.complex128), u
    else:
        for ideal, (pid, f) in zip(ideals, factors):
            prime = prime_ideal(field, pid)
            sums = [power_sum(m.local_at(prime).alphas, f) for m in members]
            blocks[ideal] = np.ones(1, dtype=np.complex128), np.array([sums]) / math.sqrt(f)
    table = PairCoefficientTable(family, "logl")
    target = {ideal: table.matrix(ideal) for ideal in ideals}
    out = CoverDecomposition(blocks, tuple(m.label for m in members), field, bound, target, target)
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

    dec = log_decomposition(fam, 100)
    resid = dec.verify()
    results.append(("log decomposition reconstructs", resid <= 1e-9, f"residual {resid:.2e}"))

    # exp(+-log) against the lambda and mu pair tables at every ideal, ramified ones included
    for name, sign, kind in (("exp(log) rebuilds lambda", 1, "lambda"), ("exp(-log) rebuilds mu", -1, "mu")):
        expd = cover_exp(cover_scale(dec, sign), 60)
        table = PairCoefficientTable(fam, kind)
        worst = 0.0
        for n in range(1, 61):
            ideal = ideal_from_int(field, n)
            want = table.matrix(ideal)
            dev = np.abs(expd.reconstruct_covered(ideal) - want).max() / max(1.0, np.abs(want).max())
            worst = max(worst, float(dev))
        results.append((name, worst < 1e-9, f"max dev {worst:.2e}"))

    gl2 = synthetic_family(2, 3, seed=9)
    m = coefficient_matrix(gl2, ideal_from_int(field, 7), "lambda_centered")
    min_eig, _, verdict = psd_check_full(m)
    results.append(("centered synthetic matrix PSD", verdict, f"min eig {min_eig:.2e}"))
    return results
