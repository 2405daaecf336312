import math

import numpy as np
import pytest

from lfunclab import coeffs
from lfunclab.characters import conjugate, primitive_characters
from lfunclab.coeffs import (
    default_model,
    dirichlet_convolve,
    expand_global,
    hom_sym_values,
    local_lambda,
    mertens_sum,
    pair_model,
    partitions_of,
    product_primitive_character,
    rankin_selberg_local,
    schur_from_h,
    unit_indicator_series,
)
from lfunclab.covers import (
    PairCoefficientTable,
    bilinear_inequality_check,
    coefficient_matrix,
    weight_battery,
)
from lfunclab.errors import UsageError
from lfunclab.ideals import (
    NumberFieldSpec,
    enumerate_ideals,
    ideal_from_int,
    prime_ideal,
    unit_ideal,
)
from lfunclab.localdata import (
    LocalParameters,
    character_representation,
    contragredient,
    make_family,
    synthetic_family,
    trivial_representation,
)
from lfunclab.sieve import family_coefficient_rows

Q = NumberFieldSpec.rationals()
P2 = prime_ideal(Q, (2, 0))


def series_inversion(alphas, betas, kmax):
    """Power-series inverse of prod (1 - a conj(b) x), the Cauchy oracle."""
    poly = np.ones(1, dtype=np.complex128)
    for a in alphas:
        for b in betas:
            poly = np.convolve(poly, [1.0, -a * np.conj(b)])
    inv = np.zeros(kmax + 1, dtype=np.complex128)
    inv[0] = 1.0
    for k in range(1, kmax + 1):
        inv[k] = -sum(poly[j] * inv[k - j] for j in range(1, min(len(poly) - 1, k) + 1))
    return inv


class TestLocalLambda:
    def test_degree_one_powers(self):
        alpha = 0.3 - 0.7j
        params = LocalParameters(P2, (alpha,))
        for k in range(6):
            assert local_lambda(params, k) == pytest.approx(alpha**k, abs=1e-14)

    def test_degree_two_linear(self):
        params = LocalParameters(P2, (0.5 + 0.1j, -0.2j))
        assert local_lambda(params, 1) == pytest.approx(0.5 - 0.1j, abs=1e-14)

    def test_degree_three_high_order_vs_inversion(self):
        rng = np.random.default_rng(7)
        alphas = tuple(map(complex, rng.normal(size=3) + 1j * rng.normal(size=3)))
        params = LocalParameters(P2, alphas)
        ref = series_inversion(alphas, (1.0,), 7)  # conj(1) = 1 leaves alphas alone
        assert local_lambda(params, 7) == pytest.approx(complex(ref[7]), rel=1e-12)

    def test_repeated_parameters_are_fine(self):
        params = LocalParameters(P2, (0.5, 0.5, 0.5))
        # h_k of a triple root: binomial(k+2, 2) * 0.5^k
        for k in range(8):
            want = math.comb(k + 2, 2) * 0.5**k
            assert local_lambda(params, k) == pytest.approx(want, rel=1e-13)


class TestRankinSelbergLocal:
    def test_degree_one_pair(self):
        a = LocalParameters(P2, (0.8j,))
        b = LocalParameters(P2, (0.5 + 0.5j,))
        for k in range(5):
            want = (0.8j * np.conj(0.5 + 0.5j)) ** k
            assert rankin_selberg_local(a, b, k) == pytest.approx(complex(want), abs=1e-13)

    def test_degree_two_first_order(self):
        a = LocalParameters(P2, (0.3 + 0.4j, 0.3 - 0.4j))
        b = LocalParameters(P2, (0.6, -0.1))
        want = (0.6 + 0.8j) * np.conj(0.5)
        got = rankin_selberg_local(a, b, 1)
        assert got == pytest.approx(complex((0.3 + 0.4j + 0.3 - 0.4j)) * np.conj(0.6 - 0.1), abs=1e-13)

    def test_gl1_exact_ramified_unit(self):
        rep = character_representation(primitive_characters(3)[0])
        series = expand_global(rep, rep, 3, "lambda", "gl1_exact")
        assert series.value(ideal_from_int(Q, 3)) == pytest.approx(1.0, abs=1e-14)

    def test_gl1_exact_requires_characters(self):
        no_character = trivial_representation(NumberFieldSpec.quadratic(-1))
        with pytest.raises(UsageError, match="character data"):
            expand_global(no_character, no_character, 3, "lambda", "gl1_exact")

    def test_cauchy_oracle_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, n2 = rng.integers(1, 5, size=2)
            al = tuple(map(complex, rng.normal(size=n) + 1j * rng.normal(size=n)))
            be = tuple(map(complex, rng.normal(size=n2) + 1j * rng.normal(size=n2)))
            a = LocalParameters(P2, al)
            b = LocalParameters(P2, be)
            ref = series_inversion(al, be, 12)
            for k in range(13):
                got = rankin_selberg_local(a, b, k)
                assert got == pytest.approx(complex(ref[k]), rel=1e-10, abs=1e-10)


def per_pair_jacobi_trudi(a, b, k):
    """The per-pair loop: h-values of both sides, one determinant per partition and side."""
    if k == 0:
        return 1 + 0j
    ha = hom_sym_values(a.alphas, k)
    hb = hom_sym_values(b.alphas, k)
    acc = 0j
    for lam in partitions_of(k, min(len(a.alphas), len(b.alphas))):
        acc += schur_from_h(ha, lam) * np.conj(schur_from_h(hb, lam))
    return complex(acc)


class TestSchurMemo:
    def test_memoised_matches_per_pair_loop(self):
        # one parameter set per degree, each paired with every degree: the
        # memo filled for one partner must give the exact sum for the next,
        # including GL2 x GL3 at k >= 6, where the partitions with at most two
        # parts are not a prefix of those with at most three
        rng = np.random.default_rng(29)
        draws = {n: tuple(map(complex, rng.normal(size=n) + 1j * rng.normal(size=n))) for n in (1, 2, 3)}
        memoised = {n: LocalParameters(P2, al) for n, al in draws.items()}
        for k in range(11):
            for na in (3, 1, 2):
                for nb in (1, 3, 2):
                    fresh = LocalParameters(P2, draws[na]), LocalParameters(P2, draws[nb])
                    want = per_pair_jacobi_trudi(*fresh, k)
                    assert rankin_selberg_local(memoised[na], memoised[nb], k) == want, (na, nb, k)

    def test_memo_keeps_one_entry_per_k(self):
        params = LocalParameters(P2, (0.5 + 0.5j, -0.3j, 0.8))
        partner = LocalParameters(P2, (0.1 - 0.2j,))
        for k in range(1, 7):
            rankin_selberg_local(params, params, k)
            rankin_selberg_local(params, partner, k)
        assert sorted(params.kernels) == list(range(1, 7))
        assert all(len(v) == len(partitions_of(k, 3)) for k, v in params.kernels.items())

    def test_partition_cap_enforced(self):
        with pytest.raises(UsageError, match="cap"):
            partitions_of(65, 4)


class TestProductCharacterCache:
    def test_keyed_by_value_and_bounded(self, monkeypatch):
        monkeypatch.setattr(coeffs, "_product_primitive_cache", {})
        monkeypatch.setattr(coeffs, "PRODUCT_CACHE_MAX", 4)
        chi = primitive_characters(5)[1]
        psi = product_primitive_character(chi, conjugate(chi))
        # separately built copies, as every contragredient makes, share the entry
        assert product_primitive_character(conjugate(conjugate(chi)), conjugate(chi)) is psi
        assert len(coeffs._product_primitive_cache) == 1
        for q in (3, 4, 7, 8):
            for other in primitive_characters(q):
                product_primitive_character(other, chi)
        assert len(coeffs._product_primitive_cache) == 4


class TestExpandGlobal:
    def test_classical_von_mangoldt(self, trivial_rep):
        series = expand_global(trivial_rep, trivial_rep, 200, "biglambda")
        assert series.value(ideal_from_int(Q, 8)) == pytest.approx(math.log(2), abs=1e-13)
        assert series.value(ideal_from_int(Q, 97)) == pytest.approx(math.log(97), abs=1e-13)
        assert series.value(ideal_from_int(Q, 6)) == 0j

    def test_mu_linear_term(self, gl2_family):
        a, b = gl2_family.members[0], gl2_family.members[1]
        p = prime_ideal(Q, (5, 0))
        series = expand_global(a, b, 30, "mu")
        al = a.local_at(p).alphas
        be = b.local_at(p).alphas
        want = -sum(x * np.conj(y) for x in al for y in be)
        assert series.value(p) == pytest.approx(complex(want), abs=1e-12)

    def test_mu_square_term_vs_inversion(self, gl2_family):
        a, b = gl2_family.members[0], gl2_family.members[1]
        p = prime_ideal(Q, (3, 0))
        al, be = a.local_at(p).alphas, b.local_at(p).alphas
        poly = np.ones(1, dtype=np.complex128)
        for x in al:
            for y in be:
                poly = np.convolve(poly, [1.0, -x * np.conj(y)])
        series = expand_global(a, b, 16, "mu")
        got = series.value(ideal_from_int(Q, 9))
        assert got == pytest.approx(complex(poly[2]), rel=1e-12, abs=1e-12)

    def test_logl_is_biglambda_over_log(self, trivial_rep):
        big = expand_global(trivial_rep, trivial_rep, 100, "biglambda")
        logl = expand_global(trivial_rep, trivial_rep, 100, "logl")
        for ideal, val in logl.values.items():
            assert val == pytest.approx(big.value(ideal) / math.log(ideal.norm), abs=1e-13)

    def test_multiplicativity_of_lambda(self, gl2_family):
        rep = gl2_family.members[0]
        series = expand_global(rep, None, 60, "lambda")
        for m, n in [(2, 3), (4, 9), (5, 6), (2, 25)]:
            lhs = series.value(ideal_from_int(Q, m * n))
            rhs = series.value(ideal_from_int(Q, m)) * series.value(ideal_from_int(Q, n))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("kind", ["lambda", "mu", "biglambda", "logl"])
    def test_gl1_exact_matches_character_values(self, kind):
        # psi(n) times mu(n), Lambda(n) or Lambda(n)/log n, with mu and Lambda
        # read off each ideal's factorization rather than from the library
        bound = 200
        chi5, chi5b = primitive_characters(5)[1:3]
        pairs = [
            (character_representation(chi5), trivial_representation()),
            (character_representation(chi5), character_representation(chi5b)),
            (character_representation(primitive_characters(4)[0]),
             character_representation(primitive_characters(8)[1])),
        ]
        ideals = enumerate_ideals(Q, bound)
        ns = np.array([ideal.norm for ideal in ideals])
        for a, b in pairs:
            psi = product_primitive_character(a.character, b.character)
            series = expand_global(a, b, bound, kind, "gl1_exact")
            for ideal, value in zip(ideals, psi.values(ns)):
                exponents = [e for _, e in ideal.factors]
                p = ideal.factors[0][0][0] if len(exponents) == 1 else None
                if kind == "lambda":
                    want = value
                elif kind == "mu":
                    want = value * (-1) ** len(exponents) if set(exponents) <= {1} else 0j
                elif kind == "biglambda":
                    want = value * math.log(p) if p else 0j
                else:
                    want = value * math.log(p) / math.log(ideal.norm) if p else 0j
                assert series.value(ideal) == pytest.approx(want, abs=1e-13), (a.label, b.label, ideal)


class TestNewtonConsistency:
    def test_power_sums_vs_newton_identities(self, gl2_family):
        # Lambda(p^l)/log Np equals the l-th power sum; Newton's identities
        # rebuild power sums from the h-values of the product multiset.
        a, b = gl2_family.members[0], gl2_family.members[1]
        p = prime_ideal(Q, (7, 0))
        al, be = a.local_at(p).alphas, b.local_at(p).alphas
        prod = [x * np.conj(y) for x in al for y in be]
        hs = [complex(sum(np.prod(c) for c in _multisets(prod, k))) for k in range(7)]
        ps = []
        for k in range(1, 7):
            acc = k * hs[k]
            for i in range(1, k):
                acc -= ps[i - 1] * hs[k - i]
            ps.append(acc)
        big = expand_global(a, b, 7**6, "biglambda")
        for ell in range(1, 6):
            got = big.value(ideal_from_int(Q, 7**ell))
            assert got == pytest.approx(ps[ell - 1] * math.log(7), rel=1e-10, abs=1e-10)


def _multisets(items, k):
    import itertools

    return itertools.combinations_with_replacement(items, k)


class TestConvolution:
    def test_lambda_star_mu_is_unit(self, trivial_rep, gl2_family):
        for rep in [trivial_rep, gl2_family.members[0]]:
            lam = expand_global(rep, None, 300, "lambda")
            mu = expand_global(rep, None, 300, "mu")
            conv = dirichlet_convolve(lam, mu, 300)
            for ideal, val in conv.values.items():
                want = 1.0 if ideal.is_unit else 0.0
                assert abs(val - want) < 1e-11

    def test_biglambda_star_lambda(self, trivial_rep):
        lam = expand_global(trivial_rep, trivial_rep, 200, "lambda")
        big = expand_global(trivial_rep, trivial_rep, 200, "biglambda")
        conv = dirichlet_convolve(big, lam, 200)
        for ideal in enumerate_ideals(Q, 200):
            if ideal.is_unit:
                continue
            want = lam.value(ideal) * math.log(ideal.norm)
            assert conv.value(ideal) == pytest.approx(want, abs=1e-11)

    def test_chebyshev_identity(self, trivial_rep):
        big = expand_global(trivial_rep, trivial_rep, 100, "biglambda")
        for n in (2, 12, 60, 97):
            total = sum(
                big.value(d) for d in _divisor_ideals(n)
            )
            assert total == pytest.approx(math.log(n), abs=1e-12)

    def test_field_mismatch_rejected(self, trivial_rep):
        lam = expand_global(trivial_rep, None, 20, "lambda")
        other = unit_indicator_series(NumberFieldSpec.quadratic(-1), 20)
        with pytest.raises(UsageError):
            dirichlet_convolve(lam, other, 20)


def _divisor_ideals(n):
    from lfunclab.ideals import divisors

    return divisors(ideal_from_int(Q, n))


class TestMertens:
    def test_harmonic_ten(self, trivial_rep):
        assert mertens_sum(trivial_rep, 10) == pytest.approx(
            sum(1.0 / k for k in range(1, 11)), abs=1e-13
        )

    def test_at_least_one(self, gl2_family):
        for rep in gl2_family.members:
            assert mertens_sum(rep, 50) >= 1.0 - 1e-12

    def test_character_matches_log_fit(self):
        rep = character_representation(primitive_characters(3)[0])
        value = mertens_sum(rep, 1000)
        fit = math.log(1000) + 0.5772156649
        assert abs(value - fit) / fit < 0.15

    def test_diagonal_nonnegativity_sweep(self, gl2_family, small_char_family):
        for rep in list(gl2_family.members[:2]) + list(small_char_family.members[:3]):
            series = expand_global(rep, rep, 500, "lambda")
            low = min(v.real for v in series.values.values())
            assert low > -1e-12
            assert max(abs(v.imag) for v in series.values.values()) < 1e-10


class TestRamifiedModel:
    """gl1_exact is kept only where every pair involved is two character members."""

    def test_pair_model_truth_table(self):
        reps = {
            "chi5": character_representation(primitive_characters(5)[1]),
            "trivial_q": trivial_representation(),
            "trivial_gauss": trivial_representation(NumberFieldSpec.quadratic(-1)),
            "gl2": synthetic_family(2, 1, seed=17).members[0],
        }
        characters = {"chi5", "trivial_q"}  # degree 1 with character data
        for a in reps:
            for b in reps:
                assert pair_model(reps[a], reps[b], "product") == "product"
                want = "gl1_exact" if {a, b} <= characters else "product"
                assert pair_model(reps[a], reps[b], "gl1_exact") == want, (a, b)

    def test_mixed_family_uses_product(self, small_char_family, gl2_family):
        members = list(small_char_family.members) + [gl2_family.members[0]]
        mixed = make_family(members, label="mixed")
        assert default_model(small_char_family) == "gl1_exact"
        assert default_model(mixed) == "product"
        table = PairCoefficientTable(mixed, "lambda")
        assert table.model == "product"
        # the product model also holds for the character pairs of a mixed family
        series = expand_global(mixed.members[1], mixed.members[2], 30, "lambda", "product")
        for ideal in enumerate_ideals(Q, 30):
            assert table.entry(1, 2, ideal) == series.value(ideal)

    @pytest.mark.parametrize("kind", ["lambda", "mu", "logl"])
    def test_gl2_pi0_column_uses_product(self, small_char_family, gl2_family, kind):
        fam, pi0 = small_char_family, gl2_family.members[0]
        bound, trials, seed = 40, 30, 5
        rows, ideals, weights = family_coefficient_rows(fam, bound, pi0, kind)
        diag = expand_global(pi0, pi0, bound, "lambda", "product")
        dual = contragredient(pi0)
        columns = [expand_global(m, dual, bound, kind, "product") for m in fam.members]
        assert np.array_equal(weights, [diag.value(i).real for i in ideals])
        for row, series in zip(rows, columns):
            assert np.array_equal(row, [series.value(i) for i in ideals])
        ws = weight_battery(len(fam.members), trials, seed)
        for n in (2, 3, 6, 12, 25):
            ideal = ideal_from_int(Q, n)
            res = bilinear_inequality_check(kind, fam, pi0, ideal, trials=trials, seed=seed)
            cover = coefficient_matrix(fam, ideal, "lambda").entries
            vec = np.array([series.value(ideal) for series in columns])
            quad = np.einsum("ti,ij,tj->t", ws, cover, ws.conj()).real
            margins = diag.value(ideal).real * quad - np.abs(ws @ vec) ** 2
            assert res.worst_margin == pytest.approx(margins.min(), rel=1e-12, abs=1e-12)
