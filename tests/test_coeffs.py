import math
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfunclab.characters import primitive_characters
from lfunclab.coeffs import (
    SERIES_KINDS,
    CoefficientSeries,
    _LocalEngine,
    _PrimePowerArrays,
    default_model,
    dirichlet_convolve,
    expand_global,
    hom_sym_values,
    local_lambda,
    mertens_sum,
    pair_model,
    partitions_of,
    rankin_selberg_local,
    schur_from_h,
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
    divides,
    enumerate_ideals,
    ideal_from_int,
    prime_ideal,
    prime_powers_up_to,
    unit_ideal,
)
from lfunclab.localdata import (
    LocalParameters,
    character_representation,
    contragredient,
    dirichlet_family_by_modulus,
    make_family,
    synthetic_family,
    trivial_representation,
)
from lfunclab.sieve import family_coefficient_rows

from scalar_oracle import product_character, scalar_coefficient, scalar_row

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
            psi = product_character(_LocalEngine(a, b, kind, "gl1_exact"))
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


class TestPrimePowerArraysRows:
    """rows, the one product of local values, against the scalar product."""

    # (family, ramified model, norm bound): gl1_exact characters vanish at
    # ramified primes; GL3 over Q(i) exercises split primes and the product model
    CASES = {
        "gl1_exact-Q": (lambda: dirichlet_family_by_modulus(8), "gl1_exact", 400),
        "product-quadratic(-1)": (
            lambda: synthetic_family(3, 3, seed=5, field=NumberFieldSpec.quadratic(-1)),
            "product",
            200,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", SERIES_KINDS)
    def test_unsorted_mix_bitwise(self, case, kind):
        make, model, bound = self.CASES[case]
        fam = make()
        members = fam.members
        engines = [
            _LocalEngine(a, b, kind, pair_model(a, b, model))
            for a in members
            for b in members
        ] + [_LocalEngine(m, None, kind, "product") for m in members]
        ideals = list(enumerate_ideals(fam.field, bound))
        mix = [ideals[k] for k in np.random.default_rng(11).permutation(len(ideals))]
        mix += mix[:5]  # repeats read the same table rows
        arrays = _PrimePowerArrays(engines, kind)
        # two calls: the second reads prime powers the first put in the table
        got = np.concatenate([arrays.rows(mix[:40]), arrays.rows(mix[40:])], axis=1)
        want = np.array([scalar_row(eng, mix) for eng in engines], dtype=np.complex128)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        column = np.ascontiguousarray(want[:, 7])
        assert np.array_equal(arrays.at(mix[7]).view(np.uint64), column.view(np.uint64))
        assert not np.signbit(got[got == 0].view(np.float64)).any()  # exact zeros are 0j
        assert any(ideal.is_unit for ideal in mix)
        assert max(len(ideal.factors) for ideal in mix) >= 3
        # zeros: mu past the degree, characters at ramified primes
        assert (got == 0).any() or (kind, model) == ("lambda", "product")
        if kind in ("biglambda", "logl"):
            off = [j for j, ideal in enumerate(mix) if len(ideal.factors) != 1]
            assert off and not got[:, off].any()

    def test_signed_zeros_match_the_scalar_product(self):
        # (-1+0j)(-1+0j) is 1-0j, and a trailing identity factor would make it 1+0j
        class Engine:
            kind, model = "lambda", "product"
            local = {3: complex(-1.0, 0.0), 5: 1j, 7: complex(-1.0, 0.0)}

            def _compute(self, pid, e):
                return self.local.get(pid[0], 1 + 0j) ** e

        engine = Engine()
        mix = [ideal_from_int(Q, n) for n in (21, 2, 105, 3, 15, 1, 35, 210, 9, 7)]
        got = _PrimePowerArrays([engine], "lambda").rows(mix)[0]
        want = np.array([scalar_coefficient(engine, i) for i in mix])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.signbit(want.imag[want.imag == 0]).any()

    def test_empty_and_unit_only(self):
        fam = dirichlet_family_by_modulus(5)
        engines = [_LocalEngine(m, None, "lambda", "product") for m in fam.members]
        arrays = _PrimePowerArrays(engines, "lambda")
        assert arrays.rows([]).shape == (len(engines), 0)
        assert np.array_equal(arrays.rows([unit_ideal(Q)] * 2), np.ones((len(engines), 2)))


# moduli <= 64 with primitive characters; 8, 16 and 32 have 2-parts with two
# generators, and 9, 25 and 27 are odd prime powers past the first
GL1_MODULI = tuple(q for q in range(1, 65) if primitive_characters(q))
GL1_SPECIAL = (8, 16, 32, 9, 25, 27)
gl1_member = st.tuples(
    st.sampled_from(GL1_SPECIAL + GL1_MODULI), st.integers(0, 10**6), st.booleans()
)


class TestGl1AngleRows:
    """gl1_exact rows from character angles against the product character that
    multiply and primitive_part build, evaluated prime by prime: bit for bit."""

    IDEALS = prime_powers_up_to(Q, 300) + [ideal_from_int(Q, n) for n in (1, 6, 24, 45, 200, 225)]

    @pytest.mark.parametrize("kind", SERIES_KINDS)
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(draws=st.lists(gl1_member, min_size=1, max_size=4), order=st.randoms(), split=st.integers(0, 80))
    @example(draws=[(q, 1, q % 2 == 1) for q in GL1_SPECIAL + (24, 40)], order=Random(0), split=10)
    def test_rows_match_the_product_character(self, kind, draws, order, split):
        members = [trivial_representation()]
        for q, j, dual in draws:
            group = primitive_characters(q)
            rep = character_representation(group[j % len(group)])
            members.append(contragredient(rep) if dual else rep)
        # both orientations of every pair, each member against itself and the trivial one
        engines = [_LocalEngine(a, b, kind, "gl1_exact") for a in members for b in members]
        ideals = list(self.IDEALS)
        order.shuffle(ideals)
        arrays = _PrimePowerArrays(engines, kind)
        # two calls: the second fills the prime powers the first left out
        got = np.concatenate([arrays.rows(ideals[:split]), arrays.rows(ideals[split:])], axis=1)
        want = np.array([scalar_row(engine, ideals) for engine in engines], dtype=np.complex128)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        gauss = NumberFieldSpec.quadratic(-1)
        other = CoefficientSeries(gauss, "unit", 20, {unit_ideal(gauss): 1 + 0j})
        with pytest.raises(UsageError):
            dirichlet_convolve(lam, other, 20)


def _divisor_ideals(n):
    ideal = ideal_from_int(Q, n)
    return [d for d in enumerate_ideals(Q, n) if divides(d, ideal)]


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
        engine = _LocalEngine(mixed.members[1], mixed.members[2], "lambda", "product")
        for ideal in enumerate_ideals(Q, 30):
            assert table.entry(1, 2, ideal) == scalar_coefficient(engine, ideal)

    @pytest.mark.parametrize("kind", ["lambda", "mu", "logl"])
    def test_gl2_pi0_column_uses_product(self, small_char_family, gl2_family, kind):
        fam, pi0 = small_char_family, gl2_family.members[0]
        bound, trials, seed = 40, 30, 5
        rows, ideals, weights = family_coefficient_rows(fam, bound, pi0, kind)
        diag = _LocalEngine(pi0, pi0, "lambda", "product")
        dual = contragredient(pi0)
        columns = [_LocalEngine(m, dual, kind, "product") for m in fam.members]
        assert np.array_equal(weights, [scalar_coefficient(diag, i).real for i in ideals])
        for row, engine in zip(rows, columns):
            assert np.array_equal(row, [scalar_coefficient(engine, i) for i in ideals])
        ws = weight_battery(len(fam.members), trials, seed)
        for n in (2, 3, 6, 12, 25):
            ideal = ideal_from_int(Q, n)
            res = bilinear_inequality_check(kind, fam, pi0, ideal, trials=trials, seed=seed)
            cover = coefficient_matrix(fam, ideal, "lambda").entries
            vec = np.array([scalar_coefficient(engine, ideal) for engine in columns])
            quad = np.einsum("ti,ij,tj->t", ws, cover, ws.conj()).real
            margins = scalar_coefficient(diag, ideal).real * quad - np.abs(ws @ vec) ** 2
            assert res.worst_margin == pytest.approx(margins.min(), rel=1e-12, abs=1e-12)
