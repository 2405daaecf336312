import itertools
import math
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfunclab.characters import primitive_characters
from lfunclab.coeffs import (
    SERIES_KINDS,
    CoefficientSeries,
    _PrimePowerArrays,
    default_model,
    dirichlet_convolve,
    expand_global,
    family_arrays,
    ideal_list,
    mertens_sum,
    partitions_of,
    rankin_selberg_local,
)
from lfunclab.covers import (
    PairCoefficientTable,
    bilinear_inequality_check,
    coefficient_matrix,
    weight_battery,
)
from lfunclab import coeffs
from lfunclab.cli import main
from lfunclab.errors import ResourceLimitError, UsageError
from lfunclab.idealtable import IdealTable, _prime_powers
from lfunclab.ideals import (
    NumberFieldSpec,
    enumerate_ideals,
    ideal_from_int,
    prime_ideal,
    split_prime,
    unit_ideal,
)
from lfunclab.localdata import (
    ArchimedeanParameters,
    ArchPlace,
    LocalParameters,
    Representation,
    character_representation,
    contragredient,
    dirichlet_family_by_modulus,
    ingest_hecke_eigenvalues,
    make_family,
    synthetic_family,
    theta_bound,
    trivial_representation,
)

from scalar_oracle import (
    PRODUCT_TOL,
    Column,
    assert_rows_match,
    columns,
    deviation,
    divides,
    local_lambda,
    product_character,
    scalar_coefficient,
    min_prime_norm,
    scalar_row,
    table_of,
    walk_ideals,
)

Q = NumberFieldSpec.rationals()
P2 = prime_ideal(Q, (2, 0))


def prime_powers(field, bound: int) -> list:
    """The prime-power ideals of norm <= bound, in (norm, factors) order."""
    return IdealTable.prime_powers(field, bound).ideals()


def all_pairs(n: int) -> np.ndarray:
    """The (2, n * n) sides of every ordered pair (i, j) of n members, i major."""
    return np.indices((n, n)).reshape(2, -1)


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
        for ideal, val in logl.items():
            assert val == pytest.approx(big.value(ideal) / math.log(ideal.norm), abs=1e-13)

    def test_multiplicativity_of_lambda(self, gl2_family):
        rep = gl2_family.members[0]
        series = expand_global(rep, trivial_representation(), 60, "lambda")
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
            psi = product_character(Column(a, b, kind, "gl1_exact"))
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
    """rows, the one product of local values, against the scalar product: bit
    for bit, product-model lambda and mu within PRODUCT_TOL."""

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
        members = fam.members + (trivial_representation(fam.field),)
        size = len(fam.members)
        # one table per model: the members' pairs, and each member against the trivial member
        tables = [
            _PrimePowerArrays(members, all_pairs(size), kind, model),
            _PrimePowerArrays(members, [np.arange(size), np.full(size, size)], kind, "product"),
        ]
        ideals = list(enumerate_ideals(fam.field, bound))
        mix = [ideals[k] for k in np.random.default_rng(11).permutation(len(ideals))]
        mix += mix[:5]  # repeats read the same table rows
        # two calls: the second reads prime powers the first put in the table
        halves = table_of(fam.field, mix[:40]), table_of(fam.field, mix[40:])
        got = np.concatenate(
            [np.concatenate([arrays.rows(half) for half in halves], axis=1) for arrays in tables]
        )
        cols = [col for arrays in tables for col in columns(arrays)]
        want = np.array([scalar_row(col, mix) for col in cols], dtype=np.complex128)
        assert_rows_match(got, want, cols)
        column = np.ascontiguousarray(got[:, 7])
        at = np.concatenate([arrays.at(mix[7]) for arrays in tables])
        assert np.array_equal(at.view(np.uint64), column.view(np.uint64))
        assert not np.signbit(got[got == 0].view(np.float64)).any()  # exact zeros are 0j
        assert any(ideal.is_unit for ideal in mix)
        assert max(len(ideal.factors) for ideal in mix) >= 3
        # zeros: mu past the degree, characters at ramified primes
        assert (got == 0).any() or (kind, model) == ("lambda", "product")
        if kind in ("biglambda", "logl"):
            off = [j for j, ideal in enumerate(mix) if len(ideal.factors) != 1]
            assert off and not got[:, off].any()

    def test_signed_zeros_match_the_scalar_product(self):
        # (-1+0j)(-1+0j) is 1-0j, and a trailing identity factor would make it 1+0j:
        # pair mu of a unitary member with itself is -1+0j at every prime, and a
        # degree-1 member's lambda against the trivial member at alpha = -1, 1j, -1
        # carries signed zeros
        local = {3: complex(-1.0, 0.0), 5: 1j, 7: complex(-1.0, 0.0)}
        member = Representation(
            1, Q, unit_ideal(Q), ArchimedeanParameters((ArchPlace(1, (0j,)),)),
            lambda prime: (local.get(prime.norm, 1 + 0j),), "synthetic",
        )
        mix = [ideal_from_int(Q, n) for n in (21, 2, 105, 3, 15, 1, 35, 210, 9, 7)]
        for kind, partner in (("lambda", trivial_representation()), ("mu", member)):
            got = _PrimePowerArrays([member, partner], [[0], [1]], kind, "product").rows(table_of(Q, mix))[0]
            col = Column(member, partner, kind, "product")
            want = np.array([scalar_coefficient(col, i) for i in mix])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), kind
            assert np.signbit(want.imag[want.imag == 0]).any(), kind

    def test_empty_and_unit_only(self):
        fam = dirichlet_family_by_modulus(5)
        size = len(fam.members)
        members = fam.members + (trivial_representation(),)
        arrays = _PrimePowerArrays(members, [np.arange(size), np.full(size, size)], "lambda", "product")
        assert arrays.rows(table_of(Q, [])).shape == (size, 0)
        assert np.array_equal(arrays.rows(table_of(Q, [unit_ideal(Q)] * 2)), np.ones((size, 2)))


class TestTableCeilings:
    """A family table, its growth and rows' output are refused past the
    ceiling before anything is built, filled or allocated."""

    def test_pair_table_before_any_engine(self, monkeypatch):
        fam = dirichlet_family_by_modulus(8)
        size = len(fam.members)
        monkeypatch.setattr(coeffs, "TABLE_BYTES_CEILING", 16 * coeffs.TABLE_ROWS * size * (size + 1) // 2 - 1)
        monkeypatch.setattr(coeffs._PrimePowerArrays, "__init__", None)
        with pytest.raises(ResourceLimitError, match="pair table"):
            PairCoefficientTable(fam, "lambda")

    def test_rows_before_any_row_is_filled(self, monkeypatch):
        arrays = _PrimePowerArrays([trivial_representation()], [[0], [0]], "lambda", "product")
        ideals = ideal_list(Q, 100)
        monkeypatch.setattr(coeffs, "TABLE_BYTES_CEILING", 16 * len(ideals) - 1)
        monkeypatch.setattr(arrays, "_fill", None)
        with pytest.raises(ResourceLimitError, match="rows"):
            arrays.rows(ideals)

    def test_table_growth_before_allocating(self, monkeypatch):
        arrays = _PrimePowerArrays([trivial_representation()], [[0], [0]], "lambda", "product")
        # 50 prime powers size the table to 52 rows; 100 need 102: the table doubles to 104
        arrays.rows(table_of(Q, prime_powers(Q, 1000)[:50]))
        assert len(arrays._table) == 52
        ideals = table_of(Q, prime_powers(Q, 1000)[:100])
        monkeypatch.setattr(coeffs, "TABLE_BYTES_CEILING", 16 * 103)
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert math.prod(np.atleast_1d(shape)) <= 103, "allocated past the ceiling"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        with pytest.raises(ResourceLimitError, match="104 x 1"):
            arrays.rows(ideals)
        assert len(arrays._table) == 52


TABLE_FIELDS = {"Q": Q, "quadratic(-1)": NumberFieldSpec.quadratic(-1), "quadratic(5)": NumberFieldSpec.quadratic(5)}
# (field, members, ramified model): characters exist over Q only
TABLE_ROW_CASES = {
    "gl1_exact-Q": ("Q", lambda: dirichlet_family_by_modulus(8).members, "gl1_exact"),
    "product-Q": ("Q", lambda: synthetic_family(3, 2, seed=5).members, "product"),
    "product-quadratic(-1)": (
        "quadratic(-1)", lambda: synthetic_family(2, 2, seed=3, field=TABLE_FIELDS["quadratic(-1)"]).members, "product",
    ),
    "product-quadratic(5)": (
        "quadratic(5)", lambda: synthetic_family(2, 2, seed=4, field=TABLE_FIELDS["quadratic(5)"]).members, "product",
    ),
}


class TestIdealTableAgainstTheWalk:
    """IdealTable against the recursive walk it replaced (scalar_oracle.walk_ideals):
    the same ideals in the same order, and rows over a table equal, word for
    word, rows over the matching IdealIndex list."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(field=st.sampled_from(sorted(TABLE_FIELDS)), bound=st.integers(1, 900), pick=st.randoms())
    @example(field="quadratic(-1)", bound=625, pick=Random(0))  # 5^4: five ideals of one norm
    def test_same_ideals_in_the_same_order(self, field, bound, pick):
        fld = TABLE_FIELDS[field]
        table = IdealTable(fld, bound)
        want = walk_ideals(fld, bound)
        assert table.ideals() == want
        assert table.norm.tolist() == [ideal.norm for ideal in want]
        assert table.depth.tolist() == [len(ideal.factors) for ideal in want]
        assert IdealTable.prime_powers(fld, bound).ideals() == [i for i in want if len(i.factors) == 1]
        # the masks against one ideal's factorization, and selections of the table
        assert table.min_prime_norm().tolist() == [min_prime_norm(ideal) or 0 for ideal in want]
        d = pick.choice(want)
        assert table.divisible_by(d).tolist() == [divides(d, ideal) for ideal in want]
        chosen = [pick.randrange(len(want)) for _ in range(20)]
        assert table[np.array(chosen)].ideals() == [want[k] for k in chosen]

    @pytest.mark.parametrize("case", sorted(TABLE_ROW_CASES))
    @pytest.mark.parametrize("kind", SERIES_KINDS)
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(bound=st.integers(1, 400), cut=st.integers(0, 400))
    def test_rows_over_a_table_are_rows_over_its_ideals(self, case, kind, bound, cut):
        field, make, model = TABLE_ROW_CASES[case]
        fld = TABLE_FIELDS[field]
        members = list(make()) + [trivial_representation(fld)]
        sides = all_pairs(len(members))
        table = IdealTable(fld, bound)
        listed = walk_ideals(fld, bound)
        got = _PrimePowerArrays(members, sides, kind, model).rows(table)
        # each IdealIndex read on its own, its factor rows taken off its factorization
        arrays = _PrimePowerArrays(members, sides, kind, model)
        want = np.stack([arrays.at(ideal) for ideal in listed], axis=1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # two slices of the table, filled by the first
        arrays = _PrimePowerArrays(members, sides, kind, model)
        halves = np.concatenate([arrays.rows(table[:cut]), arrays.rows(table[cut:])], axis=1)
        assert np.array_equal(halves.view(np.uint64), got.view(np.uint64))
        if kind in ("biglambda", "logl"):
            prime_powers = IdealTable.prime_powers(fld, bound)
            at = [k for k, ideal in enumerate(listed) if len(ideal.factors) == 1]
            alone = _PrimePowerArrays(members, sides, kind, model).rows(prime_powers)
            assert np.array_equal(alone.view(np.uint64), np.ascontiguousarray(got[:, at]).view(np.uint64))


# Q, and quadratic fields whose primes below 30 split, stay inert and ramify
ORDER_FIELDS = {"Q": Q} | {f"quadratic({d})": NumberFieldSpec.quadratic(d) for d in (-1, 5, -5, -2, 3)}


class TestPrimePowerOrder:
    """The field's prime powers have one order: those of a bound are a prefix
    of those of every larger bound, so that row 2 + k of a _PrimePowerArrays
    table is the field's k-th prime power whatever bound filled it."""

    def test_the_fields_hold_every_splitting(self):
        for name, fld in ORDER_FIELDS.items():
            kinds = {split_prime(fld, p).kind for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)}
            assert kinds == ({"rational"} if name == "Q" else {"split", "inert", "ramified"}), name

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(field=st.sampled_from(sorted(ORDER_FIELDS)), bounds=st.lists(st.integers(1, 5000), min_size=2, max_size=2))
    @example(field="quadratic(-1)", bounds=[624, 625])  # 5^4: the fourth powers of both primes above 5
    def test_powers_of_a_bound_are_a_prefix_of_a_larger_bound(self, field, bounds):
        small, large = sorted(bounds)
        fld = ORDER_FIELDS[field]
        below, above = _prime_powers(fld, small), _prime_powers(fld, large)
        size = len(below.norm)
        for name in ("prime", "slot", "exponent", "prime_norm", "norm"):
            assert getattr(above, name)[:size].tolist() == getattr(below, name).tolist(), name
        assert (above.norm[size:] > small).all()

    @pytest.mark.parametrize("case", sorted(TABLE_ROW_CASES))
    @pytest.mark.parametrize("kind", SERIES_KINDS)
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(bounds=st.lists(st.integers(1, 300), min_size=2, max_size=2))
    @example(bounds=[20, 300])  # 2^1..2^4 in the first fill, 2^5..2^8 in the second
    def test_a_table_filled_through_a_smaller_bound(self, case, kind, bounds):
        """Filled through B and read at B' >= B, through rows and through at, a
        table matches a fresh table read at B', bit for bit."""
        small, large = sorted(bounds)
        field, make, model = TABLE_ROW_CASES[case]
        fld = TABLE_FIELDS[field]
        members = list(make()) + [trivial_representation(fld)]
        sides = all_pairs(len(members))
        table = IdealTable(fld, large)
        fresh = _PrimePowerArrays(members, sides, kind, model).rows(table)
        grown, read, back = (_PrimePowerArrays(members, sides, kind, model) for _ in range(3))
        for arrays in (grown, read, back):
            arrays.fill(IdealTable(fld, small))
        assert np.array_equal(grown.rows(table).view(np.uint64), fresh.view(np.uint64))
        # in norm order, each ideal past the bound fills a little further; in
        # reverse, the first fills past all the others at once
        listed = table.ideals()
        at = np.stack([read.at(ideal) for ideal in listed], axis=1)
        assert np.array_equal(at.view(np.uint64), fresh.view(np.uint64))
        at = np.stack([back.at(ideal) for ideal in reversed(listed)][::-1], axis=1)
        assert np.array_equal(at.view(np.uint64), fresh.view(np.uint64))


def traced_peak(fn) -> int:
    """The peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeriesMemory:
    """Tables, series and fills hold arrays, not per-ideal objects, and a fill
    works in bounded pieces: each peak is checked per ideal or per budget.
    IdealIndex objects take about 400 bytes each, and one unbounded fill
    block of 10,000 prime powers about 2.9 MB."""

    def test_biglambda_series_to_100000(self):
        trivial = trivial_representation()
        series = []
        peak = traced_peak(lambda: series.append(expand_global(trivial, trivial, 100_000, "biglambda", "gl1_exact")))
        assert len(series[0].values) == 9_700  # the prime powers up to 100,000
        assert peak <= 250 * len(series[0].values)

    def test_ideal_list_to_20000(self):
        coeffs._cached_ideal_list.cache_clear()
        peak = traced_peak(lambda: ideal_list(Q, 20_000))
        assert peak <= 140 * 20_000

    def test_one_fill_of_10000_prime_powers(self, monkeypatch):
        monkeypatch.setattr(coeffs, "FILL_VALUES", 256)
        arrays = _PrimePowerArrays([trivial_representation()], [[0], [0]], "lambda", "gl1_exact")
        last = IdealTable.prime_powers(Q, 200_000).norm[9_999]
        powers = IdealTable.prime_powers(Q, int(last)).powers  # the first 10,000
        assert len(powers.norm) == 10_000
        peak = traced_peak(lambda: arrays._fill(powers, 0))
        # the table's rows, 40 bytes of bookkeeping per prime power, and one piece
        assert peak <= arrays._table.nbytes + 40 * len(powers.norm) + 250 * 256


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

    IDEALS = prime_powers(Q, 300) + [ideal_from_int(Q, n) for n in (1, 6, 24, 45, 200, 225)]

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
        arrays = _PrimePowerArrays(members, all_pairs(len(members)), kind, "gl1_exact")
        ideals = list(self.IDEALS)
        order.shuffle(ideals)
        # two calls: the second fills the prime powers the first left out
        halves = table_of(Q, ideals[:split]), table_of(Q, ideals[split:])
        got = np.concatenate([arrays.rows(half) for half in halves], axis=1)
        want = np.array([scalar_row(col, ideals) for col in columns(arrays)], dtype=np.complex128)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# a product-model member: (source, size, index, dual).  synthetic: degree size
# (index odd plants N(p)^theta magnitudes at 3 when size >= 2); character: a
# primitive character mod size, zero at its ramified primes; hecke: the Delta
# eigenvalues at level size, with a zero parameter at each p | size
product_member = st.one_of(
    st.tuples(st.just("synthetic"), st.integers(1, 3), st.integers(0, 10**6), st.booleans()),
    st.tuples(st.just("character"), st.sampled_from(GL1_MODULI), st.integers(0, 10**6), st.booleans()),
    st.tuples(st.just("hecke"), st.sampled_from((1, 2, 6, 35)), st.just(0), st.booleans()),
)


def build_product_member(field, draw, delta_csv):
    source, size, index, dual = draw
    if source == "synthetic":
        model = ("planted", 3, 0.2) if size >= 2 and index % 2 else "grc"
        rep = synthetic_family(size, 1, seed=index, model=model, field=field).members[0]
    elif not field.is_rationals:
        rep = trivial_representation(field)
    elif source == "character":
        group = primitive_characters(size)
        rep = character_representation(group[index % len(group)])
    else:
        rep = ingest_hecke_eigenvalues(delta_csv, 12, size)
    return contragredient(rep) if dual else rep


class TestProductRows:
    """Product-model rows from each member's power sums against the scalar rule
    of scalar_oracle, one engine and prime power at a time: biglambda and logl
    bit for bit, lambda and mu within PRODUCT_TOL."""

    FIELDS = {"Q": Q, "quadratic(-1)": NumberFieldSpec.quadratic(-1)}

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("kind", SERIES_KINDS)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(draws=st.lists(product_member, min_size=1, max_size=3), order=st.randoms(), split=st.integers(0, 60))
    @example(  # GL1 x GL3, max_parts below the degree; ramified zeros at 2, 3, 5 and 7
        draws=[("synthetic", 3, 1, False), ("character", 12, 1, True), ("hecke", 35, 0, False),
               ("synthetic", 1, 4, False)],
        order=Random(0),
        split=20,
    )
    def test_rows_match_the_scalar_rule(self, field, kind, draws, order, split, delta_csv):
        fld = self.FIELDS[field]
        members = [build_product_member(fld, draw, delta_csv) for draw in draws]
        ideals = list(enumerate_ideals(fld, 120))
        order.shuffle(ideals)
        # both orientations of every pair, each member against itself and against the trivial member
        size = len(members)
        sides = np.concatenate([all_pairs(size), [np.arange(size), np.full(size, size)]], axis=1)
        tables = [_PrimePowerArrays(members + [trivial_representation(fld)], sides, kind, "product")]
        # the pi0 columns and diagonals of the family against its first member and the trivial member
        family = make_family(members)
        tables += family_arrays(family, kind, members[0]) + family_arrays(family, kind, None)
        for arrays in tables:
            # two calls: the second fills the prime powers the first left out
            halves = table_of(fld, ideals[:split]), table_of(fld, ideals[split:])
            got = np.concatenate([arrays.rows(half) for half in halves], axis=1)
            want = np.array([scalar_row(col, ideals) for col in columns(arrays)], dtype=np.complex128)
            assert_rows_match(got, want, columns(arrays))


# a validated member: (degree, planted prime, seed, dual); degree >= 2 is
# planted at N(p)^theta_bound(n) at the prime above p, the validation cap
valid_member = st.tuples(st.integers(1, 6), st.sampled_from((2, 3, 5)), st.integers(0, 10**6), st.booleans())


class TestPowerSumKernel:
    """Product-model lambda and mu come from the members' power sums alone."""

    SPEC = "[family]\nfield = quadratic(-1)\nkind = synthetic\nn = 3\ncount = 4\nseed = 5\n"

    @pytest.mark.parametrize(
        "command", [["psd", "--nmax", "60"], ["covers", "--kind", "mu", "--nmax", "30", "--trials", "5"]]
    )
    def test_runs_take_no_determinant_or_convolution(self, command, tmp_path, monkeypatch):
        spec = tmp_path / "family.spec"
        spec.write_text(self.SPEC)
        calls = []
        monkeypatch.setattr(np.linalg, "det", lambda *args: calls.append("det"))
        monkeypatch.setattr(np, "convolve", lambda *args: calls.append("convolve"))
        argv = command + ["--family", str(spec), "--out", str(tmp_path / "report.jsonl"), "--format", "jsonl"]
        assert main(argv) == 0
        assert calls == [] and len((tmp_path / "report.jsonl").read_text().splitlines()) > 10

    def test_mu_zeros_where_the_oracle_has_them(self, delta_csv):
        # Delta at level 35 has one zero parameter at 5 and at 7, so its pair
        # polynomial there has degree n_a * n_b with n counting nonzero
        # parameters: 3 against a GL3 member, 1 against itself, below the
        # products of the degrees (6 and 4)
        delta = ingest_hecke_eigenvalues(delta_csv, 12, 35)
        gl3 = synthetic_family(3, 1, seed=2).members[0]
        arrays = _PrimePowerArrays([delta, gl3], [[0, 1, 0], [1, 0, 0]], "mu", "product")
        ideals = list(enumerate_ideals(Q, 700))
        got = arrays.rows(ideal_list(Q, 700))
        want = np.array([scalar_row(col, ideals) for col in columns(arrays)])
        assert np.array_equal(got == 0, want == 0)
        # past n_a * n_b, within the degree product: 5^4 for both pairs, and
        # 7^3 and 2 * 7^3 for Delta against itself
        at = {ideal.norm: k for k, ideal in enumerate(ideals)}
        assert (want[:, at[625]] == 0).all() and (want[2, [at[343], at[686]]] == 0).all()
        assert deviation(got, want) <= PRODUCT_TOL

    @pytest.mark.parametrize("field", sorted(TestProductRows.FIELDS))
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(draws=st.lists(valid_member, min_size=1, max_size=2))
    @example(draws=[(6, 2, 0, False), (6, 3, 1, True)])
    def test_planted_members_against_the_oracle(self, field, draws):
        fld = TestProductRows.FIELDS[field]
        members = []
        for n, p, seed, dual in draws:
            model = ("planted", p, theta_bound(n)) if n >= 2 else "grc"
            rep = synthetic_family(n, 1, seed=seed, model=model, field=fld).members[0]
            members.append(contragredient(rep) if dual else rep)
        table = IdealTable.prime_powers(fld, 4096)
        ideals = table.ideals()
        for kind in ("lambda", "mu"):
            arrays = _PrimePowerArrays(members, all_pairs(len(members)), kind, "product")
            got = arrays.rows(table)
            want = np.array([scalar_row(col, ideals) for col in columns(arrays)])
            assert_rows_match(got, want, columns(arrays))

    def test_partition_cap_enforced(self):
        with pytest.raises(UsageError, match="cap"):
            partitions_of(65, 4)


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
            lam = expand_global(rep, trivial_rep, 300, "lambda")
            mu = expand_global(rep, trivial_rep, 300, "mu")
            conv = dirichlet_convolve(lam, mu, 300)
            for ideal, val in conv.items():
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

    def test_planted_cancellation_is_exactly_rounded(self):
        # the terms at (6) arrive as 1e16, 1, -1e16, 1; compensated summation
        # loses one of the ones, the exactly rounded sum keeps both
        def series(values):
            ideals = table_of(Q, [ideal_from_int(Q, n) for n in sorted(values)])
            terms = np.array([complex(values[n]) for n in sorted(values)])
            return CoefficientSeries(Q, "planted", 6, ideals, terms)

        a = series({1: 1, 2: 1, 3: 1, 6: 1})
        b = series({1: 1, 2: -1e16, 3: 1, 6: 1e16})
        conv = dirichlet_convolve(a, b, 6)
        assert conv.value(ideal_from_int(Q, 6)) == 2 + 0j

    def test_field_mismatch_rejected(self, trivial_rep):
        lam = expand_global(trivial_rep, trivial_rep, 20, "lambda")
        gauss = NumberFieldSpec.quadratic(-1)
        other = CoefficientSeries(gauss, "unit", 20, table_of(gauss, [unit_ideal(gauss)]), np.ones(1, dtype=complex))
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
            assert series.values.real.min() > -1e-12
            assert np.abs(series.values.imag).max() < 1e-10


class TestRamifiedModel:
    """gl1_exact is kept only where every member of a table is a character member."""

    def test_pair_model_truth_table(self):
        reps = {
            "chi5": character_representation(primitive_characters(5)[1]),
            "trivial_q": trivial_representation(),
            "trivial_gauss": trivial_representation(NumberFieldSpec.quadratic(-1)),
            "gl2": synthetic_family(2, 1, seed=17).members[0],
        }
        characters = {"chi5", "trivial_q"}  # degree 1 with character data
        for size in (1, 2, 3):
            for names in itertools.product(reps, repeat=size):
                want = "gl1_exact" if set(names) <= characters else "product"
                assert default_model([reps[name] for name in names]) == want, names

    def test_mixed_family_uses_product(self, small_char_family, gl2_family):
        members = list(small_char_family.members) + [gl2_family.members[0]]
        mixed = make_family(members, label="mixed")
        assert default_model(small_char_family.members) == "gl1_exact"
        assert default_model(mixed.members) == "product"
        table = PairCoefficientTable(mixed, "lambda")
        assert table.model == "product"
        # the product model also holds for the character pairs of a mixed family
        col = Column(mixed.members[1], mixed.members[2], "lambda", "product")
        for ideal in enumerate_ideals(Q, 30):
            assert table.entry(1, 2, ideal) == scalar_coefficient(col, ideal)

    REFUSALS = {
        "unknown-kind": ("zeta", "product", False, "unknown series kind 'zeta'"),
        "unknown-model": ("lambda", "exact", False, "unknown ramified model 'exact'"),
        "gl1_exact-without-characters": ("lambda", "gl1_exact", True, "character data"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_table_refusals(self, case, monkeypatch):
        # once per table, before the table or its column source is built; the
        # gl1_exact refusal holds although the one column pairs two characters
        kind, model, with_gl2, match = self.REFUSALS[case]
        members = [trivial_representation(), character_representation(primitive_characters(5)[1])]
        if with_gl2:
            members.append(synthetic_family(2, 1, seed=17).members[0])
        monkeypatch.setattr(coeffs, "check_table_bytes", None)
        with pytest.raises(UsageError, match=match):
            _PrimePowerArrays(members, [[0], [1]], kind, model)

    @pytest.mark.parametrize("kind", ["lambda", "mu", "logl"])
    def test_gl2_pi0_column_uses_product(self, small_char_family, gl2_family, kind):
        fam, pi0 = small_char_family, gl2_family.members[0]
        bound, trials, seed = 40, 30, 5
        table = ideal_list(fam.field, bound)
        ideals = table.ideals()
        column, diagonal = family_arrays(fam, kind, pi0)
        rows, weights = column.rows(table), diagonal.rows(table)[0].real
        diag = Column(pi0, pi0, "lambda", "product")
        dual = contragredient(pi0)
        cols = [Column(m, dual, kind, "product") for m in fam.members]
        assert deviation(weights, [scalar_coefficient(diag, i).real for i in ideals]) <= PRODUCT_TOL
        assert_rows_match(rows, np.array([scalar_row(col, ideals) for col in cols]), cols)
        ws = weight_battery(len(fam.members), trials, seed)
        for n in (2, 3, 6, 12, 25):
            ideal = ideal_from_int(Q, n)
            res = bilinear_inequality_check(kind, fam, pi0, ideal, trials=trials, seed=seed)
            cover = coefficient_matrix(fam, ideal, "lambda").entries
            vec = np.array([scalar_coefficient(col, ideal) for col in cols])
            quad = np.einsum("ti,ij,tj->t", ws, cover, ws.conj()).real
            margins = scalar_coefficient(diag, ideal).real * quad - np.abs(ws @ vec) ** 2
            assert res.worst_margin == pytest.approx(margins.min(), rel=1e-12, abs=1e-12)
