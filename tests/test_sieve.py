import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lfunclab.coeffs import (
    SERIES_KINDS,
    default_model,
    expand_global,
    family_arrays,
    ideal_list,
)
from lfunclab import sieve
from lfunclab.errors import ResourceLimitError, UsageError
from lfunclab.ideals import (
    NumberFieldSpec,
    enumerate_ideals,
    gcd_lcm,
    ideal_from_int,
    prime_ideal,
    unit_ideal,
)
from lfunclab.localdata import (
    character_representation,
    contragredient,
    dirichlet_family_by_modulus,
    make_family,
    synthetic_family,
    trivial_representation,
)
from lfunclab.characters import primitive_characters
from lfunclab.sieve import (
    WeightVector,
    bound_table,
    bump_phi,
    diagonal_lower_bound_check,
    g_factor,
    mvt_mu,
    phi_hat,
    selberg_weights,
    sifted_sum_check,
    smooth_sum_residue,
)

from scalar_oracle import (
    PRODUCT_TOL,
    Column,
    KahanAccumulator,
    assert_rows_match,
    deviation,
    gram_constant,
    min_prime_norm,
    own_row,
    scalar_row,
)

Q = NumberFieldSpec.rationals()
PREFIX_TOL = 1e-13  # relative: bound_table's chunked Gram against the full-matrix oracle
AGGREGATION_TOL = 1e-15  # relative: the old Kahan and running-sum aggregation against fsum


def measured(family, n_bound: int, pi0=None, kind: str = "lambda") -> float:
    return bound_table(family, [n_bound], pi0=pi0, kind=kind)[0]["measured_C"]


def family_rows(family, n_bound: int) -> np.ndarray:
    return family_arrays(family, "lambda", None)[0].rows(ideal_list(family.field, n_bound))


class TestSieveConstant:
    def test_trivial_family_saturates(self, trivial_rep):
        fam = make_family([trivial_rep])
        assert measured(fam, 3) == pytest.approx(3.0, abs=1e-10)

    def test_single_row_is_column_norm(self):
        chi = primitive_characters(5)[1]
        fam = make_family([character_representation(chi)])
        n = 40
        a = family_rows(fam, n)
        assert measured(fam, n) == pytest.approx(float((np.abs(a) ** 2).sum()), rel=1e-12)

    def test_classical_bound_q10_n200(self):
        fam = dirichlet_family_by_modulus(10)
        assert measured(fam, 200) <= 200 + 10**2 - 1 + 1e-6

    def test_gram_duality_random_vectors(self):
        fam = dirichlet_family_by_modulus(8)
        n = 100
        a = family_rows(fam, n)
        gram = a @ a.conj().T
        c = measured(fam, n)
        rng = np.random.default_rng(31)
        sup = 0.0
        for _ in range(200):
            v = rng.standard_normal(len(fam.members)) + 1j * rng.standard_normal(len(fam.members))
            v /= np.linalg.norm(v)
            sup = max(sup, float(np.real(np.vdot(v, gram @ v))))
        assert sup <= c * (1 + 1e-12)
        # the largest singular value of A by SVD, independent of the library's eigvalsh
        top = np.linalg.norm(a, 2) ** 2
        assert abs(top - c) <= 1e-6 * c

    def test_weighted_columns_with_pi0(self, small_char_family):
        pi0 = small_char_family.members[1]
        assert measured(small_char_family, 50, pi0=pi0) > 0

    def test_empty_family_rejected(self):
        with pytest.raises(UsageError):
            from lfunclab.localdata import Family

            bound_table(Family(Q, (), 1.0, "empty"), [10])


class TestBoundTable:
    def test_columns_and_flags(self, small_char_family):
        rows = bound_table(small_char_family, [50, 100, 200])
        assert [r["N"] for r in rows] == [50, 100, 200]
        for row in rows:
            assert row["shape_only"] is True
            assert row["measured_C"] <= row["trivial_NS"] * (1 + 1e-9)
        # measured C is nondecreasing in N for nested column sets
        assert rows[0]["measured_C"] <= rows[1]["measured_C"] <= rows[2]["measured_C"]

    @pytest.mark.parametrize(
        "case", ["chars", "chars-pi0", "gl3-quadratic(-1)", "logl", "gl3-pi0-chunk-7"]
    )
    def test_prefix_columns_equal_per_n_matrices(self, case, small_char_family, monkeypatch):
        # one pass of chunk Grams gives each N's own full-matrix constant;
        # chunks of 7 put chunk boundaries inside the N segments and on their
        # edges, and a GL3 pi0 gives columns weights other than 0 and 1
        fam, pi0, kind = small_char_family, None, "lambda"
        if case == "chars-pi0":
            pi0 = character_representation(primitive_characters(5)[1])
        elif case == "gl3-quadratic(-1)":
            fam = synthetic_family(3, 4, seed=2, field=NumberFieldSpec.quadratic(-1))
        elif case == "logl":
            kind = "logl"
        elif case == "gl3-pi0-chunk-7":
            fam = synthetic_family(3, 4, seed=2, field=NumberFieldSpec.quadratic(-1))
            pi0 = synthetic_family(3, 1, seed=9, field=NumberFieldSpec.quadratic(-1)).members[0]
            monkeypatch.setattr(sieve, "GRAM_CHUNK", 7)
        n_list = [120, 30, 75, 120]
        rows = bound_table(fam, n_list, pi0=pi0, kind=kind)
        assert [row["N"] for row in rows] == n_list
        for n, row in zip(n_list, rows):
            want = gram_constant(fam, n, pi0, kind)
            assert abs(row["measured_C"] - want) <= PREFIX_TOL * abs(want)

    def test_peak_memory_below_one_row_matrix(self):
        # 168 members x 12,000 ideals x 16 bytes = 32.3 MB would be one |S| x N matrix
        fam = dirichlet_family_by_modulus(30)
        n = 12_000
        one_matrix = 16 * len(fam.members) * len(ideal_list(Q, n))
        tracemalloc.start()
        try:
            bound_table(fam, [n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_matrix

    def test_gram_ceiling_before_the_grc_scan(self, monkeypatch, refuse_large_arrays):
        # 9,000 members x 9,000 x 16 bytes = 1.3 GB of Gram, refused before the GRC scan
        fam = make_family([trivial_representation()] * 9000)
        monkeypatch.setattr(sieve, "family_grc_exponent", None)
        with pytest.raises(ResourceLimitError, match="the Gram matrix"):
            bound_table(fam, [2])

    def test_gl1_dual_shape_minimal_at_large_n(self, small_char_family):
        # at degree 1 and theta = 0 the dual shape wins once N >= Q^2
        rows = bound_table(small_char_family, [2000])
        row = rows[0]
        shapes = [row["dual_shape"], row["grc_shape"], row["ram_shape"], row["hybrid_shape"]]
        assert row["dual_shape"] == min(shapes)


class TestGFactor:
    def test_trivial_single_prime(self, trivial_rep):
        val, flags = g_factor(trivial_rep, prime_ideal(Q, (5, 0)))
        assert val == pytest.approx(0.2, abs=1e-14) and not flags

    def test_unit_ideal_empty_product(self, trivial_rep):
        val, _ = g_factor(trivial_rep, unit_ideal(Q))
        assert val == 1.0

    def test_synthetic_in_unit_interval(self):
        for seed in range(5):
            fam = synthetic_family(2, 1, seed=seed)
            for p in (2, 3, 5, 7):
                val, _ = g_factor(fam.members[0], prime_ideal(Q, (p, 0)))
                assert 0.0 <= val <= 1.0

    def test_squarefree_required(self, trivial_rep):
        with pytest.raises(UsageError):
            g_factor(trivial_rep, ideal_from_int(Q, 4))


def pair_loop_diagonal(w) -> float:
    """sum of rho(a) rho(b) g(lcm(a, b)) as an explicit loop over pairs of the support."""
    acc = KahanAccumulator()
    for da in w.support:
        for db in w.support:
            _, lcm = gcd_lcm(da, db)
            gval, _ = g_factor(w.rep, lcm)
            acc.add(complex(w.rho[da] * w.rho[db] * gval))
    return acc.value().real


class TestSelbergWeights:
    def test_z_one_trivial_support(self, trivial_rep):
        w = selberg_weights(trivial_rep, 1.0)
        assert w.support == [unit_ideal(Q)]
        assert w.diagonal_value == pytest.approx(1.0)

    def test_hand_value_at_z3(self, trivial_rep):
        w = selberg_weights(trivial_rep, 3.0)
        assert sorted(i.norm for i in w.support) == [1, 2, 3]
        assert w.diagonal_value == pytest.approx(0.4, abs=1e-15)
        checks = w.verify()
        assert all(v for k, v in checks.items() if k != "brute_force_value")

    def test_brute_force_on_characters(self):
        for q in (3, 5):
            rep = character_representation(primitive_characters(q)[0])
            w = selberg_weights(rep, 50.0)
            checks = w.verify()
            assert checks["diagonal_matches_brute_force"]
            assert checks["rho_bounded_by_one"]

    @pytest.mark.parametrize(
        "make_rep",
        [
            trivial_representation,
            lambda: character_representation(primitive_characters(5)[1]),
            # split primes share a norm and need their own prime columns
            lambda: trivial_representation(NumberFieldSpec.quadratic(-1)),
        ],
        ids=["trivial-Q", "chi-5", "trivial-quadratic(-1)"],
    )
    def test_brute_force_matches_pair_loop(self, make_rep):
        w = selberg_weights(make_rep(), 60.0)
        want = pair_loop_diagonal(w)
        assert w.brute_force_diagonal() == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_support_ceiling_before_the_prime_scan(self, trivial_rep, monkeypatch):
        monkeypatch.setattr(sieve, "SELBERG_MAX_Z", 50)
        assert len(selberg_weights(trivial_rep, 50.0).support) > 1  # inclusive

        def refuse(*args):
            raise AssertionError("scanned the primes past the ceiling")

        monkeypatch.setattr(sieve, "prime_ideals_up_to", refuse)
        with pytest.raises(ResourceLimitError, match="z = 50.5 exceeds the ceiling 50"):
            selberg_weights(trivial_rep, 50.5)

    def test_ramified_primes_excluded_from_support(self):
        rep = character_representation(primitive_characters(3)[0])
        w = selberg_weights(rep, 10.0)
        for d in w.support:
            assert all(pid[0] != 3 for pid, _ in d.factors)


class TestSmoothSum:
    def test_trivial_diagonal_small_diff(self, trivial_rep):
        diffs = {}
        for x, t in [(100.0, 1.0), (1000.0, 1.0), (100.0, 2.0), (1000.0, 2.0)]:
            r = smooth_sum_residue(trivial_rep, trivial_rep, x, t)
            diffs[(x, t)] = abs(r.diff)
            assert abs(r.diff) <= 0.05 * x
        # direction of the T-dependence is reported, not asserted
        print(f"smooth-sum |diff| over the (x, T) grid: {diffs}")

    def test_distinct_characters_zero_main(self):
        a = character_representation(primitive_characters(3)[0])
        b = character_representation(primitive_characters(4)[0])
        r = smooth_sum_residue(a, b, 300.0, 1.0)
        assert r.main == 0.0 and abs(r.lhs) < 50.0

    def test_divisor_restricted_sum(self, trivial_rep):
        d = ideal_from_int(Q, 6)
        r = smooth_sum_residue(trivial_rep, trivial_rep, 500.0, 1.0, d=d)
        # density of multiples of 6 with g(6) = 1/6
        assert r.main == pytest.approx(500.0 * phi_hat(1.0).real / 6.0, rel=1e-12)
        assert abs(r.diff) <= 0.05 * 500.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_phi_hat_quadrature_vs_series(self):
        moments = [
            quad(lambda y: bump_phi(y) * y**k, -2, 2, epsabs=1e-14, epsrel=1e-14, limit=300)[0]
            for k in range(40)
        ]
        for s in (1.0, 0.5, 1.0 / 3.0):
            series = sum(s**k * m / math.factorial(k) for k, m in enumerate(moments))
            assert phi_hat(complex(s)).real == pytest.approx(series, abs=1e-10)

    def test_bump_majorizes_indicator(self):
        ys = np.linspace(0.0, 1.0, 1001)
        assert (bump_phi(ys) >= 1.0 - 1e-12).all()
        assert bump_phi(2.0) == 0.0 and bump_phi(-2.5) == 0.0

    def test_synthetic_pair_is_shape_only(self, gl2_family):
        r = smooth_sum_residue(gl2_family.members[0], gl2_family.members[0], 50.0, 1.0)
        assert r.shape_only and r.main is None


def bump_transform_oracle(s: complex) -> complex:
    """Integral of exp(4/3 - 1/(1 - (y/2)^2)) e^{s y} over (-2, 2) at 40 digits (tanh-sinh)."""
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.mpc(s)

        def f(y):
            return mpmath.exp(mpmath.mpf(4) / 3 - 1 / (1 - (y / 2) ** 2)) * mpmath.exp(s * y)

        return complex(mpmath.quad(f, mpmath.linspace(-2, 2, 9)))


def grid_sizes(monkeypatch) -> list:
    """Record the length of every node array phi_hat passes to bump_phi."""
    sizes = []

    def spy(y):
        sizes.append(np.size(y))
        return bump_phi(y)

    monkeypatch.setattr(sieve, "bump_phi", spy)
    return sizes


class TestPhiHat:
    REL = 1e-14  # measured worst 2.8e-16 over these points (s = 0.02 - 10i)

    @pytest.mark.parametrize("s", [1 / 50, 0.1, 1 / 3, 0.5, 1.0, 1.5, 2.0])
    def test_real_s_against_mpmath(self, s):
        want = bump_transform_oracle(s)
        got = phi_hat(s)
        assert got.imag == 0.0
        assert abs(got - want) <= self.REL * abs(want)

    @pytest.mark.parametrize("s", [0.5 + 2j, 1 + 3j, -1 + 5j, 2 - 10j, 0.02 - 10j])
    def test_complex_s_against_mpmath(self, s):
        want = bump_transform_oracle(s)
        assert abs(phi_hat(s) - want) <= self.REL * abs(want)

    @pytest.mark.parametrize("s", [100.0, 300.0])
    def test_large_s_doubles_the_panels(self, s, monkeypatch):
        sizes = grid_sizes(monkeypatch)
        want = bump_transform_oracle(s)
        assert abs(phi_hat(s) - want) <= self.REL * abs(want)
        assert sizes[0] == 1023 and max(sizes) > 1023

    @pytest.mark.parametrize("s", [360.0, -360.0])
    def test_finite_beyond_exp_overflow(self, s):
        # e^(s y) overflows near |y| = 2 although phi_hat(s) ~ 1.04e295 is finite
        want = bump_transform_oracle(s)
        assert abs(phi_hat(s) - want) <= self.REL * abs(want)

    @pytest.mark.parametrize("s", [400.0, -400.0])
    def test_beyond_float_range_raises_at_first_grid(self, s, monkeypatch):
        sizes = grid_sizes(monkeypatch)
        with pytest.raises(UsageError, match="exceeds the float range"):
            phi_hat(s)
        assert sizes == [1023]

    def test_panel_ceiling_raises_before_allocating(self, monkeypatch):
        # s = 300 needs 2048 panels (above); a ceiling of 1024 stops it after one grid
        monkeypatch.setattr(sieve, "PHI_HAT_MAX_PANELS", 1024)
        sizes = grid_sizes(monkeypatch)
        with pytest.raises(ResourceLimitError, match="more than 1024 trapezoid panels"):
            phi_hat(300.0)
        assert sizes == [1023]


class TestDiagonalLowerBound:
    def test_harmonic_value(self, trivial_rep):
        r = diagonal_lower_bound_check(trivial_rep, 1000.0)
        want = sum(1.0 / n for n in range(1, 1001)) / math.log(1000.0)
        assert r.ratio == pytest.approx(want, abs=1e-12)
        assert r.ratio == pytest.approx(1.0836, abs=5e-4)

    def test_z_one_degenerate(self, trivial_rep):
        r = diagonal_lower_bound_check(trivial_rep, 1.0)
        assert r.ratio is None and r.partial_sum == pytest.approx(1.0) and r.log_z == 0.0

    def test_ratio_nonincreasing(self, trivial_rep):
        values = [diagonal_lower_bound_check(trivial_rep, z).ratio for z in (100.0, 1000.0, 10000.0)]
        assert values[0] >= values[1] >= values[2] >= 1.0


class TestSiftedSums:
    def test_zero_weights_zero_lhs(self, small_char_family):
        w = WeightVector({})
        r = sifted_sum_check(small_char_family, None, 100.0, 1.0, 5.0, weights=w)
        assert r.lhs == 0.0

    def test_empty_window_when_z_exceeds_x(self, small_char_family):
        r = sifted_sum_check(small_char_family, None, 50.0, 1.0, 200.0)
        assert r.sifted_count == 0 and r.lhs == 0.0

    def test_gl1_run_finite(self, small_char_family):
        r = sifted_sum_check(small_char_family, None, 1000.0, 1.0, 10.0)
        assert np.isfinite(r.lhs) and r.lhs >= 0
        assert r.rhs_shape is not None and r.shape_only

    def test_planted_cancellation_is_exactly_rounded(self, trivial_rep):
        # the trivial member's coefficients are all 1, so the weighted sum is
        # 1e16 + 1 - 1e16 + 1 = 2; compensated summation loses one of the ones
        planted = {ideal_from_int(Q, n): complex(w) for n, w in zip(range(101, 105), (1e16, 1, -1e16, 1))}
        r = sifted_sum_check(make_family([trivial_rep]), None, 100.0, 1.0, 1.0,
                             weights=WeightVector(planted))
        assert r.lhs == 4.0


class TestMvt:
    def test_empty_family_zero(self):
        from lfunclab.localdata import Family

        fam = Family(Q, (), 1.0, "empty")
        r = mvt_mu(fam, None, 50.0, 1.0)
        assert r.value == 0.0

    def test_trivial_against_dense_quadrature(self, trivial_rep):
        fam = make_family([trivial_rep])
        r = mvt_mu(fam, None, 50.0, 1.0)
        mu = expand_global(trivial_rep, trivial_rep, 50, "mu")
        items = list(zip(mu.norms.tolist(), mu.values.tolist()))

        def integrand(v):
            s = sum(c * n ** (-0.5) * complex(math.cos(v * math.log(n)), -math.sin(v * math.log(n)))
                    for n, c in items)
            return abs(s) ** 2

        dense, _ = quad(integrand, -1.0, 1.0, epsabs=1e-9, epsrel=1e-9, limit=500)
        assert r.value == pytest.approx(dense, abs=1e-6)

    def test_doubling_t_increases(self, trivial_rep):
        fam = make_family([trivial_rep])
        small = mvt_mu(fam, None, 30.0, 1.0).value
        large = mvt_mu(fam, None, 30.0, 2.0).value
        assert large > small

    def test_point_ceiling_before_allocating(self, trivial_rep, refuse_large_arrays, monkeypatch):
        fam = make_family([trivial_rep])
        with pytest.raises(ResourceLimitError, match="mvt points exceed the ceiling"):
            mvt_mu(fam, None, 50.0, 1e9)
        # x = 50, T = 2 takes 257 points; the ceiling is inclusive
        monkeypatch.setattr(sieve, "MVT_MAX_POINTS", 257)
        assert mvt_mu(fam, None, 50.0, 2.0).points == 257
        with pytest.raises(ResourceLimitError, match="259 mvt points exceed the ceiling 257"):
            mvt_mu(fam, None, 50.0, 2.01)

    def test_tail_variant_runs(self, small_char_family):
        r = mvt_mu(small_char_family, None, 40.0, 1.0, y_scale=100.0, variant="tail")
        assert np.isfinite(r.value) and any("truncated" in f for f in r.flags)
        assert r.shape == pytest.approx(math.log(40.0))


GAUSS = NumberFieldSpec.quadratic(-1)


@functools.cache
def family_case(name: str):
    return {
        "characters": dirichlet_family_by_modulus(7),
        "gl2": synthetic_family(2, 3, seed=21),
        "gl3": synthetic_family(3, 2, seed=22),
        "gl2_gauss": synthetic_family(2, 3, seed=23, field=GAUSS),
        "gl3_gauss": synthetic_family(3, 2, seed=24, field=GAUSS),
    }[name]


@functools.cache
def pi0_case(name: str | None):
    if name is None:
        return None
    return {
        "chi5": character_representation(primitive_characters(5)[1]),
        "gl2_q": synthetic_family(2, 1, seed=25).members[0],
        "trivial_gauss": trivial_representation(GAUSS),
        "gl2_gauss": synthetic_family(2, 1, seed=26, field=GAUSS).members[0],
    }[name]


# (family, pi0) pairs over a common field; pi0 None is the trivial member
FAMILY_CASES = [
    (fam, pi0)
    for fams, pi0s in (
        (("characters", "gl2", "gl3"), (None, "chi5", "gl2_q")),
        (("gl2_gauss", "gl3_gauss"), (None, "trivial_gauss", "gl2_gauss")),
    )
    for fam in fams
    for pi0 in pi0s
]


def path_engines(family, pi0, kind):
    """Each member's column against pi0 (None: the trivial member), and the
    diagonal's, under the model of the members and pi0 together."""
    pi0 = pi0 or trivial_representation(family.field)
    model = default_model(family.members + (pi0,))
    dual = contragredient(pi0)
    return [Column(m, dual, kind, model) for m in family.members], Column(pi0, pi0, "lambda", model)


def series_path(family, pi0, bound, kind):
    """The scalar oracle per member against pi0 (None: the trivial member),
    {ideal: value} up to the bound, and the diagonal."""
    engines, diag = path_engines(family, pi0, kind)
    ideals = enumerate_ideals(family.field, bound)

    def values(engine):
        return dict(zip(ideals, scalar_row(engine, ideals)))

    return [values(e) for e in engines], values(diag)


def exact_case(family, pi0, kind) -> bool:
    """Whether every value the case reads equals the oracle's bit for bit: all
    but product-model lambda and mu, whose diagonal is exact for the trivial pi0."""
    engines, diag = path_engines(family, pi0, kind)
    rounded = lambda engine: engine.model == "product" and engine.kind in ("lambda", "mu")
    return not any(map(rounded, engines)) and (pi0 is None or not rounded(diag))


def assert_matches(got, want, exact: bool) -> None:
    """got == want, or within PRODUCT_TOL relative to max(1, |want|) where
    product-model lambda or mu enter."""
    if exact:
        assert got == want
    else:
        assert deviation(got, want) <= PRODUCT_TOL


class TestFamilyArraysAgainstSeriesPath:
    """bound_table, sifted_sum_check and mvt_mu read the per-prime-power
    arrays; every value must equal the scalar product per member bit for bit,
    where product-model lambda or mu enter within PRODUCT_TOL."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(FAMILY_CASES),
        kind=st.sampled_from(SERIES_KINDS),
        bound=st.integers(1, 60),
    )
    def test_rows(self, case, kind, bound):
        family, pi0 = family_case(case[0]), pi0_case(case[1])
        table = ideal_list(family.field, bound)
        ideals = table.ideals()
        column, diagonal = family_arrays(family, kind, pi0)
        a, weights = column.rows(table), diagonal.rows(table)[0].real
        series, diag = series_path(family, pi0, bound, kind)
        want = np.array([[s[i] for i in ideals] for s in series], dtype=np.complex128)
        engines, diag_engine = path_engines(family, pi0, kind)
        assert_rows_match(a, want, engines)
        assert weights.dtype == np.float64
        want_weights = np.array([diag[i].real for i in ideals])
        assert_rows_match(weights[None], want_weights[None], [diag_engine])
        if pi0 is None:
            assert (weights == 1.0).all()

    @pytest.mark.parametrize("kind", SERIES_KINDS)
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=st.sampled_from(FAMILY_CASES), bound=st.integers(1, 60))
    def test_trivial_pairs_against_the_own_rule(self, kind, case, bound):
        # each member against the trivial member is its own series, as the
        # member's parameters alone give it, up to rounding
        family = family_case(case[0])
        column, _ = family_arrays(family, kind, None)
        table = ideal_list(family.field, bound)
        ideals = table.ideals()
        for row, member in zip(column.rows(table).tolist(), family.members):
            assert row == pytest.approx(own_row(member, kind, ideals), rel=1e-13)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        case=st.sampled_from(FAMILY_CASES),
        kind=st.sampled_from(SERIES_KINDS),
        x=st.integers(1, 40),
        t_sharp=st.sampled_from([1.0, 2.0]),
        z=st.sampled_from([2.0, 3.0, 5.0]),
        weighted=st.booleans(),
    )
    def test_sifted(self, case, kind, x, t_sharp, z, weighted):
        family, pi0 = family_case(case[0]), pi0_case(case[1])
        hi = int(math.floor(x * math.exp(1.0 / t_sharp)))
        weights = None
        if weighted:
            weights = WeightVector({
                i: complex(1.0 / i.norm, (-1) ** i.norm * 0.5) for i in enumerate_ideals(family.field, hi)
            })
        res = sifted_sum_check(family, pi0, float(x), t_sharp, z, weights=weights, kind=kind)

        window = [
            i for i in enumerate_ideals(family.field, hi)
            if i.norm > x and ((mp := min_prime_norm(i)) is None or mp > z) and not i.is_unit
        ]
        series, diag = series_path(family, pi0, hi, kind)
        wvals = weights.values if weights is not None else {i: 1 + 0j for i in window}
        weighted = [[wvals[i] * s[i] for i in window if wvals.get(i, 0j)] for s in series]
        norm_terms = [diag[i].real * abs(wvals.get(i, 0j)) ** 2 for i in window]
        single_terms = [diag[i].real for i in window]
        lhs = math.fsum(
            abs(complex(math.fsum(z.real for z in t), math.fsum(z.imag for z in t))) ** 2
            for t in weighted
        )
        want = (lhs, math.fsum(norm_terms), math.fsum(single_terms), len(window))
        got = (res.lhs, res.weighted_norm_sq, res.single_rep_sum, res.sifted_count)
        assert_matches(got, want, exact_case(family, pi0, kind))

        # the old aggregation: Kahan per member, then running sums
        old_lhs = 0.0
        for t in weighted:
            acc = KahanAccumulator()
            for z in t:
                acc.add(z)
            old_lhs += abs(acc.value()) ** 2
        old_single = 0.0
        for d in single_terms:
            old_single += d
        old = (old_lhs, sum(norm_terms), old_single)
        for o, w in zip(old, want):
            assert abs(o - w) <= AGGREGATION_TOL * abs(w)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        case=st.sampled_from(FAMILY_CASES),
        x=st.integers(3, 50),
        t_range=st.sampled_from([0.5, 1.0]),
        tail=st.booleans(),
    )
    def test_mvt(self, case, x, t_range, tail):
        family, pi0 = family_case(case[0]), pi0_case(case[1])
        if tail:
            res = mvt_mu(family, pi0, float(x), t_range, y_scale=100.0, variant="tail",
                         truncation=4.0 * x)
            lo, hi, sigma = x + 1, 4 * x, 1.0 + 1.0 / math.log(100.0)
        else:
            res = mvt_mu(family, pi0, float(x), t_range)
            lo, hi, sigma = 1, x, 0.5

        series, _ = series_path(family, pi0, hi, "mu")
        vs = np.linspace(-t_range, t_range, res.points)
        total = 0.0
        for s in series:
            items = [(i.norm, v) for i, v in s.items() if lo <= i.norm <= hi and v != 0]
            if not items:
                continue
            norms = np.array([n for n, _ in items], dtype=np.float64)
            cs = np.array([v for _, v in items], dtype=np.complex128) * norms ** (-sigma)
            vals = np.abs(np.exp(-1j * np.outer(vs, np.log(norms))) @ cs) ** 2
            h = vs[1] - vs[0]
            total += (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum()) * h / 3.0
        assert_matches(res.value, total, exact_case(family, pi0, "mu"))
