import math
import time

import numpy as np
import pytest

from lfunclab.coeffs import CoefficientSeries, expand_global
from lfunclab.detect import (
    DensityQuery,
    DetectionConfig,
    ZeroList,
    build_detection_config,
    density_scan,
    detection_bounds,
    family_count_bound,
    hadamard_zero_sum,
    high_derivative,
    jk,
    jk_tail_bounds_check,
    parse_zeros_file,
    solve_constants,
    turan_existence,
    _hd_tail_bound,
    _log_gamma_upper,
    _window_integral,
)
from lfunclab.errors import DataIntegrityError, InvariantError, SpecParseError, UsageError
from lfunclab.ideals import NumberFieldSpec, prime_ideal
from lfunclab.localdata import synthetic_family, trivial_representation

Q = NumberFieldSpec.rationals()


class TestConstants:
    def test_published_values(self):
        cs = solve_constants()
        assert cs.alpha == pytest.approx(7.257570591, abs=1e-8)
        assert cs.a_weight == pytest.approx(3.893444953, abs=1e-8)
        assert cs.v_decay == pytest.approx(4.399815114, abs=1e-8)
        assert cs.a0 == pytest.approx(0.083612477, abs=1e-8)
        assert cs.a1 == pytest.approx(11.4016385180, abs=1e-8)

    def test_self_consistency(self):
        cs = solve_constants()
        assert max(cs.residuals.values()) <= 1e-8
        assert cs.r_radius == pytest.approx(math.sqrt(cs.a_weight**2 + 1), abs=1e-12)
        assert cs.a0 * math.e * cs.v_decay == pytest.approx(1.0, abs=1e-12)

    def test_decay_base_below_window(self):
        cs = solve_constants()
        assert 2 * (4 * math.e * cs.alpha) ** (1 / (cs.alpha - 1)) < 4.019815115


class TestTuran:
    def test_single_point(self):
        r = turan_existence([1.0], 0)
        assert r.k_star == 1 and r.achieved == 1.0
        assert r.bound == pytest.approx(1.007 / (4 * math.e), abs=1e-12)
        assert r.achieved >= r.bound

    def test_cancellation_pair(self):
        r = turan_existence([1.0, -1.0], 0)
        assert r.k_star == 2 and r.achieved == 2.0
        assert r.achieved >= 1.007 * (8 * math.e) ** -2  # the coarse floor
        assert r.achieved >= r.bound

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        zs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = turan_existence(zs, 3)
        for c in (0.5, 2.0):
            scaled = turan_existence(c * zs, 3)
            assert scaled.k_star == base.k_star
            assert scaled.achieved == pytest.approx(base.achieved * c**base.k_star, rel=1e-12)
            assert scaled.bound == pytest.approx(base.bound * c**base.k_star, rel=1e-12)

    def test_random_suite(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 31))
            zs = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
            turan_existence(zs, m)  # raises on any floor failure

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            turan_existence([], 0)


class TestJk:
    def test_closed_forms(self):
        assert jk(1.0, 1) == pytest.approx(math.exp(-1), abs=1e-15)
        assert jk(0.0, 0) == 1.0
        assert jk(0.0, 5) == 0.0

    def test_maximized_at_u_equals_k(self):
        for k in (3, 10, 40):
            us = np.linspace(0.1, 4 * k, 4001)
            vals = [jk(float(u), k) for u in us]
            top = us[int(np.argmax(vals))]
            assert abs(top - k) < 0.05 * k

    def test_large_k_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 250
        k, u = 500, 500.0
        want = mpmath.exp(-u) * mpmath.mpf(u) ** k / mpmath.factorial(k)
        assert jk(u, k) == pytest.approx(float(want), rel=1e-10)


class TestUpperGamma:
    """log Q(k + 1, x) against mpmath's regularized upper incomplete gamma at 40 digits."""

    TOL = 1e-12  # on log Q, i.e. relative on Q; measured worst 4.8e-13 (k + 1 = 399, x = 1e3)

    def test_orders_one_to_four_hundred(self):
        import mpmath

        xs = [float(x) for x in np.geomspace(1e-3, 1e3, 13)]
        worst = 0.0
        with mpmath.workdps(40):
            for order in range(1, 401):
                for x in xs:
                    want = float(mpmath.log(mpmath.gammainc(order, x, regularized=True)))
                    worst = max(worst, abs(_log_gamma_upper(order - 1, x) - want))
        assert worst <= self.TOL

    @pytest.mark.parametrize("x", [1e-3, 3.7, 1e3])
    def test_huge_order_is_fast(self, x):
        start = time.perf_counter()
        value = _log_gamma_upper(10**9, x)
        assert time.perf_counter() - start < 0.05
        assert abs(value) <= self.TOL  # Q(10^9 + 1, x) = 1 to double precision

    def test_tail_bound_with_huge_k_is_fast(self):
        start = time.perf_counter()
        tail, flags = _hd_tail_bound(0.05, 10**9, 100_000)
        assert time.perf_counter() - start < 0.05
        assert math.isfinite(tail) and flags == ["tail bound loose: cutoff sits before the integrand peak"]


class TestDetectionConfig:
    def test_eta_range_enforced(self):
        with pytest.raises(UsageError, match="eta"):
            build_detection_config(eta=0.5, log_scale=40.0)
        with pytest.raises(UsageError, match="eta"):
            build_detection_config(eta=1e-4, log_scale=40.0)

    def test_tau_within_t(self):
        with pytest.raises(UsageError):
            build_detection_config(eta=0.05, tau=5.0, t_range=2.0, log_scale=40.0)

    def test_window_logs(self):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        cs = cfg.constants
        assert cfg.m_eta == pytest.approx((cs.alpha - 1) * 8 * cs.a_weight * 0.05 * 40.0)
        assert cfg.log_n_eta == pytest.approx(cs.a0 * cfg.m_eta / 0.05)
        assert cfg.log_n_eta_star == pytest.approx(cs.a1 * cfg.m_eta / 0.05)
        assert cfg.k_min == math.ceil(cfg.m_eta)
        assert cfg.k_min >= 146  # at this log scale the window is paper-sized

    def test_small_m_eta_flagged_when_constant_configured(self):
        cfg = build_detection_config(eta=0.01, log_scale=40.0, c_linnik=1.0)
        assert any("146" in f for f in cfg.flags)

    def test_constant_free_label(self):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        assert any("constant-free" in f for f in cfg.flags)


class TestJkTailBounds:
    def test_no_violations_and_boundary_slack(self):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        ks = [cfg.k_min, cfg.k_min + 7, cfg.k_max]
        rep = jk_tail_bounds_check(cfg, samples=200, k_values=ks)
        assert rep.min_slack_below >= 0.0
        assert rep.min_slack_above >= 0.0

    def test_slack_grows_away_from_window(self):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        cs = cfg.constants
        k = cfg.k_min
        log_v = math.log(cs.v_decay)
        u_edge = cs.a0 * cfg.m_eta
        slacks = []
        for u in (u_edge, 0.8 * u_edge, 0.5 * u_edge, 0.2 * u_edge):
            lhs = k * math.log(u) - u - math.lgamma(k + 1)
            slacks.append((-u - k * log_v) - lhs)
        assert slacks == sorted(slacks)


class TestHighDerivative:
    def test_zero_series_gives_zero(self):
        empty = CoefficientSeries(Q, "biglambda", 100, {})
        r = high_derivative(empty, 3, 0.1, 0.0)
        assert r.value == 0j

    def test_k0_matches_euler_maclaurin_oracle(self, trivial_rep):
        import mpmath

        mpmath.mp.dps = 30
        series = expand_global(trivial_rep, trivial_rep, 100_000, "biglambda", "gl1_exact")
        for eta in (0.1, 0.05):
            r = high_derivative(series, 0, eta, 0.0)
            oracle = -mpmath.zeta(1 + eta, 1, 1) / mpmath.zeta(1 + eta)
            want = eta * float(oracle)
            assert abs(r.value.real - want) <= r.tail
            assert abs(r.value.imag) < 1e-12

    def test_truncation_self_consistency(self, trivial_rep):
        series = expand_global(trivial_rep, trivial_rep, 20_000, "biglambda", "gl1_exact")
        eta, k = 0.25, 2
        full = high_derivative(series, k, eta, 0.3, truncation=20_000)
        half = high_derivative(series, k, eta, 0.3, truncation=10_000)
        assert abs(full.value - half.value) <= half.tail

    def test_refusal_below_window(self, trivial_rep):
        series = expand_global(trivial_rep, trivial_rep, 1000, "biglambda", "gl1_exact")
        with pytest.raises(UsageError, match="N_eta"):
            high_derivative(series, 5, 0.1, 0.0, truncation=1000, log_n_eta=math.log(10_000))


class TestHadamard:
    def test_empty(self):
        zl = ZeroList((), paired=False)
        val, count = hadamard_zero_sum(zl, 2.0 + 0j, 0)
        assert val == 0j and count == 0

    def test_single_real_zero(self):
        zl = ZeroList((complex(0.5, 0.0),), paired=False)
        val, _ = hadamard_zero_sum(zl, complex(1.5, 0.0), 0)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_pole_guard(self):
        zl = ZeroList((complex(0.5, 1.0),), paired=False)
        with pytest.raises(UsageError):
            hadamard_zero_sum(zl, complex(0.5, 1.0), 0)

    def test_truncation_within_tail_estimate(self, zeta_zeros_path):
        full = parse_zeros_file(zeta_zeros_path)
        head = ZeroList(full.zeros[:100], paired=True)
        s = complex(2.0, 0.0)
        v100, _ = hadamard_zero_sum(head, s, 1)
        v200, _ = hadamard_zero_sum(full, s, 1)
        gamma_cut = abs(head.zeros[-1].imag)
        # zero-counting density log(t / 2 pi) / pi for both half-planes
        tail = (math.log(gamma_cut / (2 * math.pi)) + 1.0) / (math.pi * gamma_cut)
        assert abs(v200 - v100) <= tail

    def test_conjugate_pairing_gives_real_sums(self, zeta_zeros_path):
        zl = parse_zeros_file(zeta_zeros_path)
        val, count = hadamard_zero_sum(zl, complex(2.0, 0.0), 0)
        assert count == 2 * len(zl.zeros)
        assert abs(val.imag) < 1e-12


class TestZerosFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# header\n\n14.134725\n21.022040 # second\n")
        zl = parse_zeros_file(str(path))
        assert len(zl) == 2 and zl.paired
        assert zl.zeros[0] == complex(0.5, 14.134725)

    def test_two_column_form(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("0.75,3.5\n0.6,-2.0\n")
        zl = parse_zeros_file(str(path))
        assert not zl.paired
        assert zl.zeros[0] == complex(0.6, -2.0)  # sorted by |gamma|

    def test_bad_line_number_reported(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("14.1\nnot-a-number\n")
        with pytest.raises(SpecParseError) as err:
            parse_zeros_file(str(path))
        assert err.value.line == 2

    def test_strip_validation(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1.5,3.0\n")
        with pytest.raises(DataIntegrityError):
            parse_zeros_file(str(path))


class TestDetectionBounds:
    def test_zero_series_all_legs_zero(self):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        empty = CoefficientSeries(Q, "biglambda", 1000, {})
        rep = detection_bounds(empty, cfg)
        assert rep.hd_value == 0.0 and rep.integral == 0.0

    def test_near_zero_leg_not_triggered_for_zeta(self, trivial_rep, zeta_zeros_path):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        series = expand_global(trivial_rep, trivial_rep, 2000, "biglambda", "gl1_exact")
        zeros = parse_zeros_file(zeta_zeros_path)
        rep = detection_bounds(series, cfg, zeros=zeros)
        assert rep.near_zero_triggered is False and rep.near_zero_count == 0

    def test_desk_scale_chain_consistency(self, trivial_rep):
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        series = expand_global(trivial_rep, trivial_rep, 5000, "biglambda", "gl1_exact")
        rep = detection_bounds(series, cfg, k=cfg.k_min)
        lhs = rep.hd_value
        # measured chain: lhs <= integral + c_measured * k / V^k by construction
        if rep.c_measured is not None:
            weight = math.exp(math.log(rep.k) - rep.k * math.log(cfg.constants.v_decay))
            assert lhs <= rep.integral + rep.c_measured * weight * (1 + 1e-9)
        else:
            assert lhs <= rep.integral + 1e-300
        assert rep.constant_free

    def test_reachable_window_chain(self, trivial_rep):
        cfg = build_detection_config(eta=0.05, log_scale=40.0, c_dirichlet_upper=10.0)
        small = DetectionConfig(
            **{
                **cfg.__dict__,
                "log_n_eta": math.log(30.0),
                "log_n_eta_star": math.log(800.0),
            }
        )
        series = expand_global(trivial_rep, trivial_rep, 1000, "biglambda", "gl1_exact")
        rep = detection_bounds(series, small, k=3)
        assert rep.integral > 0.0
        weight = math.exp(math.log(3) - 3 * math.log(small.constants.v_decay))
        if rep.c_measured is not None:
            assert rep.hd_value <= rep.integral + rep.c_measured * weight * (1 + 1e-9)
        assert rep.chain_ok is not None

    def test_window_integral_against_brute_force(self, trivial_rep):
        # hand-built config with a reachable window exercises the evaluator
        cfg = build_detection_config(eta=0.05, log_scale=40.0)
        small = DetectionConfig(
            **{
                **cfg.__dict__,
                "log_n_eta": math.log(50.0),
                "log_n_eta_star": math.log(1500.0),
            }
        )
        series = expand_global(trivial_rep, trivial_rep, 2000, "biglambda", "gl1_exact")
        got = _window_integral(series, small, 256)
        items = [
            (i.norm, v.real)
            for i, v in series.items_sorted()
            if 50.0 < i.norm <= 1500.0
        ]

        def partial(u):
            return sum(v / n for n, v in items if n <= u)

        from scipy.integrate import quad

        brute = 0.0
        edges = [50.0] + [n for n, _ in items if n <= 1500.0] + [1500.0]
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            val = abs(partial(a + 1e-9))
            brute += val * math.log(b / a)
        assert got == pytest.approx(small.eta**2 * brute, rel=2e-3)


class TestDensityScan:
    def test_planted_detection(self):
        fam = synthetic_family(2, 5, seed=12, model=("planted", 2, 0.3))
        prime = prime_ideal(Q, (2, 0))
        query = DensityQuery.build(prime, 0.3, scale=float(2**5), n=2)
        rep = density_scan(fam, query)
        assert rep.flagged_count == 1
        flagged = [r for r in rep.rows if r.flagged]
        assert flagged[0].certificate_fired and flagged[0].k_fired is not None

    def test_theta_zero_flags_all_unramified(self):
        fam = synthetic_family(2, 6, seed=3)
        prime = prime_ideal(Q, (3, 0))
        query = DensityQuery.build(prime, 0.0, scale=float(3**5), n=2)
        rep = density_scan(fam, query)
        assert rep.flagged_count == len(fam.members)

    def test_query_validation(self):
        prime = prime_ideal(Q, (2, 0))
        with pytest.raises(UsageError):
            DensityQuery.build(prime, 0.2, scale=4.0, n=2)  # N(p)^(n+1) > scale
        with pytest.raises(UsageError):
            DensityQuery.build(prime, -0.1, scale=64.0, n=2)

    def test_shape_reported(self):
        fam = synthetic_family(2, 3, seed=8)
        prime = prime_ideal(Q, (2, 0))
        query = DensityQuery.build(prime, 0.25, scale=float(2**5), n=2)
        rep = density_scan(fam, query, epsilon=0.1)
        n, q, npr = 2, fam.max_conductor, 2.0
        want = npr**n * (q ** (2 * n)) ** ((1 - 0.5) / 1.0 + 0.1)
        assert rep.shape == pytest.approx(want, rel=1e-12)


class TestFamilyCount:
    def test_enumerated_at_q12(self):
        res = family_count_bound(Q, 1, 12.0, 0.0)
        assert res.enumerated == 2  # the trivial member and the odd mod-3 member

    def test_shape_value(self):
        res = family_count_bound(Q, 1, 10.0, 0.1)
        assert res.bound_shape == pytest.approx(10 ** 2.1, rel=1e-12)

    def test_shape_monotone_in_q(self):
        shapes = [family_count_bound(Q, 1, q, 0.05).bound_shape for q in (5.0, 10.0, 50.0)]
        assert shapes == sorted(shapes)

    def test_degree_two_is_shape_only(self):
        res = family_count_bound(Q, 2, 100.0, 0.0)
        assert res.enumerated is None and res.shape_only
