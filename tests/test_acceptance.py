"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import math
import time

import numpy as np
import pytest

from lfunclab.characters import primitive_characters
from lfunclab.coeffs import dirichlet_convolve, expand_global, rankin_selberg_local
from lfunclab.covers import PairCoefficientTable, coefficient_matrix, psd_check_full
from lfunclab.detect import (
    jk_tail_bounds_check,
    DensityQuery,
    build_detection_config,
    density_scan,
    high_derivative,
    solve_constants,
    turan_existence,
)
from lfunclab.ideals import NumberFieldSpec, enumerate_ideals, prime_ideal
from lfunclab.localdata import (
    LocalParameters,
    character_representation,
    dirichlet_family_by_modulus,
    ingest_hecke_eigenvalues,
    make_family,
    synthetic_family,
    trivial_representation,
)
from lfunclab.sieve import selberg_weights, sieve_constant

Q = NumberFieldSpec.rationals()
N_SWEEP = 2000
POINTWISE_BOUND = 10_000
STACK_CHUNK = 250  # ideals per stacked GL1 batch: 250 x 80 x 80 complex is 26 MB


def report(idx: int, text: str):
    print(f"ACCEPTANCE {idx}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared GL1 pair data: primitive characters of modulus <= 20, exact model


@pytest.fixture(scope="module")
def gl1_table(char_family_20):
    return PairCoefficientTable(char_family_20, "lambda")


def gl1_chunks(table):
    """(ideals, stacked matrices) for every ideal of norm <= N_SWEEP, STACK_CHUNK at a time."""
    ideals = enumerate_ideals(Q, N_SWEEP)
    for start in range(0, len(ideals), STACK_CHUNK):
        chunk = ideals[start : start + STACK_CHUNK]
        yield chunk, np.stack([table.matrix(ideal) for ideal in chunk])


def test_criterion_1_constants():
    t0 = time.perf_counter()
    cs = solve_constants.__wrapped__()  # force a fresh solve for the timing claim
    elapsed = time.perf_counter() - t0
    targets = {
        "alpha": 7.257570591,
        "A": 3.893444953,
        "V": 4.399815114,
        "A0": 0.083612477,
        "A1": 11.4016385180,
    }
    got = {"alpha": cs.alpha, "A": cs.a_weight, "V": cs.v_decay, "A0": cs.a0, "A1": cs.a1}
    for name, want in targets.items():
        assert abs(got[name] - want) <= 1e-8, f"{name}: {got[name]} vs {want}"
    assert max(cs.residuals.values()) <= 1e-8
    assert elapsed < 1.0
    report(1, f"five constants within 1e-8, residuals <= {max(cs.residuals.values()):.1e}, "
              f"{elapsed * 1000:.0f} ms")


def test_criterion_2_classical_gl1_large_sieve(trivial_rep):
    t0 = time.perf_counter()
    worst_gap = math.inf
    for q_bound in (5, 10, 20):
        family = dirichlet_family_by_modulus(q_bound)
        for n_bound in (50, 100, 200, 500):
            c = sieve_constant(family, n_bound).value
            limit = n_bound + q_bound**2 - 1
            assert c <= limit + 1e-9, f"C({n_bound}, q<={q_bound}) = {c} > {limit}"
            worst_gap = min(worst_gap, limit - c)
    single = sieve_constant(make_family([trivial_rep]), 500).value
    assert abs(single - 500.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"C <= N + Q^2 - 1 on the full grid (min slack {worst_gap:.3f}), "
              f"trivial family saturates C = N; {elapsed:.1f} s")


def test_criterion_3_positive_semidefiniteness(gl1_table):
    t0 = time.perf_counter()
    worst_ratio = math.inf
    for ideals, stack in gl1_chunks(gl1_table):
        eigs = np.linalg.eigvalsh(stack)
        min_eigs = eigs[:, 0]
        spectral = np.abs(eigs).max(axis=1)
        ratios = min_eigs / np.maximum(spectral, 1.0)
        worst_ratio = min(worst_ratio, float(ratios.min()))
        assert (min_eigs >= -1e-9 * np.maximum(spectral, 1.0)).all(), (
            f"PSD failure at {ideals[int(np.argmin(ratios))]}"
        )
    # centered matrices on synthetic GL2 and GL3 families, five seeds each
    worst_centered = math.inf
    for degree in (2, 3):
        for seed in range(5):
            fam = synthetic_family(degree, 3, seed=seed)
            table = PairCoefficientTable(fam, "lambda")
            for ideal in enumerate_ideals(Q, N_SWEEP):
                if ideal.is_unit:
                    continue
                m = coefficient_matrix(fam, ideal, "lambda_centered", table=table)
                min_eig, spectral, verdict = psd_check_full(m, tol=1e-9)
                worst_centered = min(worst_centered, min_eig / max(spectral, 1.0))
                assert verdict, f"centered failure: degree {degree} seed {seed} at {ideal}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, f"GL1 matrices PSD for all n <= {N_SWEEP} (worst ratio {worst_ratio:.2e}); "
              f"centered GL2/GL3 PSD (worst {worst_centered:.2e}); {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_4_cover_inequalities(gl1_table, gl2_family):
    t0 = time.perf_counter()
    size = len(gl1_table.family.members)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(20250811)))
    weights = rng.standard_normal((1000, size)) + 1j * rng.standard_normal((1000, size))
    battery = np.vstack([np.ones((1, size)), np.eye(size), weights]).astype(np.complex128)

    # lambda^o vectors for pi0 = trivial: member series of L, 1/L, log L
    kinds = ("lambda", "mu", "logl")
    worst = {kind: math.inf for kind in kinds}
    for ideals, stack in gl1_chunks(gl1_table):
        # w A w^H for every draw w, one matrix at a time: a matrix product per
        # matrix, where a three-operand einsum over the stack is several times slower
        quad = np.stack([((battery @ m) * battery.conj()).sum(-1).real for m in stack])
        for kind in kinds:
            vecs = np.stack([gl1_table.pi0_column(None, kind, ideal)[0] for ideal in ideals])
            lin = np.abs(vecs @ battery.T) ** 2  # (len(ideals), trials)
            margins = quad - lin
            worst[kind] = min(worst[kind], float(margins.min()))
    for kind, value in worst.items():
        assert value >= -1e-9, f"GL1 margin violation for {kind}: {value}"

    # synthetic GL2, product model, same weight battery size
    worst_gl2 = math.inf
    size2 = len(gl2_family.members)
    w2 = rng.standard_normal((1000, size2)) + 1j * rng.standard_normal((1000, size2))
    battery2 = np.vstack([np.ones((1, size2)), np.eye(size2), w2]).astype(np.complex128)
    ideals = [i for i in enumerate_ideals(Q, N_SWEEP) if not i.is_unit]
    table = PairCoefficientTable(gl2_family, "lambda")
    series = {
        kind: [expand_global(m, None, N_SWEEP, kind) for m in gl2_family.members]
        for kind in ("lambda", "mu", "logl")
    }
    for ideal in ideals:
        m = coefficient_matrix(gl2_family, ideal, "lambda", table=table).entries
        quad = np.einsum("ti,ij,tj->t", battery2, m, battery2.conj()).real
        for kind in series:
            v = np.array([s.value(ideal) for s in series[kind]])
            margins = quad - np.abs(battery2 @ v) ** 2
            worst_gl2 = min(worst_gl2, float(margins.min()))
            assert margins.min() >= -1e-9, f"GL2 margin violation for {kind} at {ideal}"
    elapsed = time.perf_counter() - t0
    report(4, f"worst margins GL1 {min(worst.values()):.2e}, GL2 {worst_gl2:.2e} "
              f"over 1000 weight draws; {elapsed:.1f} s")


def test_criterion_5_pointwise_bounds(gl2_family, delta_csv):
    t0 = time.perf_counter()
    chars = [trivial_representation()] + [
        character_representation(c) for q in (3, 4, 5, 7, 8, 9) for c in primitive_characters(q)
    ]
    # GL1 exact model: mu and Lambda bounds against the zeta diagonal, with
    # Lambda(n) = log p read off each prime power's factorization
    worst_mu = worst_big = math.inf
    for i, a in enumerate(chars):
        for b in chars[i:]:
            dual_b = contragredient_of(b)
            mu_ab = expand_global(a, dual_b, POINTWISE_BOUND, "mu", "gl1_exact")
            worst_mu = min(worst_mu, min(1.0 - abs(v) ** 2 for v in mu_ab.values.values()))
            big_ab = expand_global(a, dual_b, POINTWISE_BOUND, "biglambda", "gl1_exact")
            for ideal, val in big_ab.values.items():
                (((p, _), _),) = ideal.factors
                worst_big = min(worst_big, math.log(p) - abs(val))
    assert worst_mu >= -1e-9 and worst_big >= -1e-9

    # product model: GL2 pairs, Delta, and mixed pairs
    delta = ingest_hecke_eigenvalues(delta_csv, weight=12, level=1)
    reps = list(gl2_family.members) + [delta, chars[0], chars[1]]
    diag = {}
    for rep in reps:
        diag[id(rep)] = {
            "lambda": expand_global(rep, rep, POINTWISE_BOUND, "lambda", "product"),
            "biglambda": expand_global(rep, rep, POINTWISE_BOUND, "biglambda", "product"),
        }
    pairs = [(a, b) for idx, a in enumerate(reps) for b in reps[idx:]]
    for a, b in pairs:
        bound = POINTWISE_BOUND
        mu_ab = expand_global(a, contragredient_of(b), bound, "mu", "product")
        for ideal, val in mu_ab.values.items():
            lhs = abs(val) ** 2
            rhs = diag[id(a)]["lambda"].value(ideal).real * diag[id(b)]["lambda"].value(ideal).real
            assert lhs <= rhs + 1e-9, f"mu bound fails at {ideal} for {a.label} x {b.label}"
        big_ab = expand_global(a, contragredient_of(b), bound, "biglambda", "product")
        for ideal, val in big_ab.values.items():
            rhs = 0.5 * (
                diag[id(a)]["biglambda"].value(ideal).real
                + diag[id(b)]["biglambda"].value(ideal).real
            )
            assert abs(val) <= rhs + 1e-9, f"Lambda bound fails at {ideal}"
    elapsed = time.perf_counter() - t0
    report(5, f"pointwise mu and Lambda bounds hold to n <= {POINTWISE_BOUND} "
              f"(worst GL1 slacks {worst_mu:.2e}, {worst_big:.2e}); {elapsed:.1f} s")


def contragredient_of(rep):
    from lfunclab.localdata import contragredient

    return contragredient(rep)


def test_criterion_6_cauchy_identity_oracle():
    t0 = time.perf_counter()
    prime = prime_ideal(Q, (2, 0))
    worst = 0.0
    for seed in range(200):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        n = seed % 4 + 1
        n2 = (seed // 4) % 4 + 1
        al = tuple(map(complex, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        be = tuple(map(complex, rng.standard_normal(n2) + 1j * rng.standard_normal(n2)))
        pa, pb = LocalParameters(prime, al), LocalParameters(prime, be)
        poly = np.ones(1, dtype=np.complex128)
        for x in al:
            for y in be:
                poly = np.convolve(poly, [1.0, -x * np.conj(y)])
        inv = np.zeros(13, dtype=np.complex128)
        inv[0] = 1.0
        for k in range(1, 13):
            inv[k] = -sum(poly[j] * inv[k - j] for j in range(1, min(len(poly) - 1, k) + 1))
        for k in range(13):
            got = rankin_selberg_local(pa, pb, k)
            err = abs(got - inv[k]) / max(1e-30, abs(inv[k]))
            worst = max(worst, err)
            assert err <= 1e-10, f"seed {seed}, degrees ({n},{n2}), k = {k}: rel err {err}"
    report(6, f"Schur sums match series inversion, worst rel err {worst:.2e}; "
              f"{time.perf_counter() - t0:.1f} s")


def test_criterion_7_convolution_identities(gl2_family, delta_csv):
    t0 = time.perf_counter()
    reps = [
        trivial_representation(),
        character_representation(primitive_characters(3)[0]),
        character_representation(primitive_characters(5)[1]),
        gl2_family.members[0],
        ingest_hecke_eigenvalues(delta_csv, weight=12, level=1),
    ]
    worst_unit = worst_log = 0.0
    for rep in reps:
        bound = POINTWISE_BOUND
        lam = expand_global(rep, None, bound, "lambda")
        mu = expand_global(rep, None, bound, "mu")
        conv = dirichlet_convolve(lam, mu, bound)
        for ideal, val in conv.values.items():
            want = 1.0 if ideal.is_unit else 0.0
            worst_unit = max(worst_unit, abs(val - want))
        big = expand_global(rep, rep, bound, "biglambda", "product")
        lam_diag = expand_global(rep, rep, bound, "lambda", "product")
        conv2 = dirichlet_convolve(big, lam_diag, bound)
        keys = set(conv2.values) | set(lam_diag.values)
        for ideal in keys:
            if ideal.is_unit:
                continue
            want = lam_diag.value(ideal) * math.log(ideal.norm)
            worst_log = max(worst_log, abs(conv2.value(ideal) - want))
        assert worst_unit <= 1e-9 and worst_log <= 1e-9, rep.label
    report(7, f"lambda*mu = unit and Lambda*lambda = lambda log on 5 members to "
              f"n <= {POINTWISE_BOUND} (worst {max(worst_unit, worst_log):.2e}); "
              f"{time.perf_counter() - t0:.1f} s")


def test_criterion_8_selberg_weights(trivial_rep):
    t0 = time.perf_counter()
    members = [trivial_rep] + [
        character_representation(primitive_characters(q)[0]) for q in (3, 4, 5)
    ]
    for rep in members:
        for z in (10.0, 100.0, 1000.0):
            w = selberg_weights(rep, z)
            checks = w.verify(tol=1e-10)
            assert checks["rho_unit_is_one"], rep.label
            assert checks["rho_bounded_by_one"], rep.label
            assert checks["support_in_range"], rep.label
            assert checks["diagonal_matches_brute_force"], (
                f"{rep.label} z={z}: {w.diagonal_value} vs {checks['brute_force_value']}"
            )
    hand = selberg_weights(trivial_rep, 3.0)
    assert hand.diagonal_value == pytest.approx(0.4, abs=1e-15)
    report(8, f"weights verified for 4 members at z <= 1000; hand value "
              f"{hand.diagonal_value} at z = 3; {time.perf_counter() - t0:.1f} s")


def test_criterion_9_power_sums():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(77)))
    worst_slack = math.inf
    for case in range(100_000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 31))
        zs = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        res = turan_existence(zs, m)  # raises on any failure
        worst_slack = min(worst_slack, res.achieved - res.bound)
    # adversarial phase grids on the unit circle at N = 2, 3
    for n, grid_pts in ((2, 120), (3, 24)):
        grid = np.linspace(0.0, 2 * np.pi, grid_pts, endpoint=False)
        mesh = np.stack(np.meshgrid(*([grid] * n)), axis=-1).reshape(-1, n)
        zs = np.exp(1j * mesh)
        for m in (0, 5, 30):
            ks = m + 1 + np.arange(n)
            sums = np.abs((zs[:, None, :] ** ks[None, :, None]).sum(axis=2))
            idx = np.argmax(sums, axis=1)  # |z1| = 1: ratio argmax = plain argmax
            achieved = sums[np.arange(len(zs)), idx]
            bound = 1.007 * (4 * math.e * (1 + m / n)) ** (-n)
            slack = float((achieved - bound).min())
            worst_slack = min(worst_slack, slack)
            assert slack >= 0.0
    ex1 = turan_existence([1.0], 0)
    assert ex1.k_star == 1 and ex1.achieved == 1.0
    assert abs(ex1.bound - 1.007 / (4 * math.e)) <= 1e-10
    assert ex1.achieved >= 1.007 / (4 * math.e) - 1e-10
    ex2 = turan_existence([1.0, -1.0], 0)
    assert ex2.k_star == 2 and ex2.achieved == 2.0
    assert ex2.achieved >= 1.007 * (8 * math.e) ** -2 - 1e-10
    assert abs(ex2.bound - 1.007 * (4 * math.e) ** -2) <= 1e-10
    report(9, f"100000 random + adversarial grids, zero failures, min slack "
              f"{worst_slack:.4f}; worked examples reproduced; {time.perf_counter() - t0:.1f} s")


def test_criterion_10_density_scan():
    t0 = time.perf_counter()
    cases = []
    for seed in range(7):
        cases.append((0.25, 2, 2, seed))
    for seed in range(7):
        cases.append((0.30, 2, 3, seed + 100))
    for seed in range(6):
        cases.append((0.40, 3, 2, seed + 200))
    assert len(cases) == 20
    for theta, degree, p, seed in cases:
        fam = synthetic_family(degree, 5, seed=seed, model=("planted", p, theta))
        prime = prime_ideal(Q, (p, 0))
        query = DensityQuery.build(prime, theta, scale=float(prime.norm ** (degree + 3)), n=degree)
        rep = density_scan(fam, query, seed=seed)
        assert rep.flagged_count == 1, f"theta={theta} seed={seed}: {rep.flagged_count}"
        violator = [r for r in rep.rows if r.flagged][0]
        assert violator.certificate_fired
    report(10, f"20 planted families: flagged counts exact, certificates fired; "
               f"{time.perf_counter() - t0:.1f} s")


def test_criterion_11_jk_tails_and_derivative_oracle(trivial_rep):
    t0 = time.perf_counter()
    import mpmath

    worst_below = worst_above = math.inf
    for log_scale in (8.0, 40.0):
        cs = solve_constants()
        eta_lo = 1.0 / (cs.r_radius * log_scale)
        eta_hi = 1.0 / cs.r_radius
        for eta in (eta_lo, 0.5 * (eta_lo + eta_hi), eta_hi):
            cfg = build_detection_config(eta=eta, log_scale=log_scale)
            ks = sorted({cfg.k_min, (cfg.k_min + cfg.k_max) // 2, cfg.k_max})
            rep = jk_tail_bounds_check(cfg, samples=160, k_values=ks)
            worst_below = min(worst_below, rep.min_slack_below)
            worst_above = min(worst_above, rep.min_slack_above)
            assert rep.min_slack_below >= 0.0 and rep.min_slack_above >= 0.0
    mpmath.mp.dps = 30
    series = expand_global(trivial_rep, trivial_rep, 100_000, "biglambda", "gl1_exact")
    for eta in (0.1, 0.05):
        r = high_derivative(series, 0, eta, 0.0)
        oracle = float(-mpmath.zeta(1 + eta, 1, 1) / mpmath.zeta(1 + eta))
        diff = abs(r.value.real - eta * oracle)
        assert diff <= r.tail, f"eta={eta}: diff {diff} > tail {r.tail}"
    # higher k at the golden detect run's eta and truncation: the retained sum is
    # (-1)^(k+1) eta^(k+1)/k! (zeta'/zeta)^(k)(1 + eta) up to the tail bound
    eta = 0.05
    series = expand_global(trivial_rep, trivial_rep, 2000, "biglambda", "gl1_exact")
    slacks = []
    with mpmath.workdps(40):
        s0 = 1 + mpmath.mpf(eta)
        for k in (1, 5, 12):
            r = high_derivative(series, k, eta, 0.0)
            derivative = mpmath.diff(lambda s: mpmath.log(mpmath.zeta(s)), s0, k + 1)
            oracle = complex((-1) ** (k + 1) * mpmath.mpf(eta) ** (k + 1) / mpmath.factorial(k) * derivative)
            diff = abs(oracle - r.value)
            assert diff <= r.tail, f"k={k}: diff {diff} > tail {r.tail}"
            slacks.append(1 - diff / r.tail)
    report(11, f"window bounds hold (min slacks {worst_below:.3f}, {worst_above:.3f}); "
               f"k = 0 derivative within tails for eta in (0.1, 0.05), k = 1, 5, 12 at "
               f"eta = 0.05 (min slack {min(slacks):.1%}); {time.perf_counter() - t0:.1f} s")


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    from lfunclab.cli import main

    commands = [
        ["constants", "--format", "jsonl"],
        ["large-sieve", "--gl1", "--qmax", "10", "--n", "50,200"],
        ["covers", "--nmax", "30", "--trials", "64", "--seed", "5"],
        ["density", "--p", "2", "--theta", "0.25", "--seed", "9", "--format", "jsonl"],
    ]
    for idx, argv in enumerate(commands):
        out = tmp_path / f"det_{idx}.report"
        assert main(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == first, f"nondeterministic report for {argv}"
    report(12, f"byte-identical reruns for {len(commands)} commands; "
               f"{time.perf_counter() - t0:.1f} s")
