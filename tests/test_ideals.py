import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunclab import idealtable, ideals
from lfunclab.errors import InvariantError, ResourceLimitError, UsageError
from lfunclab.ideals import (
    IdealIndex,
    NumberFieldSpec,
    dedekind_zeta_ideal_counts,
    enumerate_ideals,
    factor_int,
    gcd_lcm,
    ideal_from_factors,
    ideal_from_int,
    ideal_mul,
    is_prime,
    kronecker_symbol,
    prime_ideal,
    PRIME_SIEVE_CEILING,
    prime_ideals_up_to,
    primes_up_to,
    split_prime,
    unit_ideal,
    validate_ideal,
)

Q = NumberFieldSpec.rationals()
GAUSS = NumberFieldSpec.quadratic(-1)


def norms(ideal_list):
    return [i.norm for i in ideal_list]


class TestEnumeration:
    def test_rationals_small(self):
        assert norms(enumerate_ideals(Q, 5)) == [1, 2, 3, 4, 5]

    def test_gaussian_small(self):
        assert norms(enumerate_ideals(GAUSS, 5)) == [1, 2, 4, 5, 5]

    def test_gaussian_inert_three(self):
        assert norms(enumerate_ideals(GAUSS, 3)) == [1, 2]

    def test_gaussian_counts_match_element_norms(self):
        # brute force over Gaussian integers a+bi, deduplicated by unit multiples
        bound = 60
        seen = set()
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                n = a * a + b * b
                if 0 < n <= bound:
                    orbit = {(a, b), (-b, a), (-a, -b), (b, -a)}
                    seen.add((n, min(orbit)))
        from collections import Counter

        brute = Counter(n for n, _ in seen)  # includes norm 1: the unit-ideal orbit
        enum = Counter(norms(enumerate_ideals(GAUSS, bound)))
        assert brute == enum

    @pytest.mark.parametrize("d", [None, -1, 5, -5, 13])
    def test_zeta_coefficient_oracle(self, d):
        field = Q if d is None else NumberFieldSpec.quadratic(d)
        bound = 10_000 if d in (None, -1) else 3_000
        counts = dedekind_zeta_ideal_counts(field, bound)
        ideals = enumerate_ideals(field, bound)
        assert len(ideals) == int(counts.sum())
        # every norm, including inert p^2 (quadratic(5): 4, 9, 49, ...) that sit
        # among split and ramified primes in the norm-sorted prime list
        per_norm = np.bincount(norms(ideals), minlength=bound + 1)
        assert per_norm.tolist() == counts.tolist()
        # the premise of the ideal ceiling: at most d(n) ideals of norm n
        divisor_counts = np.zeros(bound + 1, dtype=np.int64)
        for k in range(1, bound + 1):
            divisor_counts[k::k] += 1
        assert (counts[1:] <= divisor_counts[1:]).all()

    def test_every_ideal_validates(self):
        for field in (Q, GAUSS, NumberFieldSpec.quadratic(7)):
            for ideal in enumerate_ideals(field, 200):
                validate_ideal(ideal)

    def test_memory_ceiling_error_names_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(ideals, "IDEAL_BYTES_CEILING", 50 * ideals.BYTES_PER_IDEAL)
        assert len(enumerate_ideals(Q, 50)) == 50
        with pytest.raises(ResourceLimitError, match="exceeds the ceiling of 20600 bytes"):
            enumerate_ideals(Q, 51)

    def test_ideal_ceiling_before_the_prime_sieve(self, refuse_large_arrays, monkeypatch):
        class Sieved(Exception):
            pass

        def sieve(*args):
            raise Sieved

        monkeypatch.setattr(idealtable, "prime_ideal_arrays", sieve)
        # the largest bounds 1 GiB admits: B ideals over Q, B (1 + ln B) over Q(i)
        for field, largest in ((Q, 2_606_169), (GAUSS, 197_532)):
            with pytest.raises(Sieved):
                enumerate_ideals(field, largest)
            with pytest.raises(ResourceLimitError, match="exceeds the ceiling of 1073741824 bytes"):
                enumerate_ideals(field, largest + 1)

    def test_prime_sieve_ceiling_before_allocating(self, refuse_large_arrays, monkeypatch):
        with pytest.raises(ResourceLimitError, match=f"exceeds the ceiling {PRIME_SIEVE_CEILING}"):
            primes_up_to(10**10)
        # the ceiling is inclusive, and enumeration trips it before counting ideals
        monkeypatch.setattr("lfunclab.ideals.PRIME_SIEVE_CEILING", 100)
        assert len(primes_up_to(100)) == 25
        with pytest.raises(ResourceLimitError, match="prime sieve up to 101"):
            enumerate_ideals(Q, 101)

    def test_bound_below_one_rejected(self):
        with pytest.raises(UsageError):
            enumerate_ideals(Q, 0)


class TestSplitting:
    def test_gaussian_two_ramified(self):
        spl = split_prime(GAUSS, 2)
        assert spl.kind == "ramified"
        assert spl.primes == (((2, 0), 2),)

    def test_gaussian_five_splits(self):
        spl = split_prime(GAUSS, 5)
        assert spl.kind == "split"
        assert [n for _, n in spl.primes] == [5, 5]

    def test_rational_prime(self):
        spl = split_prime(Q, 7)
        assert spl.kind == "rational"
        assert spl.primes == (((7, 0), 7),)

    def test_split_iff_kronecker_one(self):
        field = NumberFieldSpec.quadratic(-1)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            expect = {1: "split", -1: "inert"}[kronecker_symbol(field.discriminant, p)]
            assert split_prime(field, p).kind == expect

    def test_nonprime_rejected(self):
        with pytest.raises(UsageError):
            split_prime(Q, 12)
        # 7 * 13: odd, so only the trial division rejects it
        with pytest.raises(UsageError, match="not a rational prime"):
            split_prime(Q, 91)

    FIRST_PRIME_IDEALS = {
        "Q": [((2, 0), 2), ((3, 0), 3), ((5, 0), 5), ((7, 0), 7)],
        "quadratic(-1)": [((2, 0), 2), ((5, 0), 5), ((5, 1), 5), ((3, 0), 9)],
    }

    @pytest.mark.parametrize("name, field", [("Q", Q), ("quadratic(-1)", GAUSS)])
    def test_prime_ideals_without_the_primality_test(self, name, field, monkeypatch):
        # the sieve's primes skip split_prime's trial division; the list is
        # the checked split_prime's, over trial-divided primes
        bound = 2000
        want = sorted(
            ((pid, norm) for p in range(bound + 1) if is_prime(p)
             for pid, norm in split_prime(field, p).primes if norm <= bound),
            key=lambda t: (t[1], t[0]),
        )
        split_prime.cache_clear()
        monkeypatch.setattr(ideals, "is_prime", lambda n: pytest.fail(f"is_prime({n}) called"))
        assert prime_ideals_up_to(field, bound) == want
        assert prime_ideals_up_to(field, 10) == self.FIRST_PRIME_IDEALS[name]


class TestIntegers:
    PRIMES = primes_up_to(3000).tolist()

    def test_is_prime_matches_sieve(self):
        assert [n for n in range(-5, 3001) if is_prime(n)] == self.PRIMES

    def test_factor_int_rebuilds_n_from_ascending_primes(self):
        assert factor_int(1) == []
        for n in range(2, 3001):
            factors = factor_int(n)
            ps = [p for p, _ in factors]
            assert ps == sorted(set(ps)) and set(ps) <= set(self.PRIMES)
            assert math.prod(p**e for p, e in factors) == n


class TestGcdLcm:
    def test_prime_powers(self):
        p2 = ideal_from_factors(Q, [(((2, 0)), 2)])
        p3 = ideal_from_factors(Q, [(((2, 0)), 3)])
        g, l = gcd_lcm(p2, p3)
        assert g == p2 and l == p3

    def test_unit_identity(self):
        b = ideal_from_int(Q, 84)
        g, l = gcd_lcm(unit_ideal(Q), b)
        assert g == unit_ideal(Q) and l == b

    def test_exponent_min_max(self):
        pq = ideal_from_int(Q, 6)
        p2 = ideal_from_int(Q, 4)
        g, l = gcd_lcm(pq, p2)
        assert g.norm == 2 and l.norm == 12

    def test_field_mismatch(self):
        with pytest.raises(UsageError):
            gcd_lcm(unit_ideal(Q), unit_ideal(GAUSS))

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=4000),
        b=st.integers(min_value=1, max_value=4000),
        c=st.integers(min_value=1, max_value=4000),
        d=st.sampled_from([None, -1, 5, -3]),
    )
    def test_lattice_laws(self, a, b, c, d):
        field = Q if d is None else NumberFieldSpec.quadratic(d)
        ia, ib, ic = (ideal_from_int(field, x) for x in (a, b, c))
        gab, lab = gcd_lcm(ia, ib)
        gba, lba = gcd_lcm(ib, ia)
        assert gab == gba and lab == lba
        # gcd(a, b) * lcm(a, b) has the factorization of a * b
        assert ideal_mul(gab, lab) == ideal_mul(ia, ib)
        # idempotence and associativity
        assert gcd_lcm(ia, ia) == (ia, ia)
        g_ab_c = gcd_lcm(gab, ic)[0]
        g_a_bc = gcd_lcm(ia, gcd_lcm(ib, ic)[0])[0]
        assert g_ab_c == g_a_bc
        for ideal in (gab, lab):
            validate_ideal(ideal)


class TestValidation:
    def test_corrupt_norm_caught(self):
        bad = IdealIndex(Q, (((2, 0), 1),), 3)
        with pytest.raises(InvariantError):
            validate_ideal(bad)

    def test_bad_slot_caught(self):
        bad = IdealIndex(GAUSS, (((3, 1), 1),), 9)
        with pytest.raises(InvariantError):
            validate_ideal(bad)

    def test_quadratic_constructor_rejects_non_squarefree(self):
        with pytest.raises(UsageError):
            NumberFieldSpec.quadratic(12)

    def test_discriminant_convention(self):
        assert NumberFieldSpec.quadratic(-1).discriminant == -4
        assert NumberFieldSpec.quadratic(5).discriminant == 5
        assert NumberFieldSpec.quadratic(-3).discriminant == -3

    def test_prime_ideal_norms(self):
        assert prime_ideal(GAUSS, (3, 0)).norm == 9
        assert prime_ideal(GAUSS, (5, 1)).norm == 5
