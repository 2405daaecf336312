import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfunclab import pcg64
from lfunclab.characters import character_group, primitive_characters
from lfunclab.errors import DataIntegrityError, SpecParseError, UsageError
from lfunclab.ideals import NumberFieldSpec, is_prime, prime_ideal, prime_ideals_up_to, split_prime
from lfunclab.localdata import (
    analytic_conductor,
    character_representation,
    contragredient,
    dirichlet_character_family,
    ingest_hecke_eigenvalues,
    parse_family_spec,
    synthetic_family,
    theta_bound,
    trivial_representation,
)
from lfunclab.pcg64 import stream_doubles
from scalar_oracle import member_rng, synthetic_alphas

Q = NumberFieldSpec.rationals()
GAUSS = NumberFieldSpec.quadratic(-1)
# past 2^32, so their spawn keys take two words: 2^32 + 15 is 3 mod 4 (inert
# in Q(i)), the other 1 mod 4 (split)
BIG_PRIMES = (2**32 + 15, next(p for p in range(2**32 + 1, 2**32 + 400, 4) if is_prime(p)))
seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128 - 1), st.integers(2**128, 2**140))


def words(values) -> list[int]:
    """The 64-bit words of a sequence of floats or complex numbers."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64).tolist()


class TestCharacterFamily:
    def test_moduli_covering_q_up_to_five(self, conductor_family_20):
        mods = sorted({m.conductor.norm for m in conductor_family_20.members})
        assert mods == [1, 3, 4, 5]
        assert sum(1 for m in conductor_family_20.members if m.conductor.norm == 5) == 3

    def test_mod3_alpha_at_two(self):
        rep = character_representation(primitive_characters(3)[0])
        alpha = rep.local_at(prime_ideal(Q, (2, 0))).alphas[0]
        assert abs(alpha + 1) < 1e-12

    def test_trivial_alpha_everywhere_one(self, trivial_rep):
        for p in (2, 3, 5, 97):
            assert trivial_rep.local_at(prime_ideal(Q, (p, 0))).alphas == (1 + 0j,)

    def test_ramified_alpha_zero(self):
        rep = character_representation(primitive_characters(3)[0])
        assert rep.local_at(prime_ideal(Q, (3, 0))).alphas == (0j,)

    def test_orthogonality_up_to_fifty(self):
        for q in range(1, 51):
            chars = character_group(q)
            phi = sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)
            ns = np.arange(max(q, 1))
            tables = np.stack([c.values(ns) for c in chars])
            gram = tables @ tables.conj().T
            assert np.abs(gram - phi * np.eye(len(chars))).max() < 1e-9


class TestAnalyticConductor:
    def test_trivial_is_three(self, trivial_rep):
        assert analytic_conductor(trivial_rep, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_mod3_is_twelve(self):
        rep = character_representation(primitive_characters(3)[0])
        assert analytic_conductor(rep, 0.0) == pytest.approx(12.0, abs=1e-12)

    def test_monotone_in_t(self, trivial_rep, gl2_family):
        for rep in [trivial_rep, gl2_family.members[0]]:
            values = [analytic_conductor(rep, t) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestSynthetic:
    def test_grc_conjugate_stable_pairs(self):
        fam = synthetic_family(2, 1, seed=0)
        params = fam.members[0].local_at(prime_ideal(Q, (11, 0))).alphas
        assert abs(params[0] - params[1].conjugate()) < 1e-15
        assert all(abs(abs(a) - 1) < 1e-12 for a in params)

    def test_planted_magnitude(self):
        fam = synthetic_family(2, 2, seed=1, model=("planted", 2, 0.2))
        top = fam.members[0].local_at(prime_ideal(Q, (2, 0))).max_abs()
        assert top == pytest.approx(2**0.2, abs=0)

    def test_identical_seeds_bit_identical(self):
        a = synthetic_family(3, 2, seed=42)
        b = synthetic_family(3, 2, seed=42)
        for p in (2, 3, 5, 7):
            prime = prime_ideal(Q, (p, 0))
            for ma, mb in zip(a.members, b.members):
                assert ma.local_at(prime).alphas == mb.local_at(prime).alphas

    def test_different_seeds_differ(self):
        a = synthetic_family(2, 1, seed=1)
        b = synthetic_family(2, 1, seed=2)
        prime = prime_ideal(Q, (5, 0))
        assert a.members[0].local_at(prime).alphas != b.members[0].local_at(prime).alphas

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            synthetic_family(2, 1, seed=0, model=("planted", 2, 0.31))

    def test_magnitude_invariant_holds(self):
        fam = synthetic_family(3, 2, seed=5, model=("planted", 3, 0.39))
        for p in (2, 3, 5):
            prime = prime_ideal(Q, (p, 0))
            cap = prime.norm ** theta_bound(3) * (1 + 1e-12)
            for m in fam.members:
                assert m.local_at(prime).max_abs() <= cap

    def test_quadratic_field_synthetic(self):
        field = NumberFieldSpec.quadratic(-1)
        fam = synthetic_family(2, 2, seed=3, field=field)
        prime = prime_ideal(field, (3, 0))  # inert, norm 9
        assert len(fam.members[0].local_at(prime).alphas) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStreamDoubles:
    """stream_doubles against numpy's Generator, one generator per key; the
    uint64 arithmetic must wrap without a RuntimeWarning (numpy scalars warn
    on overflow, arrays do not)."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=seeds,
        keys=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 30), st.integers(2**32, 2**40)),
                st.one_of(st.sampled_from((2, 3, 5, 7, 4294967291) + BIG_PRIMES), st.integers(2, 2**64 - 1)),
                st.integers(0, 1),
            ),
            min_size=1, max_size=12,
        ),
        width=st.integers(1, 4),
    )
    @example(seed=0, keys=[(0, 2, 0)], width=1)
    @example(seed=2**130 + 3, keys=[(23, 4294967291, 1), (5, 2**32 + 15, 0), (2**32, 3, 1)], width=3)
    def test_every_word_matches_numpy(self, seed, keys, width):
        members, ps, slots = zip(*keys)
        got = stream_doubles(seed, members, ps, slots, width)
        want = []
        for member, p, slot in keys:
            rng = member_rng(seed, member, (p, slot))
            want.append([rng.random() for _ in range(width)])
        assert got.shape == (len(keys), width)
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        count=st.integers(1, 3),
        seed=seeds,
        field=st.sampled_from((Q, GAUSS)),
        planted=st.one_of(st.none(), st.tuples(st.sampled_from((2, 3, 5)), st.floats(0.0, 1.0))),
        order=st.randoms(use_true_random=False),
    )
    @example(n=3, count=2, seed=2**128 + 7, field=GAUSS, planted=(5, 0.5), order=None)
    @example(n=6, count=1, seed=2**32 + 1, field=Q, planted=(2, 1.0), order=None)
    def test_family_matches_the_oracle(self, n, count, seed, field, planted, order):
        """Every parameter of every member, in every word, at prime ideals
        reached in sequence, out of order and far past the drawn range."""
        model = "grc"
        if planted is not None and n >= 2:
            model = ("planted", planted[0], planted[1] * theta_bound(n))
        fam = synthetic_family(n, count, seed, model, field)
        pids = [pid for pid, _ in prime_ideals_up_to(field, 40)]
        pids += [pid for p in BIG_PRIMES for pid, _ in split_prime(field, p).primes]
        if order is not None:
            order.shuffle(pids)
        for pid in pids:
            prime = prime_ideal(field, pid)
            for i, member in enumerate(fam.members):
                alphas = member.local_at(prime).alphas
                assert words(alphas) == words(synthetic_alphas(n, seed, model, i, prime))

    def test_one_call_per_doubling(self, monkeypatch):
        """A run through the prime ideals in norm order draws in about log2 X
        calls; a prime ideal far past the drawn range is drawn alone."""
        calls = []
        kernel = pcg64.stream_doubles

        def counted(seed, members, ps, slots, width):
            calls.append(len(members))
            return kernel(seed, members, ps, slots, width)

        monkeypatch.setattr(pcg64, "stream_doubles", counted)
        fam = synthetic_family(3, 4, 0, field=GAUSS)
        primes = [prime_ideal(GAUSS, pid) for pid, _ in prime_ideals_up_to(GAUSS, 1000)]
        for prime in primes:
            for member in fam.members:
                member.local_at(prime)
        assert len(calls) <= math.log2(1000) + 1
        assert sum(calls) <= 4 * len(prime_ideals_up_to(GAUSS, 2000))
        drawn = len(calls)
        far = prime_ideal(GAUSS, (BIG_PRIMES[1], 1))
        for member in fam.members:
            member.local_at(far)
        assert calls[drawn:] == [4]

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError, match="non-negative"):
            synthetic_family(2, 1, seed=-1)


class TestContragredient:
    def test_parameters_conjugated(self):
        fam = synthetic_family(2, 1, seed=9)
        rep = fam.members[0]
        dual = contragredient(rep)
        prime = prime_ideal(Q, (7, 0))
        assert dual.local_at(prime).alphas == tuple(
            a.conjugate() for a in rep.local_at(prime).alphas
        )

    def test_involution(self):
        rep = character_representation(primitive_characters(5)[0])
        double = contragredient(contragredient(rep))
        prime = prime_ideal(Q, (2, 0))
        assert double.local_at(prime).alphas == rep.local_at(prime).alphas
        assert double.conductor == rep.conductor

    def test_character_table_conjugated(self):
        chi = primitive_characters(5)[0]
        rep = character_representation(chi)
        dual = contragredient(rep)
        for n in range(5):
            assert abs(dual.character.value(n) - chi.value(n).conjugate()) < 1e-14


class TestHeckeIngestion:
    def test_fixture_matches_eta_product(self, delta_csv):
        # the frozen a_p file against an independent in-test eta-product expansion
        from conftest import ramanujan_tau_table

        taus = ramanujan_tau_table(100)
        table = {}
        with open(delta_csv) as fh:
            next(fh)
            for line in fh:
                p, ap = line.split(",")
                table[int(p)] = int(ap)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            assert table[p] == taus[p - 1]

    def test_delta_lambda_two(self, delta_csv):
        rep = ingest_hecke_eigenvalues(delta_csv, weight=12, level=1)
        params = rep.local_at(prime_ideal(Q, (2, 0))).alphas
        lam = sum(params).real
        assert lam == pytest.approx(-24 / 2**5.5, abs=1e-12)
        assert lam == pytest.approx(-0.530330086, abs=1e-9)

    def test_satake_pair_product_one(self, delta_csv):
        rep = ingest_hecke_eigenvalues(delta_csv, weight=12, level=1)
        for p in (2, 3, 5, 7, 97):
            a1, a2 = rep.local_at(prime_ideal(Q, (p, 0))).alphas
            assert abs(a1 * a2 - 1) < 1e-10
            assert abs(abs(a1) - 1) < 1e-10  # Deligne bound puts them on the circle

    def test_empty_file_fails_loudly_on_use(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("p,a_p\n")
        rep = ingest_hecke_eigenvalues(str(path), weight=12, level=1)
        with pytest.raises(DataIntegrityError, match="p = 2"):
            rep.local_at(prime_ideal(Q, (2, 0)))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,a_p\n2,-24\n3;252\n")
        with pytest.raises(SpecParseError, match="3"):
            ingest_hecke_eigenvalues(str(path), weight=12, level=1)

    def test_non_prime_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("4,10\n")
        with pytest.raises(SpecParseError, match="not prime"):
            ingest_hecke_eigenvalues(str(path), weight=12, level=1)

    def test_eigenvalue_ceiling_enforced(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("2,100\n")  # |lambda| = 100/2^5.5 far beyond 2^0.3 + 2^-0.3
        with pytest.raises(DataIntegrityError, match="ceiling"):
            ingest_hecke_eigenvalues(str(path), weight=12, level=1)

    def test_ramified_level_prime_stores_zero(self, tmp_path):
        path = tmp_path / "lvl.csv"
        path.write_text("2,-1\n3,1\n")
        rep = ingest_hecke_eigenvalues(str(path), weight=2, level=2)
        a1, a2 = rep.local_at(prime_ideal(Q, (2, 0))).alphas
        assert a2 == 0 and abs(a1 + 1 / 2**0.5) < 1e-12


class TestFamilySpecFiles:
    def test_dirichlet_spec(self, tmp_path):
        path = tmp_path / "fam.spec"
        path.write_text("[family]\nfield = rationals\nkind = dirichlet\nqmax = 20\n")
        fam = parse_family_spec(str(path))
        assert sorted({m.conductor.norm for m in fam.members}) == [1, 3, 4, 5]

    def test_synthetic_planted_spec(self, tmp_path):
        path = tmp_path / "fam.spec"
        path.write_text(
            "[family]\nkind = synthetic\nn = 2\ncount = 3\nseed = 4\n"
            "model = planted(p=2,theta=0.25)\n"
        )
        fam = parse_family_spec(str(path))
        assert len(fam.members) == 3
        assert fam.members[0].theta_hint == 0.25

    def test_hecke_spec(self, tmp_path, delta_csv):
        path = tmp_path / "fam.spec"
        path.write_text(f"[family]\nkind = hecke\npath = {delta_csv}\nweight = 12\nlevel = 1\n")
        fam = parse_family_spec(str(path))
        assert fam.members[0].degree == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "fam.spec"
        path.write_text("[family]\nkind = dirichlet\nqmax twenty\n")
        with pytest.raises(SpecParseError) as err:
            parse_family_spec(str(path))
        assert err.value.line == 3

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "fam.spec"
        path.write_text("[family]\nkind = maass\n")
        with pytest.raises(SpecParseError):
            parse_family_spec(str(path))


class TestFamilyQ:
    def test_q_is_max_conductor(self, small_char_family):
        want = max(analytic_conductor(m, 0.0) for m in small_char_family.members)
        assert small_char_family.max_conductor == want
