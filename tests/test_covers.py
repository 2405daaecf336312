import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfunclab import coeffs, pcg64, ziggurat
from lfunclab.coeffs import default_model, expand_global
from lfunclab.covers import (
    MATRIX_KINDS,
    RECONSTRUCTION_TOL,
    CoefficientMatrix,
    CoverDecomposition,
    PairCoefficientTable,
    bilinear_inequality_check,
    coefficient_matrix,
    cover_add,
    cover_exp,
    cover_mul,
    cover_scale,
    log_decomposition,
    psd_check_full,
    weight_battery,
)
from lfunclab.errors import DataIntegrityError, ResourceLimitError, UsageError
from lfunclab.ideals import (
    NumberFieldSpec,
    enumerate_ideals,
    ideal_from_int,
    unit_ideal,
)
from lfunclab.localdata import (
    character_representation,
    contragredient,
    dirichlet_character_family,
    dirichlet_family_by_modulus,
    make_family,
    synthetic_family,
    trivial_representation,
)
from lfunclab.characters import primitive_characters

from scalar_oracle import PRODUCT_TOL, Column, deviation, scalar_coefficient, scalar_row, ziggurat_walk
from scalar_oracle import weight_battery as numpy_battery

Q = NumberFieldSpec.rationals()

# one family per ramified model: characters (gl1_exact) and GL3 over Q(i) (product)
MODEL_FAMILIES = {
    "gl1_exact": lambda: dirichlet_family_by_modulus(8),
    "product": lambda: synthetic_family(3, 5, seed=5, field=NumberFieldSpec.quadratic(-1)),
}


class TestCoefficientMatrix:
    def test_unit_ideal_all_ones(self, small_char_family):
        m = coefficient_matrix(small_char_family, unit_ideal(Q), "lambda")
        assert np.allclose(m.entries, 1.0)

    def test_gl1_exact_ramified_entry(self):
        chi = primitive_characters(3)[0]
        fam = make_family([character_representation(chi), trivial_representation()])
        m = coefficient_matrix(fam, ideal_from_int(Q, 3), "lambda")
        # chi x dual(chi) induces the trivial character: entry 1 even at p = 3
        assert m.entries[0, 0] == pytest.approx(1.0, abs=1e-13)
        # chi x dual(trivial) = chi itself: vanishes at the ramified prime
        assert m.entries[0, 1] == pytest.approx(0.0, abs=1e-13)

    def test_hermitian(self, small_char_family):
        for n in (2, 6, 9, 12, 35):
            m = coefficient_matrix(small_char_family, ideal_from_int(Q, n), "lambda")
            assert np.abs(m.entries - m.entries.conj().T).max() < 1e-12

    def test_pi0_only_for_centered(self, small_char_family):
        with pytest.raises(UsageError):
            coefficient_matrix(
                small_char_family, ideal_from_int(Q, 2), "lambda",
                pi0=trivial_representation(),
            )


class TestPsdCheck:
    def test_identity(self):
        m = CoefficientMatrix(unit_ideal(Q), "lambda", np.eye(3, dtype=complex))
        min_eig, _, verdict = psd_check_full(m)
        assert verdict and min_eig == pytest.approx(1.0)

    def test_gl1_sweep_small(self, char_family_20):
        table = PairCoefficientTable(char_family_20, "lambda")
        for ideal in enumerate_ideals(Q, 150):
            if ideal.is_unit:
                continue
            m = coefficient_matrix(char_family_20, ideal, "lambda", table=table)
            _, _, verdict = psd_check_full(m)
            assert verdict, f"failed at {ideal}"

    def test_planted_family_still_psd(self):
        fam = synthetic_family(2, 4, seed=23, model=("planted", 2, 0.29))
        table = PairCoefficientTable(fam, "lambda")
        for ideal in enumerate_ideals(Q, 120):
            if ideal.is_unit:
                continue
            m = coefficient_matrix(fam, ideal, "lambda", table=table)
            _, _, verdict = psd_check_full(m)
            assert verdict

    def test_centered_kind_psd(self, gl2_family):
        for n in (2, 3, 4, 9, 30, 64):
            m = coefficient_matrix(gl2_family, ideal_from_int(Q, n), "lambda_centered")
            _, _, verdict = psd_check_full(m)
            assert verdict

    def test_vanishing_centered_matrices_pass(self, tmp_path):
        # at squarefree ideals the centered character matrix cancels to
        # rounding noise, which must not read as a Hermitian defect
        from lfunclab.cli import main

        spec = tmp_path / "family.spec"
        spec.write_text("[family]\nkind = dirichlet_modulus\nqmax = 24\n")
        out = tmp_path / "psd.jsonl"
        argv = ["psd", "--family", str(spec), "--nmax", "30", "--kind", "lambda_centered",
                "--out", str(out), "--format", "jsonl"]
        assert main(argv) == 0

    def test_perturbed_centered_matrix_raises(self):
        fam = dirichlet_family_by_modulus(24)
        m = coefficient_matrix(fam, ideal_from_int(Q, 29), "lambda_centered")
        assert float(np.abs(m.entries).max()) < 1e-13 < m.scale
        psd_check_full(m)
        m.entries[0, 1] += 1e-3
        with pytest.raises(DataIntegrityError, match="Hermitian"):
            psd_check_full(m)

    def test_non_hermitian_raises(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        m = CoefficientMatrix(unit_ideal(Q), "lambda", bad)
        with pytest.raises(DataIntegrityError):
            psd_check_full(m)


class TestBilinearInequality:
    def test_zero_weights_margin_zero(self, small_char_family):
        # the w = 0 case of the bound is the degenerate equality 0 <= 0
        ideal = ideal_from_int(Q, 6)
        m = coefficient_matrix(small_char_family, ideal, "lambda").entries
        w = np.zeros(len(small_char_family.members), dtype=complex)
        quad = np.einsum("i,ij,j->", w, m, w.conj()).real
        assert quad == 0.0

    def test_single_member_mu_reduces_to_pointwise(self):
        chi = primitive_characters(5)[0]
        fam = make_family([character_representation(chi)])
        for n in (2, 4, 5, 10, 30):
            res = bilinear_inequality_check("mu", fam, None, ideal_from_int(Q, n), trials=64, seed=3)
            assert res.worst_margin >= -1e-9

    def test_key_inequality_lambda(self, small_char_family):
        # pi0 = trivial, lambda covers lambda: holds at every ideal
        worst = math.inf
        for n in range(2, 80):
            res = bilinear_inequality_check(
                "lambda", small_char_family, None, ideal_from_int(Q, n), trials=40, seed=1
            )
            worst = min(worst, res.worst_margin)
        assert worst >= -1e-9

    def test_logl_kind(self, gl2_family):
        for n in (2, 3, 4, 8, 9, 25):
            res = bilinear_inequality_check("logl", gl2_family, None, ideal_from_int(Q, n), trials=64, seed=5)
            assert res.worst_margin >= -1e-9

    def test_nontrivial_pi0(self, small_char_family):
        pi0 = small_char_family.members[1]
        for n in (2, 3, 6, 12):
            res = bilinear_inequality_check("mu", small_char_family, pi0, ideal_from_int(Q, n), trials=64, seed=8)
            assert res.worst_margin >= -1e-9


def numpy_normals(seed: int, count: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).standard_normal(count)


class TestWeightBattery:
    """weight_battery and the ziggurat under it against numpy's Generator,
    in every 64-bit word."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        size=st.integers(1, 120),
        trials=st.sampled_from((1, 2, 7, 50, 200)),
        # seeds of one, two and three or more uint32 words
        seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                       st.integers(2**64, 2**140)),
    )
    @example(size=108, trials=200, seed=0)
    @example(size=24, trials=200, seed=31)
    @example(size=1, trials=1, seed=2**64)
    def test_every_word_matches_numpy(self, size, trials, seed):
        got, want = weight_battery(size, trials, seed), numpy_battery(size, trials, seed)
        assert got.shape == want.shape == (trials + size + 1, size)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_long_stream_takes_every_path(self):
        """400,000 draws at seed 0, over seven blocks of the stream: 396,688
        accepted at once, 3,205 in a wedge and 107 in the tail, after 2,760
        rejected words."""
        want, paths = ziggurat_walk(0, 400_000)
        assert paths == {"fast": 396_688, "wedge": 3_205, "tail": 107, "rejected": 2_760}
        numpy_words = numpy_normals(0, 400_000).view(np.uint64)
        assert np.array_equal(np.array(want).view(np.uint64), numpy_words)
        assert np.array_equal(ziggurat.standard_normal(0, 400_000).view(np.uint64), numpy_words)

    @pytest.mark.parametrize("count", [0, 1, 2, 1023, 1024, 1025, 5000])
    def test_counts_at_the_lane_edges(self, count):
        got = ziggurat.standard_normal(5, count)
        assert np.array_equal(got.view(np.uint64), numpy_normals(5, count).view(np.uint64))

    def test_a_block_grows_when_a_rejected_word_reads_past_it(self, monkeypatch):
        """At seed 55 the 1,024 draws take one block of 1,024 words, and a
        rejected word near its end reads past it: the block grows by one
        array step rather than losing those words."""
        takes = []
        take = pcg64.Stream.take

        def counted(stream, count):
            takes.append(count)
            return take(stream, count)

        monkeypatch.setattr(pcg64.Stream, "take", counted)
        got = ziggurat.standard_normal(55, 1024)
        assert takes == [1024, 1]
        assert np.array_equal(got.view(np.uint64), numpy_normals(55, 1024).view(np.uint64))

    def test_cache_is_bounded_and_read_only(self, small_char_family):
        weight_battery.cache_clear()
        for seed in range(10):
            weight_battery(3, 2, seed)
        info = weight_battery.cache_info()
        assert info.currsize == info.maxsize == 4
        assert weight_battery(3, 2, 9) is weight_battery(3, 2, 9)
        ws = weight_battery(3, 2, 9)
        with pytest.raises(ValueError):
            ws[0, 0] = 0
        res = bilinear_inequality_check(
            "mu", small_char_family, None, ideal_from_int(Q, 6), trials=5, seed=2
        )
        with pytest.raises(ValueError):
            res.argmin_weights[0] = 0

    def test_working_memory_is_the_normals_and_the_battery(self):
        """The stream is decoded a block at a time and the battery filled in
        place, so the draw peaks at the normals plus the battery."""
        weight_battery.cache_clear()
        tracemalloc.start()
        try:
            ws = weight_battery(20, 40_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * ws.nbytes

    def test_negative_seed_refused(self):
        with pytest.raises(UsageError, match="non-negative"):
            weight_battery(3, 2, -1)

    def test_ceiling_refused_before_any_draw(self, refuse_large_arrays):
        with pytest.raises(ResourceLimitError):
            weight_battery(20, 10**10, 0)


class TestPairTableMemory:
    def test_table_holds_its_values_and_little_else(self):
        """A pair table is its members, two index arrays and its rows: building
        the 5,886-pair table of the characters mod <= 24 and its first matrix
        peaks within 1.5 MB of the table's own rows."""
        fam = dirichlet_family_by_modulus(24)
        tracemalloc.start()
        try:
            table = PairCoefficientTable(fam, "lambda")
            table.matrix(ideal_from_int(Q, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table._pairs._table.nbytes <= 1.5e6


class TestSharedTable:
    """One table across all ideals gives exactly what a fresh table per ideal gives."""

    @pytest.mark.parametrize("model", sorted(MODEL_FAMILIES))
    @pytest.mark.parametrize("kind", ["lambda", "mu", "logl"])
    def test_bilinear_shared_equals_fresh(self, model, kind):
        fam = MODEL_FAMILIES[model]()
        table = PairCoefficientTable(fam, "lambda")
        assert table.model == model
        for pi0 in (None, fam.members[1]):
            for ideal in enumerate_ideals(fam.field, 30):
                fresh = bilinear_inequality_check(kind, fam, pi0, ideal, trials=20, seed=4)
                shared = bilinear_inequality_check(
                    kind, fam, pi0, ideal, trials=20, seed=4, table=table
                )
                assert shared.worst_margin == fresh.worst_margin
                assert np.array_equal(shared.argmin_weights, fresh.argmin_weights)

    @pytest.mark.parametrize("model", sorted(MODEL_FAMILIES))
    def test_centered_matrix_shared_equals_fresh(self, model):
        fam = MODEL_FAMILIES[model]()
        table = PairCoefficientTable(fam, "lambda")
        for pi0 in (None, fam.members[2]):
            for ideal in enumerate_ideals(fam.field, 40):
                got = coefficient_matrix(fam, ideal, "lambda_centered", pi0=pi0, table=table)
                want = coefficient_matrix(fam, ideal, "lambda_centered", pi0=pi0)
                assert np.array_equal(got.entries, want.entries)


class TestTableMismatch:
    def test_other_kind_rejected(self, small_char_family):
        table = PairCoefficientTable(small_char_family, "lambda")
        with pytest.raises(UsageError, match="pair table"):
            coefficient_matrix(small_char_family, ideal_from_int(Q, 6), "mu", table=table)
        mu_table = PairCoefficientTable(small_char_family, "mu")
        with pytest.raises(UsageError, match="pair table"):
            coefficient_matrix(small_char_family, ideal_from_int(Q, 6), "lambda_centered", table=mu_table)
        with pytest.raises(UsageError, match="pair table"):
            bilinear_inequality_check(
                "mu", small_char_family, None, ideal_from_int(Q, 6), trials=5, table=mu_table
            )

    def test_other_family_rejected(self, small_char_family):
        same_members = make_family(small_char_family.members, label="copy")
        table = PairCoefficientTable(same_members, "lambda")
        with pytest.raises(UsageError, match="pair table"):
            coefficient_matrix(small_char_family, ideal_from_int(Q, 6), "lambda", table=table)

    def test_table_model_follows_the_family(self, small_char_family, gl2_family):
        mixed = make_family(list(small_char_family.members) + [gl2_family.members[0]])
        ideal = ideal_from_int(Q, 6)
        for fam, model in ((small_char_family, "gl1_exact"), (mixed, "product")):
            table = PairCoefficientTable(fam, "lambda")
            assert table.model == model
            got = coefficient_matrix(fam, ideal, "lambda", table=table)
            assert np.array_equal(got.entries, coefficient_matrix(fam, ideal, "lambda").entries)
        # a mixed family's product-model table cannot serve its character members
        with pytest.raises(UsageError, match="pair table"):
            coefficient_matrix(small_char_family, ideal, "lambda", table=table)


class PerEntryAssembly:
    """The assembly the per-prime-power arrays replaced: one column per pair,
    each entry the scalar product of its local values."""

    def __init__(self, family, kind, model):
        self.family, self.model = family, model
        members = family.members
        self.pairs = {
            (i, j): Column(members[i], members[j], kind, model)
            for i in range(len(members))
            for j in range(i, len(members))
        }

    def matrix(self, ideal, kind, pi0):
        size = len(self.family.members)
        m = np.zeros((size, size), dtype=np.complex128)
        for (i, j), col in self.pairs.items():
            v = scalar_coefficient(col, ideal)
            m[i, j] = v
            if j != i:
                m[j, i] = np.conj(v)
        if kind == "lambda_centered":
            base = pi0 or trivial_representation(self.family.field)
            dual = contragredient(base)
            model = default_model(self.family.members + (base,))
            vec = np.array([
                scalar_coefficient(Column(member, dual, "lambda", model), ideal)
                for member in self.family.members
            ])
            w00 = scalar_coefficient(Column(base, base, "lambda", model), ideal)
            m = w00 * m - np.outer(vec, np.conj(vec))
        return m


class TestPerEntryDifferential:
    """coefficient_matrix equals the per-entry assembly bit for bit; where
    product-model lambda or mu enter, within PRODUCT_TOL relative to
    max(1, |entry|)."""

    # (family, norm bound), named by the family's ramified model and field;
    # characters exist over Q only, and a GL2 member puts them under the product model
    CASES = {
        "gl1_exact-Q": (lambda: dirichlet_family_by_modulus(8), 60),
        "product-Q": (
            lambda: make_family(
                list(dirichlet_family_by_modulus(8).members)
                + list(synthetic_family(2, 1, seed=17).members)
            ),
            60,
        ),
        "product-quadratic(-1)": (MODEL_FAMILIES["product"], 130),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_bitwise_equal(self, case, kind):
        make, bound = self.CASES[case]
        fam = make()
        base = "lambda" if kind == "lambda_centered" else kind
        table = PairCoefficientTable(fam, base)
        reference = PerEntryAssembly(fam, base, default_model(fam.members))
        rounded = default_model(fam.members) == "product" and base in ("lambda", "mu")
        factor_counts, zeros = set(), 0
        for ideal in enumerate_ideals(fam.field, bound):
            for pi0 in (None, fam.members[1]) if kind == "lambda_centered" else (None,):
                got = coefficient_matrix(fam, ideal, kind, pi0=pi0, table=table).entries
                want = reference.matrix(ideal, kind, pi0)
                if rounded:
                    assert deviation(got, want) <= PRODUCT_TOL, ideal
                else:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), ideal
                zeros += int(np.count_nonzero(got == 0))
            factor_counts.add(len(ideal.factors))
        assert {1, 2, 3} <= factor_counts
        # biglambda and logl vanish off prime powers, characters at ramified primes
        if kind in ("biglambda", "logl") or case.endswith("-Q"):
            assert zeros > 0

    def test_entry_reads_the_matrix(self):
        fam = dirichlet_family_by_modulus(8)
        table = PairCoefficientTable(fam, "lambda")
        size = len(fam.members)
        for n in (1, 6, 8, 30):
            ideal = ideal_from_int(Q, n)
            m = table.matrix(ideal)
            got = [[table.entry(i, j, ideal) for j in range(size)] for i in range(size)]
            assert np.array_equal(np.array(got).view(np.float64), m.view(np.float64))


class TestVanishingPropagation:
    def test_zero_diagonal_forces_zero_pair(self, small_char_family):
        # product model: lambda_{pi0 x dual pi0}(n) = 0 at ramified n forces
        # lambda_{pi x pi0}(n) = 0 exactly
        chi = primitive_characters(3)[0]
        pi0 = character_representation(chi)
        diag = expand_global(pi0, pi0, 200, "lambda", "product")
        dual = contragredient(pi0)
        for member in small_char_family.members:
            pair = expand_global(member, dual, 200, "lambda", "product")
            for ideal in enumerate_ideals(Q, 200):
                if diag.value(ideal) == 0:
                    assert pair.value(ideal) == 0


def log_terms(dec):
    return sum(len(d) for d, _ in dec.blocks.values())


def relative_deviation(got, want):
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


class TestCoverOps:
    def test_scale_unit_modulus_preserves_d(self, conductor_family_20):
        dec = log_decomposition(conductor_family_20, 50)
        z = complex(math.cos(1.1), math.sin(1.1))
        scaled = cover_scale(dec, z)
        assert scaled.blocks.keys() == dec.blocks.keys()
        for ideal, (d, _) in dec.blocks.items():
            assert np.abs(np.abs(scaled.blocks[ideal][0]) - np.abs(d)).max() < 1e-14

    def test_add_zero_is_identity(self, conductor_family_20):
        dec = log_decomposition(conductor_family_20, 40)
        zero = CoverDecomposition({}, dec.labels, dec.field, dec.norm_bound, {}, {})
        total = cover_add(dec, zero)
        assert total.blocks.keys() == dec.blocks.keys()
        for ideal in dec.blocks:
            assert np.allclose(
                total.reconstruct_covered(ideal), dec.reconstruct_covered(ideal)
            )

    def test_exp_reconstructs_lambda_to_100(self, conductor_family_20):
        dec = log_decomposition(conductor_family_20, 100)
        expd = cover_exp(dec, 100)
        table = PairCoefficientTable(conductor_family_20, "lambda")
        for ideal in enumerate_ideals(Q, 100):
            assert np.abs(expd.reconstruct_covered(ideal) - table.matrix(ideal)).max() < 1e-9

    def test_exp_rejects_constant_term(self, conductor_family_20):
        dec = log_decomposition(conductor_family_20, 30)
        size = len(dec.labels)
        dec.blocks[unit_ideal(Q)] = np.ones(1, dtype=complex), np.ones((1, size), dtype=complex)
        with pytest.raises(UsageError, match="unit-ideal"):
            cover_exp(dec, 30)

    def test_mul_and_exp_claim_no_norm_past_their_factors(self):
        # the true product at 91 = 7 * 13 is 2, but a knows no term at 13
        a = log_decomposition(dirichlet_character_family(5), 12)
        product = cover_mul(a, a, 100)
        assert product.norm_bound == 12
        assert all(ideal.norm <= 12 for ideal in product.blocks)
        assert cover_exp(a, 100).norm_bound == 12

    def test_mul_truncation_too_small(self, conductor_family_20):
        dec = log_decomposition(conductor_family_20, 30)
        with pytest.raises(UsageError):
            cover_mul(dec, dec, 1)

    def test_mul_checks_the_table_ceiling_before_it_allocates(self, monkeypatch):
        a = log_decomposition(dirichlet_family_by_modulus(8), 40)
        terms = sum(
            len(da) * len(db)
            for ia, (da, _) in a.blocks.items()
            for ib, (db, _) in a.blocks.items()
            if ia.norm * ib.norm <= 40
        )
        held = 16 * terms * len(a.labels)
        monkeypatch.setattr(coeffs, "TABLE_BYTES_CEILING", held - 1)
        with monkeypatch.context() as m:
            m.setattr(np, "outer", lambda *args: pytest.fail("allocated before the check"))
            with pytest.raises(ResourceLimitError, match="cover product"):
                cover_mul(a, a, 40)
        monkeypatch.setattr(coeffs, "TABLE_BYTES_CEILING", held)
        assert log_terms(cover_mul(a, a, 40)) == terms

    def test_planted_error_raises(self):
        dec = log_decomposition(MODEL_FAMILIES["product"](), 30)
        dec.verify()
        _, u = dec.blocks[next(iter(dec.blocks))]
        u[0, 0] *= 1 + 1e-6
        with pytest.raises(DataIntegrityError, match="residual"):
            dec.verify()

    def test_residual_is_relative_to_the_cover(self):
        # cover_exp forms A^7 at T = 150, whose entries reach about 5e6: its
        # absolute residual passes RECONSTRUCTION_TOL, its relative one is near 1e-15
        fam = synthetic_family(3, 24, seed=0, field=NumberFieldSpec.quadratic(-1))
        a = cover_scale(log_decomposition(fam, 150), -1)
        power = a
        for _ in range(6):
            power = cover_mul(power, a, 150)
        absolute = max(
            float(np.abs(power.reconstruct_covered(n) - power.target_covered[n]).max())
            for n in power.blocks
        )
        assert absolute > RECONSTRUCTION_TOL
        assert power.verify() < 1e-14
        cover_exp(a, 150)


class TestGl1LogDecomposition:
    def test_single_character_first_term(self):
        chi = primitive_characters(3)[0]
        fam = make_family([character_representation(chi)])
        dec = log_decomposition(fam, 30)
        d, u = dec.blocks[ideal_from_int(Q, 2)]
        assert u[0, 0] == pytest.approx(chi.value(2), abs=1e-14)
        assert d.tolist() == [1]

    def test_reconstruction_matches_logl_coefficients(self, conductor_family_20):
        dec = log_decomposition(conductor_family_20, 500)
        members = conductor_family_20.members
        for i in (0, 2, 4):
            for j in (1, 3, 5):
                # covered entry (i, j) is the log series of member i against
                # the dual of member j, which is what expand_global produces
                series = expand_global(members[i], members[j], 500, "logl", "gl1_exact")
                for ideal in dec.blocks:
                    got = dec.reconstruct_covered(ideal)[i, j]
                    assert got == pytest.approx(series.value(ideal), abs=1e-9)

    def test_trivial_character_weights(self, trivial_rep):
        fam = make_family([trivial_rep])
        dec = log_decomposition(fam, 40)
        for ideal, (_, u) in dec.blocks.items():
            _, f = ideal.factors[0]
            assert u.tolist() == [[pytest.approx(1.0 / math.sqrt(f), abs=1e-14)]]


class TestLogDecomposition:
    """log L as blocks at every prime power, ramified ones included, under each
    model; exp(log) is L and exp(-log) is 1/L."""

    # (family, T): characters (gl1_exact), GL3 over Q(i) and characters with
    # a GL2 member (both product)
    CASES = {
        "gl1_exact-Q": (MODEL_FAMILIES["gl1_exact"], 40),
        "product-quadratic(-1)": (MODEL_FAMILIES["product"], 60),
        "product-Q": (TestPerEntryDifferential.CASES["product-Q"][0], 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocks_are_the_logl_table(self, case):
        make, bound = self.CASES[case]
        fam = make()
        dec = log_decomposition(fam, bound)
        table = PairCoefficientTable(fam, "logl")
        assert set(dec.blocks) == {i for i in enumerate_ideals(fam.field, bound) if len(i.factors) == 1}
        for ideal in enumerate_ideals(fam.field, bound):
            got = dec.reconstruct_covered(ideal)
            assert relative_deviation(got, table.matrix(ideal)) < 1e-9, ideal
            assert np.array_equal(got, dec.reconstruct_cover(ideal))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("sign, kind", [(1, "lambda"), (-1, "mu")])
    def test_exp_rebuilds_the_pair_table(self, case, sign, kind):
        make, bound = self.CASES[case]
        fam = make()
        expd = cover_exp(cover_scale(log_decomposition(fam, bound), sign), bound)
        table = PairCoefficientTable(fam, kind)
        for ideal in enumerate_ideals(fam.field, bound):
            want = table.matrix(ideal)
            assert relative_deviation(expd.reconstruct_covered(ideal), want) < 1e-9, ideal

    def test_term_counts(self):
        for make, bound, log_count, exp_count in (
            (lambda: dirichlet_family_by_modulus(8), 40, 48, 7045),
            (lambda: synthetic_family(3, 24, seed=0, field=NumberFieldSpec.quadratic(-1)), 60, 23, 141),
        ):
            dec = log_decomposition(make(), bound)
            assert (log_terms(dec), log_terms(cover_exp(dec, bound))) == (log_count, exp_count)

    @pytest.mark.parametrize("model", sorted(MODEL_FAMILIES))
    def test_against_the_scalar_oracle(self, model, small_char_family, gl2_family):
        fam = {
            "gl1_exact": small_char_family,
            "product": make_family(small_char_family.members[:3] + gl2_family.members[:1]),
        }[model]
        bound = 30
        ideals = enumerate_ideals(Q, bound)
        log = log_decomposition(fam, bound)
        series = {
            "logl": log,
            "lambda": cover_exp(log, bound),
            "mu": cover_exp(cover_scale(log, -1), bound),
        }
        members = fam.members
        for kind, dec in series.items():
            got = np.array([dec.reconstruct_covered(ideal) for ideal in ideals])
            for i, j in zip(*np.triu_indices(len(members))):
                want = np.array(scalar_row(Column(members[i], members[j], kind, model), ideals))
                assert np.abs(got[:, i, j] - want).max() < 1e-9 * max(1.0, np.abs(want).max())
