import math

import numpy as np
import pytest

from lfunclab.coeffs import _LocalEngine, default_model, expand_global, pair_model
from lfunclab.covers import (
    MATRIX_KINDS,
    CoefficientMatrix,
    CoverDecomposition,
    PairCoefficientTable,
    bilinear_inequality_check,
    coefficient_matrix,
    cover_ops,
    gl1_log_decomposition,
    psd_check_full,
)
from lfunclab.errors import DataIntegrityError, UnsupportedCaseError, UsageError
from lfunclab.ideals import NumberFieldSpec, enumerate_ideals, ideal_from_int, unit_ideal
from lfunclab.localdata import (
    character_representation,
    contragredient,
    dirichlet_family_by_modulus,
    make_family,
    synthetic_family,
    trivial_representation,
)
from lfunclab.characters import primitive_characters

from scalar_oracle import scalar_coefficient

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
    """The assembly the per-prime-power arrays replaced: one _LocalEngine per
    pair, each entry the scalar product of its local values."""

    def __init__(self, family, kind, model):
        self.family, self.model = family, model
        members = family.members
        self.pairs = {
            (i, j): _LocalEngine(members[i], members[j], kind, model)
            for i in range(len(members))
            for j in range(i, len(members))
        }

    def matrix(self, ideal, kind, pi0):
        size = len(self.family.members)
        m = np.zeros((size, size), dtype=np.complex128)
        for (i, j), engine in self.pairs.items():
            v = scalar_coefficient(engine, ideal)
            m[i, j] = v
            if j != i:
                m[j, i] = np.conj(v)
        if kind == "lambda_centered":
            base = pi0 or trivial_representation(self.family.field)
            dual = contragredient(base)
            vec = np.array([
                scalar_coefficient(
                    _LocalEngine(member, dual, "lambda", pair_model(member, base, self.model)), ideal
                )
                for member in self.family.members
            ])
            w00 = scalar_coefficient(
                _LocalEngine(base, base, "lambda", pair_model(base, base, self.model)), ideal
            )
            m = w00 * m - np.outer(vec, np.conj(vec))
        return m


class TestPerEntryDifferential:
    """coefficient_matrix equals the per-entry assembly bit for bit."""

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
        reference = PerEntryAssembly(fam, base, default_model(fam))
        factor_counts, zeros = set(), 0
        for ideal in enumerate_ideals(fam.field, bound):
            for pi0 in (None, fam.members[1]) if kind == "lambda_centered" else (None,):
                got = coefficient_matrix(fam, ideal, kind, pi0=pi0, table=table).entries
                want = reference.matrix(ideal, kind, pi0)
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


class TestCoverOps:
    def test_scale_unit_modulus_preserves_d(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 50)
        z = complex(math.cos(1.1), math.sin(1.1))
        scaled = cover_ops(dec, op="scale", z=z)
        for before, after in zip(dec.terms, scaled.terms):
            assert abs(abs(after.d) - abs(before.d)) < 1e-14

    def test_add_zero_is_identity(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 40)
        zero = CoverDecomposition(
            [], dec.labels, dec.field, dec.norm_bound,
            target_covered={}, target_cover={}, restricted_coprime_to=dec.restricted_coprime_to,
        )
        total = cover_ops(dec, zero, op="add")
        assert {t.ideal for t in total.terms} == {t.ideal for t in dec.terms}
        for ideal in dec.support():
            assert np.allclose(
                total.reconstruct_covered(ideal), dec.reconstruct_covered(ideal)
            )

    def test_exp_reconstructs_lambda_to_100(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 100)
        expd = cover_ops(dec, op="exp", truncation=100)
        table = PairCoefficientTable(conductor_family_20, "lambda")
        size = len(conductor_family_20.members)
        for ideal in expd.support():
            want = np.zeros((size, size), dtype=complex)
            for i in range(size):
                for j in range(size):
                    want[i, j] = table.entry(i, j, ideal)
            got = expd.reconstruct_covered(ideal)
            assert np.abs(got - want).max() < 1e-9

    def test_exp_rejects_constant_term(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 30)
        ones = np.ones(len(dec.labels), dtype=complex)
        from lfunclab.covers import CoverTerm

        dec.terms.append(CoverTerm(1 + 0j, unit_ideal(Q), ones))
        with pytest.raises(UsageError, match="unit-ideal"):
            cover_ops(dec, op="exp", truncation=30)

    def test_mul_truncation_too_small(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 30)
        with pytest.raises(UsageError):
            cover_ops(dec, dec, op="mul", truncation=1)


class TestGl1LogDecomposition:
    def test_single_character_first_term(self):
        chi = primitive_characters(3)[0]
        fam = make_family([character_representation(chi)])
        dec = gl1_log_decomposition(fam, 30)
        term = next(t for t in dec.terms if t.ideal == ideal_from_int(Q, 2))
        assert term.u[0] == pytest.approx(chi.value(2), abs=1e-14)
        assert term.d == 1

    def test_reconstruction_matches_logl_coefficients(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 500)
        members = conductor_family_20.members
        for i in (0, 2, 4):
            for j in (1, 3, 5):
                # covered entry (i, j) is the log series of member i against
                # the dual of member j, which is what expand_global produces
                series = expand_global(members[i], members[j], 500, "logl", "gl1_exact")
                for ideal in dec.support():
                    got = dec.reconstruct_covered(ideal)[i, j]
                    assert got == pytest.approx(series.value(ideal), abs=1e-9)

    def test_trivial_character_weights(self, trivial_rep):
        fam = make_family([trivial_rep])
        dec = gl1_log_decomposition(fam, 40)
        for t in dec.terms:
            _, f = t.ideal.factors[0]
            assert t.u[0] == pytest.approx(1.0 / math.sqrt(f), abs=1e-14)

    def test_ramified_ideal_raises(self, conductor_family_20):
        dec = gl1_log_decomposition(conductor_family_20, 100)
        with pytest.raises(UnsupportedCaseError):
            dec.reconstruct_covered(ideal_from_int(Q, 3))

    def test_non_gl1_family_rejected(self, gl2_family):
        with pytest.raises(UsageError):
            gl1_log_decomposition(gl2_family, 50)
