import ast
import json
import os
import subprocess
import sys

import pytest

from lfunclab import characters, cli, coeffs, covers, detect, ideals, localdata, sieve
from lfunclab.cli import COMMANDS, main
from lfunclab.errors import UsageError
from lfunclab.ideals import enumerate_ideals
from lfunclab.localdata import parse_family_spec
from lfunclab.report import emit_report


class TestEmitReport:
    def test_empty_records_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], "csv", str(path), columns=["a", "b"], config={"cmd": "x"})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config")
        assert lines[1] == "a,b" and len(lines) == 2

    def test_empty_records_need_columns(self, tmp_path):
        with pytest.raises(UsageError):
            emit_report([], "csv", str(tmp_path / "e.csv"))

    def test_complex_values_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            emit_report([{"z": 1 + 2j}], "csv", str(tmp_path / "c.csv"))

    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "f.csv"
        value = 0.1 + 0.2  # 0.30000000000000004
        emit_report([{"v": value}], "csv", str(path))
        cell = path.read_text().splitlines()[-1]
        assert float(cell) == value and "30000000000000004" in cell


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODULUS_100_SPEC = os.path.join(os.path.dirname(SRC_DIR), "tests", "data", "dirichlet_modulus_100.spec")

SCIPY_MODULES = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def fresh_python(code: str):
    """Run code in a new interpreter with src/ importable; parse its JSON stdout."""
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


class TestStartup:
    @pytest.mark.parametrize("module", ["lfunclab.cli", "lfunclab"])
    def test_import_loads_no_scipy(self, module):
        loaded = fresh_python(f"import json, sys, {module}; print(json.dumps({SCIPY_MODULES}))")
        assert loaded == []

    def test_cli_import_loads_no_numpy(self):
        loaded = fresh_python(
            "import json, sys, lfunclab.cli\n"
            "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')]))"
        )
        assert loaded == []

    def test_a_subcommand_loads_only_what_it_runs(self, tmp_path):
        code = (
            "import contextlib, json, sys\n"
            "from lfunclab.cli import main\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            f"    assert main(['constants', '--out', {str(tmp_path / 'c.csv')!r}]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lfunclab.'))))"
        )
        loaded = fresh_python(code)
        assert "lfunclab.detect" in loaded
        for module in ("covers", "sieve", "coeffs", "characters", "ideals", "localdata"):
            assert f"lfunclab.{module}" not in loaded

    @staticmethod
    def loaded_after(argv, tmp_path, package: str) -> list[str]:
        """The modules of the package that a fresh interpreter holds after
        main(argv), where "{spec}" names a GL3 family over Q(i) with 3
        synthetic members."""
        spec = tmp_path / "family.spec"
        spec.write_text("[family]\nfield = quadratic(-1)\nkind = synthetic\nn = 3\ncount = 3\nseed = 5\n")
        argv = [a.format(spec=spec) for a in argv]
        argv += ["--out", str(tmp_path / "report.csv"), "--format", "csv"]
        code = (
            "import contextlib, json, sys\n"
            "from lfunclab.cli import main\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            f"    assert main({argv!r}) == 0\n"
            f"print(json.dumps([m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})]))"
        )
        return fresh_python(code)

    @pytest.mark.parametrize("command", [
        ["psd", "--nmax", "20", "--family", "{spec}"],
        ["covers", "--nmax", "12", "--trials", "5", "--family", "{spec}"],
        ["large-sieve", "--n", "20,40", "--family", "{spec}"],
    ])
    def test_product_model_subcommands_load_no_numpy_ma(self, command, tmp_path):
        """np.unique imports numpy.ma (milliseconds and a megabyte of RSS per
        process); the product-model family steps do not call it."""
        assert self.loaded_after(command, tmp_path, "numpy.ma") == []

    def test_sieve_weights_loads_no_numpy_ma(self, tmp_path):
        """Nor does the Selberg brute force."""
        assert self.loaded_after(["sieve-weights", "--z", "300"], tmp_path, "numpy.ma") == []

    @pytest.mark.parametrize("command", [
        ["psd", "--nmax", "20", "--family", "{spec}"],
        ["large-sieve", "--n", "20,40", "--family", "{spec}"],
        ["density", "--p", "2", "--theta", "0.3"],
    ])
    def test_synthetic_members_load_no_numpy_random(self, command, tmp_path):
        """Synthetic parameters come from pcg64.stream_doubles; importing
        numpy.random costs about 6 MB of peak RSS per process."""
        assert self.loaded_after(command, tmp_path, "numpy.random") == []

    def test_only_steps_that_draw_compile_the_stream_kernel(self, tmp_path):
        """Each step compiles the modules it imports (PYTHONDONTWRITEBYTECODE
        runs), which raises its peak RSS: the stream kernel loads on the
        first draw, and the ziggurat with its tables only where a weight
        battery is drawn."""
        steps = {
            "psd": ["psd", "--nmax", "20", "--family", "{spec}"],
            "covers": ["covers", "--nmax", "12", "--trials", "5", "--family", "{spec}"],
            "large-sieve": ["large-sieve", "--n", "20,40", "--family", "{spec}"],
            "mvt": ["mvt", "--x", "30", "--t", "1"],
        }
        loaded = {name: self.loaded_after(argv, tmp_path, "lfunclab") for name, argv in steps.items()}
        loading = lambda module: [name for name in steps if module in loaded[name]]
        assert loading("lfunclab.pcg64") == ["psd", "covers", "large-sieve"]
        assert loading("lfunclab.ziggurat") == ["covers"]

    def test_covers_loads_no_numpy_random(self, tmp_path):
        """The weight battery comes from ziggurat.standard_normal."""
        command = ["covers", "--nmax", "12", "--trials", "5", "--family", "{spec}"]
        assert self.loaded_after(command, tmp_path, "numpy.random") == []

    def test_no_numpy_random_in_src(self):
        """No file in src/, its selftests included, draws from numpy.random."""
        users = []
        for dirpath, _, names in os.walk(SRC_DIR):
            for name in sorted(n for n in names if n.endswith(".py")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    is_random = (isinstance(node, ast.Attribute) and node.attr == "random"
                                 and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
                    is_import = (isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                        "numpy.random" in (alias.name if isinstance(node, ast.Import) else node.module or "")
                        for alias in node.names)) or (
                        isinstance(node, ast.ImportFrom) and node.module == "numpy"
                        and any(alias.name == "random" for alias in node.names))
                    if is_random or is_import:
                        users.append(f"{name}:{node.lineno}")
        assert users == []

    def test_deferred_scipy_values(self):
        """The two numerical kernels that once imported scipy load none of it."""
        code = (
            "import json, sys\n"
            "from lfunclab.sieve import phi_hat\n"
            "from lfunclab.detect import _hd_tail_bound\n"
            "a, b = phi_hat(1.0), phi_hat(complex(0.5, 2.0))\n"
            "tail, flags = _hd_tail_bound(0.1, 3, 10000)\n"
            f"print(json.dumps({{'scipy': {SCIPY_MODULES},\n"
            "    'phi': [a.real, a.imag, b.real, b.imag], 'tail': [tail], 'flags': flags}))\n"
        )
        out = fresh_python(code)
        assert out["scipy"] == []
        want_phi = [4.560161743051781, 0.0, 0.493062890324944, 0.8037278326081274]
        assert out["phi"] == pytest.approx(want_phi, rel=1e-12, abs=0.0)
        assert out["tail"] == pytest.approx([1.0291280915292738], rel=1e-12)
        assert out["flags"] == []

    def test_no_scipy_import_in_src(self):
        imported = []
        for dirpath, _, names in os.walk(SRC_DIR):
            for name in sorted(n for n in names if n.endswith(".py")):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    imported += [f"{name}:{node.lineno}" for m in modules
                                 if m == "scipy" or m.startswith("scipy.")]
        assert imported == []


def run(tmp_path, *argv):
    return main(list(argv))


class TestExitCodes:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["constants", "--bogus"])
        assert err.value.code == 2

    def test_corrupted_family_file_exits_two_with_line(self, tmp_path, capsys):
        bad = tmp_path / "fam.spec"
        bad.write_text("[family]\nkind = dirichlet\nqmax twenty\n")
        code = main(["psd", "--family", str(bad), "--nmax", "10",
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_unwritable_path_exits_four(self, tmp_path, capsys):
        code = main(["constants", "--out", str(tmp_path / "nodir" / "x.csv")])
        assert code == 4

    def test_negative_synthetic_seed_exits_two(self, tmp_path, capsys):
        code = main(["density", "--p", "2", "--theta", "0.3", "--seed", "-1",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_negative_covers_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["covers", "--nmax", "6", "--seed", "-1", "--out", str(out)]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error_exits_two(self, tmp_path, capsys):
        code = main(["detect", "--eta", "0.9", "--log-scale", "40",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sifted", "--x", "200", "--z", "1e300"],
            ["density", "--p", "2", "--epsilon", "1e300"],
            ["ingest", "--hecke", os.path.join(os.path.dirname(MODULUS_100_SPEC), "delta_ap_10000.csv"),
             "--weight", "10000000000"],
        ],
    )
    def test_past_the_float_range_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["psd", "--nmax", "10000000000"],
            ["detect", "--eta", "0.05", "--log-scale", "40", "--truncation", "10000000000"],
            ["sieve-weights", "--z", "1e12"],
            ["mvt", "--x", "30", "--t", "1e12"],
            # 1,649,836 pairs x 64 table rows x 16 bytes = 1.69 GB; refused in about 0.2 s
            ["psd", "--family", MODULUS_100_SPEC, "--nmax", "2000"],
            # 1,816 members x 200,000 ideals x 16 bytes = 5.8 GB of rows; refused in about 2 s
            ["large-sieve", "--gl1", "--qmax", "100", "--n", "200000"],
            # a (10^10 + 7) x 6 weight battery of 960 GB, refused before any draw
            ["covers", "--nmax", "4", "--trials", "10000000000"],
            # 16,671 members: a 16,671 x 16,671 Gram of 4.4 GB, refused before it is allocated
            ["large-sieve", "--gl1", "--qmax", "300", "--n", "2"],
            # the characters of modulus <= 333,333: about 10^17 bytes of angle tables
            ["count", "--q", "1e6"],
            # the characters of modulus <= 10^30, refused before any is built
            ["large-sieve", "--gl1", "--qmax", "1" + "0" * 30],
        ],
    )
    def test_past_a_ceiling_exits_two_before_allocating(
        self, argv, tmp_path, capsys, refuse_large_arrays
    ):
        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "exceed" in capsys.readouterr().err
        assert not out.exists()

    def test_selftest_passes(self, capsys):
        assert main(["constants", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_data_integrity_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "zeros.txt"
        bad.write_text("1.5,3.0\n")  # beta outside the critical strip
        code = main(["ingest", "--zeros", str(bad), "--out", str(tmp_path / "z.csv")])
        assert code == 3

    def test_psd_failure_report_keeps_format_and_config(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["psd", "--nmax", "10", "--tol", "0", "--format", "csv", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invariant failure: matrix at norm 2 has min eigenvalue ")
        first, header, *rows = out.read_text().splitlines()
        config = json.loads(first[len("# config = "):])
        assert config["family_label"] == "dirichlet(C<=20)" and config["tol"] == 0
        assert header == "ideal_norm,kind,min_eig,margin,seed,verdict"
        assert [row.split(",")[-1] for row in rows] == ["true"] * (len(rows) - 1) + ["false"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve-weights", "--z", "20", "--member", "1"],
            ["sieve-weights", "--z", "20", "--member", "-1"],
            ["residue", "--x", "50", "--a", "3"],
            ["residue", "--x", "50", "--b", "-1"],
            ["large-sieve", "--n", "abc"],
            ["large-sieve", "--n", ","],
            ["psd", "--nmax", "10", "--tol=-1e-9"],
            ["detect", "--eta", "0.05", "--log-scale", "40", "--truncation", "0"],
            ["count", "--q", "0"],
            ["count", "--q", "12", "--n", "0"],
            ["count", "--q", "12", "--n", "-1"],
            ["mvt", "--x", "30", "--t", "0"],
            ["mvt", "--x", "30", "--t=-1"],
            ["mvt", "--x", "30", "--variant", "tail", "--y", "10", "--truncation", "5"],
        ],
    )
    def test_bad_flag_value_exits_two_before_any_report(self, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sieve-weights", "--z", "nan"], "--z"),
            (["residue", "--x", "1200", "--t", "nan"], "--t"),
            (["detect", "--eta", "0.05", "--log-scale", "inf"], "--log-scale"),
            (["count", "--q", "inf"], "--q"),
            (["sifted", "--x", "3000", "--z", "nan"], "--z"),
            (["mvt", "--x", "1e999"], "--x"),  # past the float range, so inf
        ],
    )
    def test_float_flag_that_is_not_finite_exits_two(self, argv, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(COMMANDS, argv[0], (lambda args: pytest.fail("the handler ran"), ()))
        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be a finite number")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--eta", "0.05", "--log-scale", "1e300"],  # the automatic k = ceil(M_eta)
            ["detect", "--eta", "0.05", "--log-scale", "40", "--k", "100000000000000000000"],
        ],
    )
    def test_k_past_2_53_exits_two_before_the_series(self, argv, tmp_path, capsys, monkeypatch):
        """Past 2^53 a float no longer holds k, so log_jk would weigh another k."""
        monkeypatch.setattr(coeffs, "expand_global", lambda *a, **k: pytest.fail("a series was built"))
        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "exceeds 2^53" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["psd"], ["covers", "--trials", "5"]])
    def test_nmax_1_exits_two_before_the_pair_table(self, command, tmp_path, capsys, monkeypatch):
        """Norm 1 holds only the unit ideal, so the sweep would check nothing."""
        monkeypatch.setattr(covers, "PairCoefficientTable", lambda *a: pytest.fail("the pair table was built"))
        out = tmp_path / "r.jsonl"
        assert main(command + ["--nmax", "1", "--out", str(out)]) == 2
        assert "--nmax must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_shape_past_the_float_range_exits_two(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["count", "--q", "1e200", "--n", "2", "--out", str(out)]) == 2
        assert "float range" in capsys.readouterr().err
        assert not out.exists()


# the modules each subcommand's --selftest runs, in order
SELFTEST_MODULES = {
    "constants": ["detect"],
    "large-sieve": ["sieve", "ideals"],
    "psd": ["covers", "coeffs"],
    "covers": ["covers", "coeffs"],
    "sieve-weights": ["sieve"],
    "sifted": ["sieve"],
    "residue": ["sieve"],
    "mvt": ["sieve"],
    "detect": ["detect"],
    "density": ["detect", "localdata"],
    "count": ["detect", "localdata"],
    "ingest": ["localdata", "characters"],
}

class TestSelftest:
    def test_every_subcommand_has_a_selftest_entry(self):
        assert set(cli.COMMANDS) == set(SELFTEST_MODULES)

    @pytest.mark.parametrize("command", sorted(SELFTEST_MODULES))
    def test_runs_owning_modules_in_order(self, command, monkeypatch, capsys):
        for module in (characters, coeffs, covers, detect, ideals, localdata, sieve):
            monkeypatch.setattr(module, "selftest", lambda: [("stub", True, "")])
        assert main([command, "--selftest"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        assert last == "selftest: all checks passed"
        assert [line.split()[1].rstrip(":") for line in lines] == SELFTEST_MODULES[command]

    @pytest.mark.parametrize(
        "module", [characters, coeffs, covers, detect, ideals, localdata, sieve],
        ids=lambda module: module.__name__.split(".")[-1],
    )
    def test_module_checks_pass(self, module):
        failed = [(name, detail) for name, ok, detail in module.selftest() if not ok]
        assert failed == []

    def test_required_flags_still_required_without_selftest(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sieve-weights", "--member", "0"])
        assert err.value.code == 2
        assert "the following arguments are required: --z" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants"],
            ["large-sieve", "--gl1", "--qmax", "5", "--n", "50,100"],
            ["psd", "--nmax", "40", "--format", "jsonl"],
            ["covers", "--nmax", "20", "--trials", "25", "--seed", "11"],
            ["density", "--p", "2", "--theta", "0.3", "--seed", "4"],
            ["sieve-weights", "--z", "20"],
        ],
    )
    def test_reruns_byte_identical(self, tmp_path, argv):
        out = tmp_path / "run.report"
        assert main(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == first


class TestReports:
    def test_config_echo_in_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["constants", "--out", str(out)])
        first = out.read_text().splitlines()[0]
        assert first.startswith("# config = ")
        payload = json.loads(first[len("# config = "):])
        assert payload["command"] == "constants"

    def test_jsonl_round_trip_preserves_digits(self, tmp_path):
        out = tmp_path / "c.jsonl"
        main(["constants", "--format", "jsonl", "--out", str(out)])
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert "config" in header
        values = {}
        for line in lines[1:]:
            rec = json.loads(line)
            values[rec["name"]] = rec["value"]
        from lfunclab.detect import solve_constants

        cs = solve_constants()
        assert values["alpha"] == cs.alpha  # exact round trip through 17 digits
        assert values["A1"] == cs.a1

    def test_large_sieve_row_within_classical_bound(self, tmp_path):
        out = tmp_path / "ls.csv"
        main(["large-sieve", "--gl1", "--qmax", "10", "--n", "200", "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["measured_C"]) <= 200 + 10**2 - 1
        assert row["shape_only"] == "true"

    def test_ingest_hecke_echo(self, tmp_path, delta_csv):
        out = tmp_path / "ing.csv"
        assert main(["ingest", "--hecke", delta_csv, "--weight", "12",
                     "--level", "1", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["p"] == "2"
        assert abs(float(row["lambda_p"]) - (-0.5303300858899107)) < 1e-12

    def test_ingest_requires_an_input(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path / "x.csv")]) == 2

    def test_detect_with_zeros_file(self, tmp_path, zeta_zeros_path):
        out = tmp_path / "det.csv"
        code = main([
            "detect", "--eta", "0.05", "--log-scale", "40",
            "--truncation", "2000", "--zeros", zeta_zeros_path, "--out", str(out),
        ])
        assert code == 0
        body = out.read_text()
        assert "near_zero_triggered" in body

    def test_mvt_report(self, tmp_path):
        out = tmp_path / "mvt.csv"
        assert main(["mvt", "--x", "30", "--t", "1", "--out", str(out)]) == 0
        assert "shape_only" in out.read_text()

    def test_residue_report(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["residue", "--x", "150", "--d", "6", "--out", str(out)]) == 0

    def test_sifted_report(self, tmp_path):
        out = tmp_path / "sift.csv"
        assert main(["sifted", "--x", "200", "--z", "5", "--out", str(out)]) == 0

    def test_count_report(self, tmp_path):
        out = tmp_path / "count.csv"
        assert main(["count", "--q", "12", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["enumerated"] == "2"

    def test_threads_flag_accepted_without_effect(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["constants", "--threads", "1", "--out", str(a)])
        main(["constants", "--threads", "8", "--out", str(b)])
        # results identical; only the echoed config differs
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert strip(a) == strip(b)
        assert '"threads": 8' in b.read_text().splitlines()[0]


class TestKernelBuildCounts:
    """A family run builds its pair kernels once: counted, not timed."""

    SPECS = {
        "chars": "[family]\nkind = dirichlet_modulus\nqmax = 6\n",
        "quadratic": "[family]\nfield = quadratic(-1)\nkind = synthetic\nn = 3\ncount = 5\nseed = 5\n",
    }
    NMAX = 20
    COMMANDS = {
        "covers": ["covers", "--trials", "5"],
        "psd-lambda_centered": ["psd", "--kind", "lambda_centered"],
    }

    @pytest.mark.parametrize("family", sorted(SPECS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_table_and_per_member_kernels(self, family, command, tmp_path, monkeypatch):
        spec = tmp_path / "family.spec"
        spec.write_text(self.SPECS[family])
        tables, sums = [], []

        def counted(record, real):
            def wrapper(*args, **kwargs):
                record.append(args[0])
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            covers.PairCoefficientTable, "__init__",
            counted(tables, covers.PairCoefficientTable.__init__),
        )
        monkeypatch.setattr(coeffs, "power_sum", counted(sums, coeffs.power_sum))
        filled = self.record_fills(monkeypatch)
        out = tmp_path / "report.jsonl"
        argv = self.COMMANDS[command] + [
            "--family", str(spec), "--nmax", str(self.NMAX), "--out", str(out), "--format", "jsonl",
        ]
        assert main(argv) == 0

        fam = parse_family_spec(str(spec))
        size = len(fam.members)
        prime_powers = [q for q in enumerate_ideals(fam.field, self.NMAX) if len(q.factors) == 1]
        assert len(tables) == 1
        # the tables are filled before the loop, each prime's exponents in one
        # piece, so each member's power sums p_1..p_e at p are taken once per
        # prime power: the members in the pair table, again with the dual
        # trivial member in the pi0 column, and pi0 in its diagonal; a
        # per-pair kernel would take two per pair
        assert len(sums) <= (2 * size + 2) * len(prime_powers) < size * (size + 1) * len(prime_powers)
        if family == "quadratic":
            assert len(sums) == (2 * size + 2) * len(prime_powers) == 132
        # each table (the pairs, a pi0 column or the pi0 diagonal) fills each
        # prime power once, for all its columns at a time
        assert len({(id(arrays), factor) for arrays, factor in filled}) == len(filled)
        columns = {id(arrays): arrays.sides.shape[1] for arrays, _ in filled}
        assert sum(columns.values()) <= size * (size + 1) // 2 + size + 1

    SERIES_COMMANDS = {
        "residue": ["residue", "--x", "150", "--t", "1", "--d", "6"],
        "detect": ["detect", "--eta", "0.05", "--log-scale", "40", "--truncation", "2000",
                   "--k", "5"],
    }

    @pytest.mark.parametrize("command", sorted(SERIES_COMMANDS))
    def test_series_computes_each_prime_power_once(self, command, tmp_path, monkeypatch):
        filled = self.record_fills(monkeypatch)
        out = tmp_path / "report.csv"
        assert main(self.SERIES_COMMANDS[command] + ["--out", str(out)]) == 0
        # one series: one table of one column, and each prime power filled once
        assert len({id(arrays) for arrays, _ in filled}) == 1
        assert filled[0][0].sides.shape == (2, 1)
        assert len({factor for _, factor in filled}) == len(filled) > 100

    @staticmethod
    def record_fills(monkeypatch) -> list:
        """(table, (prime id, exponent)) for every prime power a _PrimePowerArrays
        fills, whether by character angles or by power sums."""
        filled = []
        real_fill = coeffs._PrimePowerArrays._fill

        def fill(arrays, powers, start):
            keys = zip(zip(powers.prime.tolist(), powers.slot.tolist()), powers.exponent.tolist())
            filled.extend((arrays, factor) for factor in list(keys)[start:])
            return real_fill(arrays, powers, start)

        monkeypatch.setattr(coeffs._PrimePowerArrays, "_fill", fill)
        return filled
