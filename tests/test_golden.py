"""Golden reports: every subcommand at desk scale, compared byte for byte.

Each run goes through ``lfunclab.cli.main`` in a fresh working directory
with relative paths only, because every report embeds its resolved
configuration, paths included.  The report file and the printed summary
line must both match the committed copies under ``tests/data/golden/``.

After an intended output change, regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py

The benchmark's traced driver, bench/traced.py, repeats each handler's
library calls; every golden run of a subcommand it knows must give it the
CLI's report bytes.
"""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stdout

import pytest

from lfunclab.cli import main

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TRACED_PATH = os.path.join(os.path.dirname(os.path.dirname(DATA_DIR)), "bench", "traced.py")
GOLDEN_DIR = os.path.join(DATA_DIR, "golden")
STDOUT_FILE = os.path.join(GOLDEN_DIR, "stdout.json")
HECKE_ROWS = 25  # primes taken from the frozen Delta table

SPECS = {
    "chars.spec": "[family]\nkind = dirichlet_modulus\nqmax = 6\n",
    "quadratic.spec": (
        "[family]\nfield = quadratic(-1)\nkind = synthetic\nn = 3\ncount = 4\nseed = 5\n"
    ),
}

# run name -> (report extension, arguments without --out)
RUNS = {
    "constants": ("csv", ["constants"]),
    "constants-jsonl": ("jsonl", ["constants", "--format", "jsonl"]),
    "large-sieve-gl1": ("csv", ["large-sieve", "--gl1", "--qmax", "6", "--n", "50,100"]),
    "large-sieve-quadratic": ("csv", ["large-sieve", "--family", "quadratic.spec",
                                      "--n", "40,80"]),
    "large-sieve-quadratic-mu": ("csv", ["large-sieve", "--family", "quadratic.spec",
                                         "--kind", "mu", "--n", "40,80"]),
    "large-sieve-gl1-logl": ("csv", ["large-sieve", "--gl1", "--qmax", "6", "--kind", "logl",
                                     "--n", "50,100"]),
    "psd-csv": ("csv", ["psd", "--family", "chars.spec", "--nmax", "30", "--format", "csv"]),
    "psd-lambda": ("jsonl", ["psd", "--family", "quadratic.spec", "--nmax", "40"]),
    "psd-lambda_centered": ("jsonl", ["psd", "--nmax", "40", "--kind", "lambda_centered"]),
    "psd-lambda_centered-quadratic": ("jsonl", ["psd", "--family", "quadratic.spec", "--nmax", "40",
                                                "--kind", "lambda_centered"]),
    "covers": ("jsonl", ["covers", "--nmax", "12", "--trials", "20", "--seed", "3"]),
    "covers-quadratic": ("jsonl", ["covers", "--family", "quadratic.spec", "--nmax", "20",
                                   "--trials", "20", "--kind", "logl"]),
    "covers-mu": ("jsonl", ["covers", "--family", "chars.spec", "--nmax", "12", "--trials", "20",
                            "--seed", "3", "--kind", "mu"]),
    "sieve-weights": ("csv", ["sieve-weights", "--family", "chars.spec", "--member", "2",
                              "--z", "40"]),
    "sifted": ("csv", ["sifted", "--x", "200", "--z", "5"]),
    "residue": ("csv", ["residue", "--x", "150", "--d", "6"]),
    "mvt": ("csv", ["mvt", "--family", "chars.spec", "--x", "30", "--t", "1"]),
    "mvt-quadratic": ("csv", ["mvt", "--family", "quadratic.spec", "--x", "30", "--t", "1"]),
    "detect": ("csv", ["detect", "--eta", "0.05", "--log-scale", "40",
                       "--k", "5", "--truncation", "2000", "--zeros", "zeros.txt"]),
    "density": ("csv", ["density", "--p", "2", "--theta", "0.3", "--seed", "4"]),
    "count": ("csv", ["count", "--q", "12"]),
    "ingest-hecke": ("csv", ["ingest", "--hecke", "hecke.csv"]),
    "ingest-zeros": ("csv", ["ingest", "--zeros", "zeros.txt"]),
}


def write_inputs(workdir: str) -> None:
    """The spec, zeros and Hecke files every run reads, under fixed relative names."""
    for name, text in SPECS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    shutil.copy(os.path.join(DATA_DIR, "zeta_zeros_200.txt"), os.path.join(workdir, "zeros.txt"))
    with open(os.path.join(DATA_DIR, "delta_ap_10000.csv"), encoding="utf-8") as fh:
        head = [next(fh) for _ in range(HECKE_ROWS + 1)]  # header row plus primes
    with open(os.path.join(workdir, "hecke.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(head)


@contextlib.contextmanager
def inside(workdir: str):
    here = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(here)


def produce(name: str, workdir: str) -> tuple[bytes, str]:
    """Run one golden command inside workdir; return its report bytes and stdout."""
    ext, argv = RUNS[name]
    report = f"{name}.{ext}"
    buf = io.StringIO()
    with inside(workdir):
        with redirect_stdout(buf):
            code = main(argv + ["--out", report])
        with open(report, "rb") as fh:
            data = fh.read()
    if code != 0:
        raise AssertionError(f"{name} exited with {code}")
    return data, buf.getvalue()


def load_traced():
    spec = importlib.util.spec_from_file_location("traced", TRACED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced = load_traced()
TRACED_RUNS = sorted(name for name, (_, argv) in RUNS.items() if argv[0] in traced.STEPS)


@pytest.fixture(scope="module")
def golden_stdout():
    with open(STDOUT_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, tmp_path, golden_stdout):
    write_inputs(str(tmp_path))
    data, stdout = produce(name, str(tmp_path))
    ext, _ = RUNS[name]
    with open(os.path.join(GOLDEN_DIR, f"{name}.{ext}"), "rb") as fh:
        assert data == fh.read()
    assert stdout == golden_stdout[name]


def test_every_traced_step_has_a_golden_run():
    assert {RUNS[name][1][0] for name in TRACED_RUNS} == set(traced.STEPS)


@pytest.mark.parametrize("name", TRACED_RUNS)
def test_traced_report_matches_cli(name, tmp_path):
    write_inputs(str(tmp_path))
    want, _ = produce(name, str(tmp_path))
    ext, argv = RUNS[name]
    with inside(str(tmp_path)):
        # the CLI's --out is passed too, since the report embeds it
        code = traced.main(["spans.json", f"traced.{ext}", name, "--", *argv, "--out", f"{name}.{ext}"])
        with open(f"traced.{ext}", "rb") as fh:
            assert fh.read() == want
    assert code == 0


def regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    stdout = {}
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        for name in sorted(RUNS):
            data, stdout[name] = produce(name, workdir)
            ext, _ = RUNS[name]
            with open(os.path.join(GOLDEN_DIR, f"{name}.{ext}"), "wb") as fh:
                fh.write(data)
    with open(STDOUT_FILE, "w", encoding="utf-8") as fh:
        json.dump(stdout, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
