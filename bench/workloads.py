"""The benchmark's workloads: `lfunclab` subcommand sequences built from a seed.

Every path is relative to the repository root, which is the working
directory of every step.  Reports embed their resolved configuration,
paths included, so fixed paths keep the report bytes comparable with the
committed references under bench/reference/.
"""

from __future__ import annotations

from dataclasses import dataclass

OUT_DIR = ".bench_out"
ZEROS_FILE = "tests/data/zeta_zeros_200.txt"
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Step:
    name: str  # the subcommand
    argv: tuple[str, ...]  # full argument list, subcommand first
    report: str  # the path passed as --out


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]  # generated input files: path -> content
    steps: tuple[Step, ...]


def _step(workload: str, command: str, ext: str, *flags: str) -> Step:
    report = f"{OUT_DIR}/{workload}/{command}.{ext}"
    return Step(command, (command, *flags, "--out", report), report)


def gl1_family(seed: int) -> Workload:
    # 108 primitive characters of modulus <= 24: the exact GL1 pair path,
    # character products, 108 x 108 assembly and eigen solves.
    name = "gl1-family"
    spec = f"{OUT_DIR}/{name}/family.spec"
    steps = (
        _step(name, "psd", "jsonl", "--family", spec, "--nmax", "60"),
        _step(name, "covers", "jsonl", "--family", spec, "--nmax", "6",
              "--trials", "200", "--seed", str(seed)),
        _step(name, "large-sieve", "csv", "--family", spec, "--n", "150,300,600"),
    )
    return Workload(name, {spec: "[family]\nkind = dirichlet_modulus\nqmax = 24\n"}, steps)


def gl3_quadratic(seed: int) -> Workload:
    # 24 synthetic degree-3 members over Q(i): the product-model pair
    # kernel on many small matrices, split primes sharing a norm, no
    # character work.
    name = "gl3-quadratic"
    spec = f"{OUT_DIR}/{name}/family.spec"
    steps = (
        _step(name, "psd", "jsonl", "--family", spec, "--nmax", "300"),
        _step(name, "covers", "jsonl", "--family", spec, "--nmax", "60",
              "--trials", "200", "--seed", str(seed)),
        _step(name, "large-sieve", "csv", "--family", spec, "--n", "250,500"),
    )
    content = (
        "[family]\nfield = quadratic(-1)\nkind = synthetic\n"
        f"n = 3\ncount = 24\nseed = {seed}\n"
    )
    return Workload(name, {spec: content}, steps)


def sieve_series(seed: int) -> Workload:
    # The trivial member over Q: ideal enumeration, Selberg weights and
    # their brute-force check, and the only path into detection.  Seven
    # short processes make the import cost weigh most here.
    name = "sieve-series"
    steps = (
        _step(name, "sieve-weights", "csv", "--z", "300"),
        _step(name, "residue", "csv", "--x", "1200", "--t", "1", "--d", "6"),
        _step(name, "sifted", "csv", "--x", "3000", "--t", "1", "--z", "10"),
        _step(name, "mvt", "csv", "--x", "300", "--t", "2"),
        _step(name, "detect", "csv", "--eta", "0.05", "--log-scale", "40",
              "--truncation", "100000", "--zeros", ZEROS_FILE),
        _step(name, "density", "csv", "--p", "2", "--theta", "0.3", "--seed", str(seed)),
        _step(name, "constants", "csv"),
    )
    return Workload(name, {}, steps)


WORKLOADS = {
    "gl1-family": gl1_family,
    "gl3-quadratic": gl3_quadratic,
    "sieve-series": sieve_series,
}
