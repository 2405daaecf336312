"""Every flag value exits 0, 2, 3 or 4.

Hypothesis draws batches of command lines: a subcommand with its flags set
to edge values (nan, +-inf, a decimal past the float range, 0, negatives,
huge integers, empty strings, missing or empty files) next to small valid
ones.  A batch holds one command line of each subcommand, and one child
process runs it through cli.main, under an address-space limit that the
child sets on itself and a time budget for each command line.  Each
command line must exit 0, 2, 3 or 4 with no traceback, and a command line
that exits 0 is run again, whose report must be byte-identical.  No drawn
value asks for threads or processes: --threads and --selftest are never
drawn.
"""

import json
import os
import subprocess
import sys

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA_DIR = os.path.join(os.path.dirname(SRC_DIR), "tests", "data")

ADDRESS_SPACE = 2 << 30  # bytes a batch's child may map
LINE_BUDGET_S = 20  # seconds one command line may take

# the inputs a batch's command lines name, written into the batch's directory
FILES = {
    "chars.spec": "[family]\nkind = dirichlet_modulus\nqmax = 6\n",
    "synthetic.spec": "[family]\nkind = synthetic\nn = 2\ncount = 3\nseed = 1\n",
    "empty.spec": "",
    "empty.txt": "",
}
COPIED = {"zeros.txt": ("zeta_zeros_200.txt", 30), "delta.csv": ("delta_ap_10000.csv", 40)}

FLOAT_EDGES = ("nan", "inf", "-inf", "1e400", "0", "-1", "-0.5", "1e12", "1e300", "")
INT_EDGES = ("0", "-1", "-7", "10000000000", "1" + "0" * 30, "", "nan", "2.5")
PATH_EDGES = ("missing.spec", "empty.spec", ".")
SWITCH = None  # a flag that takes no value

# flag -> (valid values, edge values, required); valid values keep a command line to a fraction of a second
FAMILY = ("--family", (("chars.spec", "synthetic.spec"), PATH_EDGES, False))
SUBCOMMANDS = {
    "constants": {},
    "large-sieve": dict([
        FAMILY,
        ("--gl1", SWITCH),
        ("--qmax", (("1", "4", "6"), INT_EDGES, False)),
        ("--n", (("20", "10,40", "30,"), ("", ",", "0", "-5", "nan", "1e3", "10000000000"), False)),
        ("--kind", (("lambda", "mu", "log", "logl"), ("", "bogus"), False)),
    ]),
    "psd": dict([
        FAMILY,
        ("--nmax", (("2", "12", "30"), INT_EDGES, False)),
        ("--kind", (("lambda", "lambda_centered"), ("",), False)),
        ("--tol", (("1e-9", "0"), FLOAT_EDGES, False)),
    ]),
    "covers": dict([
        FAMILY,
        ("--nmax", (("2", "6"), INT_EDGES, False)),
        ("--trials", (("1", "5"), INT_EDGES, False)),
        ("--seed", (("0", "7"), INT_EDGES, False)),
        ("--kind", (("lambda", "mu", "logl"), ("",), False)),
    ]),
    "sieve-weights": dict([
        FAMILY,
        ("--member", (("0", "1"), INT_EDGES, False)),
        ("--z", (("2", "10.5", "40"), FLOAT_EDGES, True)),
    ]),
    "sifted": dict([
        FAMILY,
        ("--x", (("10", "200"), FLOAT_EDGES, True)),
        ("--t", (("1", "2.5"), FLOAT_EDGES, False)),
        ("--z", (("2", "5"), FLOAT_EDGES, True)),
        ("--kind", (("lambda", "mu", "logl"), ("",), False)),
    ]),
    "residue": dict([
        FAMILY,
        ("--a", (("0", "1"), INT_EDGES, False)),
        ("--b", (("0", "1"), INT_EDGES, False)),
        ("--x", (("10", "200"), FLOAT_EDGES, True)),
        ("--t", (("1", "2"), FLOAT_EDGES, False)),
        ("--d", (("1", "6"), INT_EDGES, False)),
    ]),
    "mvt": dict([
        FAMILY,
        ("--x", (("10", "100"), FLOAT_EDGES, True)),
        ("--t", (("1", "2"), FLOAT_EDGES, False)),
        ("--y", (("3", "50"), FLOAT_EDGES, False)),
        ("--variant", (("low", "tail"), ("",), False)),
        ("--truncation", (("200", "1000"), FLOAT_EDGES, False)),
    ]),
    "detect": {
        "--eta": (("0.05", "0.1"), FLOAT_EDGES, True),
        "--tau": (("0", "0.5"), FLOAT_EDGES, False),
        "--big-t": (("2", "5"), FLOAT_EDGES, False),
        "--log-scale": (("10", "40"), FLOAT_EDGES, True),
        "--truncation": (("100", "2000"), INT_EDGES, False),
        "--k": (("1", "3"), INT_EDGES, False),
        "--zeros": (("zeros.txt",), ("missing.txt", "empty.txt", "."), False),
        "--c-linnik": (("0", "1"), FLOAT_EDGES, False),
        "--c-upper": (("0", "1"), FLOAT_EDGES, False),
    },
    "density": dict([
        FAMILY,
        ("--p", (("2", "3"), INT_EDGES + ("4",), False)),
        ("--theta", (("0.25", "0.3"), FLOAT_EDGES, False)),
        ("--scale", (("10", "1000"), FLOAT_EDGES, False)),
        ("--seed", (("0", "3"), INT_EDGES, False)),
        ("--epsilon", (("0", "0.1"), FLOAT_EDGES, False)),
    ]),
    "count": {
        "--n": (("1", "2"), INT_EDGES, False),
        "--q": (("5", "20"), FLOAT_EDGES, True),
        "--epsilon": (("0", "0.5"), FLOAT_EDGES, False),
    },
    "ingest": {
        "--hecke": (("delta.csv",), ("missing.csv", "empty.txt", "zeros.txt"), False),
        "--weight": (("12",), INT_EDGES, False),
        "--level": (("1",), INT_EDGES, False),
        "--zeros": (("zeros.txt",), ("missing.txt", "empty.txt", "delta.csv"), False),
    },
}
FORMAT = (("csv", "jsonl"), ("", "xml"), False)


@st.composite
def command_line(draw, name: str) -> list[str]:
    """The subcommand and its flags: each optional flag given or not, each
    given value valid three times in four, else an edge value."""
    argv = [name]
    for flag, spec in {**SUBCOMMANDS[name], "--format": FORMAT}.items():
        if spec is SWITCH:
            argv += [flag] if draw(st.booleans()) else []
            continue
        valid, edges, required = spec
        if not required and draw(st.booleans()):
            continue
        pool = valid if draw(st.integers(0, 3)) else edges
        argv += [flag, draw(st.sampled_from(pool))]
    return argv


# the child: reads [argv, report path] pairs as JSON on stdin, writes one result per pair as JSON
CHILD = """
import contextlib, io, json, resource, signal, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from lfunclab.cli import main

class OverBudget(Exception):
    pass

def over_budget(signum, frame):
    raise OverBudget()

signal.signal(signal.SIGALRM, over_budget)

def run(argv):
    err = io.StringIO()
    signal.alarm({budget})
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except OverBudget:
        code = "over its time budget"
    except BaseException:
        code = "an uncaught exception"
        err.write(traceback.format_exc())
    finally:
        signal.alarm(0)
    return code, err.getvalue()

results = []
for argv, out in json.load(sys.stdin):
    code, err = run(argv + ["--out", out])
    rerun = None
    if code == 0:
        with open(out, "rb") as fh:
            first = fh.read()
        again, _ = run(argv + ["--out", out])
        with open(out, "rb") as fh:
            rerun = again == 0 and fh.read() == first
    results.append({{"argv": argv, "code": code, "stderr": err, "rerun_identical": rerun}})
json.dump(results, sys.stdout)
"""


def run_batch(lines: list[list[str]], where: str) -> list[dict]:
    """Each command line through cli.main in one child process, in the directory where."""
    for name, content in FILES.items():
        with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    for name, (source, count) in COPIED.items():
        with open(os.path.join(DATA_DIR, source), encoding="utf-8") as fh:
            head = [next(fh) for _ in range(count)]
        with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
            fh.writelines(head)
    jobs = [[argv, os.path.join(where, f"report{k}")] for k, argv in enumerate(lines)]
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(limit=ADDRESS_SPACE, budget=LINE_BUDGET_S)],
        input=json.dumps(jobs),
        cwd=where,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=LINE_BUDGET_S * 2 * len(lines) + 60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestFlagFuzz:
    @settings(
        derandomize=True,
        max_examples=12,
        deadline=None,
        phases=(Phase.explicit, Phase.generate),  # a failing batch is reported as drawn
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=st.tuples(*(command_line(name) for name in sorted(SUBCOMMANDS))))
    def test_every_flag_value_exits_0_2_3_or_4(self, lines, tmp_path_factory):
        results = run_batch(lines, str(tmp_path_factory.mktemp("batch")))
        for result in results:
            argv, code = result["argv"], result["code"]
            assert code in (0, 2, 3, 4), (argv, code, result["stderr"])
            assert "Traceback" not in result["stderr"], (argv, result["stderr"])
            if code == 0:
                assert result["rerun_identical"], argv
