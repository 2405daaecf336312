"""The lfunclab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `lfunclab` steps, each in a fresh process exactly as a
user invokes the CLI, in passes until S seconds have gone, and checks every
report.  With --trace 0 it reports the end-to-end metrics of BENCHMARK.json
(medians over passes); with --trace 1 it also runs each step through
bench/traced.py and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans, per-step records and provenance go to .bench_out/<workload>/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reports
from workloads import DEFAULT_SEED, OUT_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CLI = "import sys; from lfunclab.cli import main; sys.exit(main())"
IMPORT_ONLY = "import lfunclab.cli"
SETUP_SAMPLES_PER_PASS = 1
SETUP_SAMPLES_FIRST = 2
TRACE_MIN_PASSES = 2  # counts must repeat between two traced passes
HARD_LIMIT_S = 170.0  # the whole run ends within this
COMMANDS = ("psd", "covers", "large-sieve", "sieve-weights", "residue",
            "sifted", "mvt", "detect", "density", "constants")
SPAN_METRICS = (
    "localdata.family_build", "characters.pair_products", "ideals.enumerate",
    "coeffs.local_kernel", "coeffs.series", "covers.assemble", "covers.psd_check",
    "covers.bilinear", "sieve.bound_table", "sieve.selberg", "sieve.brute_force",
    "sieve.smooth_sum", "sieve.sifted", "sieve.mvt", "detect.constants",
    "detect.bounds", "detect.density", "detect.zeros_parse", "report.emit",
)


class Proc:
    """One finished child process: wall and CPU seconds, peak RSS, exit code."""

    def __init__(self, argv: list[str], log: Path, deadline: float, env: dict):
        with open(log, "wb") as out:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
            finished = threading.Event()
            timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self._kill, (child.pid, finished))
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                finished.set()
                timer.cancel()
            self.wall = time.perf_counter() - start
        child.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    @staticmethod
    def _kill(pid: int, finished: threading.Event) -> None:
        if not finished.is_set():
            os.kill(pid, 9)


def reference_for(workload: str, seed: int, step) -> Path | None:
    """The committed reference, when this step's inputs equal the default seed's."""
    if seed != DEFAULT_SEED:
        default = WORKLOADS[workload](DEFAULT_SEED)
        current = WORKLOADS[workload](seed)
        same_step = [s for s in default.steps if s.argv == step.argv]
        if not same_step or default.files != current.files:
            return None
    return BENCH / "reference" / workload / Path(step.report).name


def check_report(workload: str, seed: int, step, code: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        failure = reports.verdict(step.name, step.report)
        ref = reference_for(workload, seed, step)
        if failure is None and ref is not None:
            failure = reports.diff(step.report, str(ref))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        failure = f"unreadable report: {exc!r}"
    return failure


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part its children cover, summed by name."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():  # an exported checkout has no revision to report
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        # the step processes inherit these; unset means OpenBLAS uses one thread per core
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.trace = workload, seed, trace
        self.workload = WORKLOADS[workload](seed)
        self.out = ROOT / OUT_DIR / workload
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.start = time.monotonic()
        self.stop_at = self.start + seconds
        self.deadline = self.start + HARD_LIMIT_S
        self.setup: list[float] = []
        self.passes: list[dict] = []
        self.spans: list[dict] = []
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def process(self, argv: list[str], log: str) -> Proc:
        return Proc([sys.executable, *argv], self.out / "logs" / log, self.deadline, self.env)

    def prepare(self) -> None:
        (self.out / "logs").mkdir(parents=True, exist_ok=True)
        (self.out / "traced").mkdir(exist_ok=True)
        for path, content in self.workload.files.items():
            (ROOT / path).write_text(content, encoding="utf-8")
        # compile the bytecode once, as an installed package would have it
        self.process(["-c", IMPORT_ONLY], "warmup.log")
        self.sample_setup(SETUP_SAMPLES_FIRST)

    def sample_setup(self, count: int) -> None:
        for _ in range(count):
            proc = self.process(["-c", IMPORT_ONLY], "setup.log")
            if proc.code == 0:
                self.setup.append(proc.wall)

    def record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(f"{what}: {failure}")

    def one_pass(self, index: int) -> dict:
        self.sample_setup(SETUP_SAMPLES_PER_PASS)
        steps = {}
        for step in self.workload.steps:
            proc = self.process(["-c", CLI, *step.argv], f"{step.name}.log")
            self.record(f"pass {index} {step.name}", check_report(self.name, self.seed, step, proc.code))
            steps[step.name] = {"wall_s": proc.wall, "cpu_s": proc.cpu, "rss_mb": proc.rss_mb, "code": proc.code}
        result = {"steps": steps}
        if self.trace:
            result["traced"] = self.traced_pass(index)
        return result

    def traced_pass(self, index: int) -> dict:
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        wall_s = 0.0
        for step in self.workload.steps:
            result_path = self.out / "traced" / f"{step.name}.json"
            report = self.out / "traced" / Path(step.report).name
            result_path.unlink(missing_ok=True)
            run_id = f"{self.name}/{self.seed}/{index}/{step.name}"
            proc = self.process([str(BENCH / "traced.py"), str(result_path), str(report), run_id, "--", *step.argv],
                                f"traced-{step.name}.log")
            wall_s += proc.wall
            failure = None if proc.code == 0 else f"exit code {proc.code}"
            if failure is None:
                with open(result_path, encoding="utf-8") as fh:
                    traced = json.load(fh)
                if report.read_bytes() != (ROOT / step.report).read_bytes():
                    failure = f"traced report {report.name} differs from the CLI report"
                self.spans.extend(traced["spans"])
                for name, value in self_times(traced["spans"]).items():
                    self_s[name] = self_s.get(name, 0.0) + value
                for name, value in traced["counts"].items():
                    counts[name] = counts.get(name, 0) + value
            self.record(f"pass {index} traced {step.name}", failure)
        return {"self_s": self_s, "counts": counts, "wall_s": wall_s}

    def execute(self) -> None:
        self.prepare()
        min_passes = TRACE_MIN_PASSES if self.trace else 1
        while True:
            if len(self.passes) >= min_passes:
                # start a pass only if one of typical length still ends in time
                typical = statistics.median(p["elapsed"] for p in self.passes)
                if time.monotonic() + typical > self.stop_at:
                    break
            began = time.monotonic()
            result = self.one_pass(len(self.passes))
            result["elapsed"] = time.monotonic() - began
            self.passes.append(result)

    def step_median(self, command: str, key: str) -> float:
        return statistics.median(p["steps"][command][key] for p in self.passes)

    def end_to_end(self) -> dict[str, float]:
        # per-step medians over passes, so one disturbed step spoils one sample, not a pass
        names = [step.name for step in self.workload.steps]
        return {
            "wall_s": sum(self.step_median(name, "wall_s") for name in names),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": max(self.step_median(name, "rss_mb") for name in names),
        }

    def per_layer(self, count_names: list[str]) -> dict[str, float]:
        out: dict[str, float] = {}
        names = [step.name for step in self.workload.steps]
        for command in COMMANDS:
            for key in ("wall_s", "cpu_s", "rss_mb"):
                out[f"cli.{command}.{key}"] = self.step_median(command, key) if command in names else 0.0
        traced = [p["traced"] for p in self.passes]
        for name in SPAN_METRICS:
            out[f"{name}_s"] = statistics.median(t["self_s"].get(name, 0.0) for t in traced)
        counts = traced[0]["counts"]
        for t in traced[1:]:
            if t["counts"] != counts:
                self.failures.append(f"counts differ between traced passes: {counts} != {t['counts']}")
        out.update({name: counts.get(name, 0) for name in count_names})
        enumerated = counts.get("ideals.enumerated", 0)
        out["ideals.us_per_ideal"] = 1e6 * out["ideals.enumerate_s"] / enumerated if enumerated else 0.0
        draws = counts.get("covers.weight_draws", 0)
        out["covers.us_per_draw"] = 1e6 * out["covers.bilinear_s"] / draws if draws else 0.0
        # both sides pay the import; subtracting it would leave a residue
        # smaller than the import's own noise on import-heavy workloads
        out["trace.overhead_frac"] = statistics.median(
            p["traced"]["wall_s"] / sum(s["wall_s"] for s in p["steps"].values()) - 1.0 for p in self.passes
        )
        return out

    def write_spans(self) -> None:
        with open(self.out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lfunclab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no lfunclab sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    os.chdir(ROOT)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    if not run.setup:
        print("error: `import lfunclab.cli` failed in every setup sample", file=sys.stderr)
        return 3
    values = run.end_to_end()
    declared = spec["end_to_end"]
    if args.trace:
        declared = spec["per_layer"]
        values.update(run.per_layer([m["name"] for m in declared if m["unit"] == "count"]))
        run.write_spans()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    full = {"provenance": info, "passes": run.passes, "setup_s": run.setup,
            "failures": run.failures, "values": values}
    with open(run.out / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(info))
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} steps, "
          f"{len(run.passes)} passes)")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
