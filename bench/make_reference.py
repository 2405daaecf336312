"""Regenerate bench/reference/ from the current code at the default seed.

    python3 bench/make_reference.py

Run this only when a change to the program is meant to change its reports,
and say so in the change; the benchmark compares every report whose inputs
match the default seed's against these files.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import reports
from run import BENCH, CLI, Run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    for name in WORKLOADS:
        run = Run(name, DEFAULT_SEED, 1, False)
        run.prepare()
        target = BENCH / "reference" / name
        target.mkdir(parents=True, exist_ok=True)
        for step in run.workload.steps:
            proc = run.process(["-c", CLI, *step.argv], f"{step.name}.log")
            failure = f"exit code {proc.code}" if proc.code else reports.verdict(step.name, step.report)
            if failure:
                print(f"{name} {step.name}: {failure}", file=sys.stderr)
                return 1
            shutil.copyfile(step.report, target / Path(step.report).name)
            print(f"{name} {step.name}: {proc.wall:.2f} s -> {target / Path(step.report).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
