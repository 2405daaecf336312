"""Parse `lfunclab` reports and check them against references and verdicts."""

from __future__ import annotations

import csv
import json
import math

# One tolerance for every float in every report: |a - b| <= ABS + REL * max(|a|, |b|).
# The absolute floor absorbs columns that are rounding noise around zero
# (psd min_eig ~ -1e-13, covers margin ~ -1e-11), whose last bits move
# under a legitimate change of summation order.
REL_TOL = 1e-9
ABS_TOL = 1e-10
# The program's own floor for a violated cover inequality (cli.cmd_covers).
COVER_MARGIN_FLOOR = -1e-9
# The program's own tolerance for the Selberg brute-force diagonal (SieveWeights.verify).
SELBERG_MATCH_TOL = 1e-10


def parse(path: str) -> tuple[dict, list[dict]]:
    """(config, rows) of a CSV or JSON-lines report."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if path.endswith(".jsonl"):
        config = json.loads(lines[0])["config"]
        return config, [json.loads(line) for line in lines[1:]]
    prefix = "# config = "
    if not lines or not lines[0].startswith(prefix):
        raise ValueError(f"{path}: no config line")
    config = json.loads(lines[0][len(prefix):])
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = next(csv.reader([line]))
        if len(cells) != len(header):
            raise ValueError(f"{path}: row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, (_csv_value(c) for c in cells))))
    return config, rows


def _csv_value(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def diff(path: str, reference: str) -> str | None:
    """First disagreement between a report and its reference, or None."""
    config, rows = parse(path)
    ref_config, ref_rows = parse(reference)
    if not _same(config, ref_config):
        return f"config differs from {reference}"
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row.keys() != ref.keys():
            return f"row {n}: columns {list(row)} != {list(ref)}"
        for key in row:
            if not _same(row[key], ref[key]):
                return f"row {n} {key}: {row[key]!r} != {ref[key]!r}"
    return None


def verdict(command: str, path: str) -> str | None:
    """The failure a report admits by its own verdict columns, or None."""
    config, rows = parse(path)
    if not rows:
        return "report has no rows"
    if command == "psd":
        bad = [r["ideal_norm"] for r in rows if r["verdict"] is not True]
        return f"psd verdict false at norms {bad[:5]}" if bad else None
    if command == "covers":
        worst = min(r["margin"] for r in rows)
        return f"cover margin {worst} below {COVER_MARGIN_FLOOR}" if worst < COVER_MARGIN_FLOOR else None
    if command == "sieve-weights":
        diag, brute = config["diagonal_value"], config["brute_force_value"]
        if abs(brute - diag) > SELBERG_MATCH_TOL * max(1.0, abs(diag)):
            return f"brute-force diagonal {brute} != closed form {diag}"
    return None
