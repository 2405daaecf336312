"""Run one `lfunclab` subcommand in-process, with a span around each layer call.

    python bench/traced.py RESULT_JSON REPORT_PATH RUN_ID -- <lfunclab arguments>

Each step function makes the same public calls, in the same order, as the
matching handler in `lfunclab.cli`, and writes the same report (config
line included) to REPORT_PATH, so the benchmark can check that the traced
calls still describe what the CLI runs.  Where one public call hides two
layers, the cache of the inner layer is filled first under its own span;
the outer call then hits that cache, so no work is added.  Counts are
computed from the inputs, or read from the `cache_info()` of the public
`lru_cache` functions.

The spans stay in memory and are written to RESULT_JSON when the step ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time

from lfunclab import characters, cli, coeffs, covers, detect, ideals, localdata, sieve
from lfunclab.report import emit_report


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None, "run": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "selftest"}


def _family(t: Tracer, path: str | None, default):
    with t.span("localdata.family_build"):
        family = localdata.parse_family_spec(path) if path else default()
    t.add("localdata.members", len(family.members))
    return family


def _trivial_family():
    return localdata.make_family([localdata.trivial_representation()], label="trivial")


def _ideal_list(t: Tracer, field, bound: int) -> list:
    """Fill the cache that the next library call reads, under its own span."""
    with t.span("ideals.enumerate"):
        out = coeffs.ideal_list(field, bound)
    t.add("ideals.enumerated", len(out))
    return out


def step_psd(t: Tracer, args):
    family = _family(t, args.family, lambda: localdata.dirichlet_character_family(20))
    with t.span("ideals.enumerate"):
        listed = ideals.enumerate_ideals(family.field, args.nmax)
    t.add("ideals.enumerated", len(listed))
    targets = [q for q in listed if not q.is_unit]
    size = len(family.members)
    pairs = [(i, j) for i in range(size) for j in range(i, size)]
    table = covers.PairCoefficientTable(family, "lambda")
    with t.span("characters.pair_products"):
        for i, j in pairs:
            table.engine(i, j)
    t.add("characters.pairs", len(pairs))
    prime_powers = [q for q in targets if len(q.factors) == 1]
    with t.span("coeffs.local_kernel"):
        for q in prime_powers:
            for i, j in pairs:
                table.entry(i, j, q)
    t.add("coeffs.local_values", len(prime_powers) * len(pairs))
    with t.span("covers.assemble"):
        matrices = [
            covers.coefficient_matrix(family, q, args.kind, table=table if args.kind == "lambda" else None)
            for q in targets
        ]
    t.add("covers.matrices", len(matrices))
    t.add("covers.entries", len(matrices) * size * size)
    with t.span("covers.psd_check"):
        checks = [covers.psd_check_full(m, args.tol) for m in matrices]
    records = []
    for q, (min_eig, spectral, verdict) in zip(targets, checks):
        records.append({
            "ideal_norm": q.norm,
            "kind": args.kind,
            "min_eig": min_eig,
            "margin": min_eig + args.tol * max(spectral, 1e-300),
            "seed": 0,
            "verdict": verdict,
        })
    failed = [r["ideal_norm"] for r in records if not r["verdict"]]
    config = _config(args)
    config["family_label"] = family.label
    columns = ["ideal_norm", "kind", "min_eig", "margin", "seed", "verdict"]
    return records, columns, config, f"psd verdict false at norms {failed[:5]}" if failed else None


def step_covers(t: Tracer, args):
    family = _family(t, args.family, lambda: localdata.dirichlet_character_family(20))
    with t.span("ideals.enumerate"):
        listed = ideals.enumerate_ideals(family.field, args.nmax)
    t.add("ideals.enumerated", len(listed))
    targets = [q for q in listed if not q.is_unit]
    with t.span("covers.bilinear"):
        results = [
            covers.bilinear_inequality_check(args.kind, family, None, q, trials=args.trials, seed=args.seed)
            for q in targets
        ]
    t.add("covers.bilinear_calls", len(results))
    t.add("covers.weight_draws", sum(r.trials for r in results))
    records = [
        {"ideal_norm": q.norm, "kind": args.kind, "margin": r.worst_margin, "seed": args.seed}
        for q, r in zip(targets, results)
    ]
    worst = min((r["margin"] for r in records), default=math.inf)
    config = _config(args)
    config["family_label"] = family.label
    failure = f"cover margin {worst}" if worst < -1e-9 else None
    return records, ["ideal_norm", "kind", "margin", "seed"], config, failure


def step_large_sieve(t: Tracer, args):
    if args.gl1:
        with t.span("localdata.family_build"):
            family = localdata.dirichlet_family_by_modulus(args.qmax)
        t.add("localdata.members", len(family.members))
    else:
        family = _family(t, args.family, _trivial_family)
    n_list = [int(s) for s in str(args.n).split(",") if s]
    kind = "logl" if args.kind == "log" else args.kind
    for n_bound in n_list:
        t.add("sieve.gram_cols", len(_ideal_list(t, family.field, n_bound)))
    with t.span("sieve.bound_table"):
        rows = sieve.bound_table(family, n_list, kind=kind)
    config = _config(args)
    config["family_label"] = family.label
    config["family_size"] = len(family.members)
    return rows, None, config, None


def step_sieve_weights(t: Tracer, args):
    family = _family(t, args.family, _trivial_family)
    rep = family.members[args.member]
    with t.span("sieve.selberg"):
        weights = sieve.selberg_weights(rep, args.z)
    with t.span("sieve.brute_force"):
        checks = weights.verify()
    t.add("sieve.selberg_support", len(weights.support))
    t.add("sieve.brute_force_pairs", len(weights.support) ** 2)
    records = [
        {"ideal_norm": d.norm, "ideal": repr(d), "rho": weights.rho[d]} for d in weights.support
    ]
    config = _config(args)
    config["family_label"] = family.label
    config["diagonal_value"] = weights.diagonal_value
    config["brute_force_value"] = checks["brute_force_value"]
    ok = all(v for k, v in checks.items() if k != "brute_force_value")
    return records, None, config, None if ok else f"sieve weight clauses failed: {checks}"


def step_residue(t: Tracer, args):
    family = _family(t, args.family, _trivial_family)
    rep_a = family.members[args.a]
    rep_b = family.members[args.b] if args.b is not None else rep_a
    d_ideal = ideals.ideal_from_int(family.field, args.d)
    _ideal_list(t, family.field, int(math.floor(args.x * math.exp(2.0 / args.t))))
    with t.span("sieve.smooth_sum"):
        res = sieve.smooth_sum_residue(rep_a, rep_b, args.x, args.t, d_ideal)
    record = {
        "lhs": res.lhs,
        "main": res.main,
        "diff": res.diff,
        "residue": res.residue,
        "shape_only": res.shape_only,
        "flags": "; ".join(res.flags),
    }
    config = _config(args)
    config["family_label"] = family.label
    return [record], None, config, None


def step_sifted(t: Tracer, args):
    family = _family(t, args.family, _trivial_family)
    _ideal_list(t, family.field, max(int(math.floor(args.x * math.exp(1.0 / args.t))), 1))
    with t.span("sieve.sifted"):
        res = sieve.sifted_sum_check(family, None, args.x, args.t, args.z, kind=args.kind)
    t.add("sieve.sifted_ideals", res.sifted_count)
    record = {
        "lhs": res.lhs,
        "rhs_shape": res.rhs_shape,
        "weighted_norm_sq": res.weighted_norm_sq,
        "sifted_count": res.sifted_count,
        "single_rep_sum": res.single_rep_sum,
        "single_rep_shape": res.single_rep_shape,
        "shape_only": res.shape_only,
        "flags": "; ".join(res.flags),
    }
    config = _config(args)
    config["family_label"] = family.label
    return [record], None, config, None


def step_mvt(t: Tracer, args):
    family = _family(t, args.family, _trivial_family)
    if args.variant == "low":
        _ideal_list(t, family.field, int(args.x))
    with t.span("sieve.mvt"):
        res = sieve.mvt_mu(
            family, None, args.x, args.t, y_scale=args.y, variant=args.variant,
            truncation=args.truncation,
        )
    t.add("sieve.mvt_points", res.points)
    record = {
        "value": res.value,
        "shape": res.shape,
        "shape_only": True,
        "points": res.points,
        "flags": "; ".join(res.flags),
    }
    config = _config(args)
    config["family_label"] = family.label
    return [record], None, config, None


def step_detect(t: Tracer, args):
    with t.span("detect.constants"):
        config_obj = detect.build_detection_config(
            eta=args.eta, tau=args.tau, t_range=args.big_t, log_scale=args.log_scale,
            c_linnik=args.c_linnik, c_dirichlet_upper=args.c_upper,
        )
    with t.span("localdata.family_build"):
        triv = localdata.trivial_representation()
    t.add("localdata.members", 1)
    with t.span("coeffs.series"):
        series = coeffs.expand_global(triv, triv, args.truncation, "biglambda", "gl1_exact")
    t.add("coeffs.series_terms", len(series.values))
    with t.span("detect.zeros_parse"):
        zeros = detect.parse_zeros_file(args.zeros) if args.zeros else None
    with t.span("detect.bounds"):
        report = detect.detection_bounds(series, config_obj, zeros=zeros, k=args.k)
    config = _config(args)
    config["zeros"] = args.zeros or ""
    record = {
        "k": report.k,
        "hd_value": report.hd_value,
        "hd_tail": report.hd_tail,
        "integral": report.integral,
        "near_zero_count": report.near_zero_count,
        "near_zero_triggered": report.near_zero_triggered,
        "residual_weight_log10": report.residual_weight_log10,
        "c_measured": report.c_measured,
        "chain_ok": report.chain_ok,
        "constant_free": report.constant_free,
        "flags": "; ".join(report.flags),
    }
    return [record], None, config, None


def step_density(t: Tracer, args):
    family = _family(t, args.family, lambda: localdata.synthetic_family(
        2, 4, seed=args.seed, model=("planted", args.p, args.theta)))
    n = max(m.degree for m in family.members)
    prime = ideals.prime_ideal(family.field, (args.p, 0))
    scale = args.scale if args.scale is not None else float(prime.norm) ** (n + 2)
    query = detect.DensityQuery.build(prime, args.theta, scale, n)
    with t.span("detect.density"):
        report = detect.density_scan(family, query, seed=args.seed, epsilon=args.epsilon)
    config = _config(args)
    config["family_label"] = family.label
    config["scale"] = scale
    records = [
        {
            "member": r.label,
            "max_alpha": r.max_alpha,
            "flagged": r.flagged,
            "certificate_fired": r.certificate_fired,
            "k_fired": r.k_fired,
            "best_power_sum": r.best_power_sum,
        }
        for r in report.rows
    ]
    return records, None, config, None


def step_constants(t: Tracer, args):
    with t.span("detect.constants"):
        cs = detect.solve_constants()
    records = [{"name": name, "value": value} for name, value in cs.as_dict().items()]
    records += [{"name": f"residual_{name}", "value": value} for name, value in sorted(cs.residuals.items())]
    return records, ["name", "value"], _config(args), None


STEPS = {
    "psd": step_psd,
    "covers": step_covers,
    "large-sieve": step_large_sieve,
    "sieve-weights": step_sieve_weights,
    "residue": step_residue,
    "sifted": step_sifted,
    "mvt": step_mvt,
    "detect": step_detect,
    "density": step_density,
    "constants": step_constants,
}

# The public lru_cache functions whose counters the benchmark reports.
CACHES = {
    "ideals.split_prime": ideals.split_prime,
    "characters.unit_group": characters.unit_group,
    "characters.character_group": characters.character_group,
    "coeffs.partitions_of": coeffs.partitions_of,
}


def main(argv: list[str]) -> int:
    result_path, report_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced.py RESULT_JSON REPORT_PATH RUN_ID -- <lfunclab arguments>")
    args = cli.build_parser().parse_args(cli_argv)
    t = Tracer(run_id)
    with t.span(f"cli.{args.command}"):
        records, columns, config, failure = STEPS[args.command](t, args)
        with t.span("report.emit"):
            emit_report(records, args.format, report_path, columns=columns, config=config)
    t.add("report.rows", len(records))
    t.add("report.bytes", os.path.getsize(report_path))
    for name, fn in CACHES.items():
        info = fn.cache_info()
        t.add(f"{name}.hits", info.hits)
        t.add(f"{name}.misses", info.misses)
        t.add(f"{name}.size", info.currsize)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": t.spans, "counts": t.counts}, fh)
    if failure:
        print(f"invariant failure: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
