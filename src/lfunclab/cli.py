"""Command-line surface for every verification pipeline.

Exit codes: 0 success, 2 validation/usage error, 3 invariant failure,
4 report I/O error.  All flags are long-form; every report embeds its
fully resolved configuration so any row is reproducible from the file
alone.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import characters, coeffs, covers, detect, ideals, localdata, sieve
from .errors import (
    InvariantError,
    LfuncLabError,
    ReportIOError,
    UsageError,
)
from .report import emit_report

SELFTEST_MODULES = {
    "constants": [detect],
    "large-sieve": [sieve, ideals],
    "psd": [covers, coeffs],
    "covers": [covers, coeffs],
    "sieve-weights": [sieve],
    "sifted": [sieve],
    "residue": [sieve],
    "mvt": [sieve],
    "detect": [detect],
    "density": [detect, localdata],
    "count": [detect, localdata],
    "ingest": [localdata, characters],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfunclab",
        description="Coefficient, sieve, and zero-detection verifications for L-function families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report path (default: derived from the command)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--selftest", action="store_true", help="run the module invariant suite and exit")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; results never depend on it (current pipelines are serial)")

    p = sub.add_parser("constants", help="solve and print the detection constant system")
    common(p)

    p = sub.add_parser("large-sieve", help="measure sieve constants against bound shapes")
    common(p)
    p.add_argument("--family", default=None, help="family spec file")
    p.add_argument("--gl1", action="store_true", help="primitive characters of modulus <= QMAX")
    p.add_argument("--qmax", type=int, default=10)
    p.add_argument("--n", default="200", help="comma-separated list of norm bounds N")
    p.add_argument("--kind", choices=("lambda", "mu", "log", "logl"), default="lambda")

    p = sub.add_parser("psd", help="minimum eigenvalues of family coefficient matrices")
    common(p)
    p.set_defaults(format="jsonl")  # verdict sweeps are JSON-lines by default
    p.add_argument("--family", required=False, default=None)
    p.add_argument("--nmax", type=int, default=200)
    p.add_argument("--kind", choices=("lambda", "lambda_centered"), default="lambda")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("covers", help="bilinear cover inequalities over random weights")
    common(p)
    p.set_defaults(format="jsonl")
    p.add_argument("--family", default=None)
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("lambda", "mu", "logl"), default="lambda")

    p = sub.add_parser("sieve-weights", help="Selberg weights and their closed-form diagonal")
    common(p)
    p.add_argument("--family", default=None, help="family spec file (default: the trivial member)")
    p.add_argument("--member", type=int, default=0)
    p.add_argument("--z", type=float, required=True)

    p = sub.add_parser("sifted", help="sifted-window mean squares against the bound shape")
    common(p)
    p.add_argument("--family", default=None)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--kind", choices=("lambda", "mu", "logl"), default="lambda")

    p = sub.add_parser("residue", help="smooth coefficient sums against the residue main term")
    common(p)
    p.add_argument("--family", default=None)
    p.add_argument("--a", type=int, default=0, help="index of the first member")
    p.add_argument("--b", type=int, default=None, help="index of the second member (default: a)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--d", type=int, default=1, help="positive integer generating the divisor ideal")

    p = sub.add_parser("mvt", help="mean-value integrals of inverse coefficients")
    common(p)
    p.add_argument("--family", default=None)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--variant", choices=("low", "tail"), default="low")
    p.add_argument("--truncation", type=float, default=None)

    p = sub.add_parser("detect", help="detection inequality legs on a coefficient series")
    common(p)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--big-t", type=float, default=2.0)
    p.add_argument("--log-scale", type=float, required=True,
                   help="desk-scale override of the log conductor scale")
    p.add_argument("--truncation", type=int, default=10000)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--zeros", default=None, help="zeros file: one ordinate per line")
    p.add_argument("--c-linnik", type=float, default=0.0)
    p.add_argument("--c-upper", type=float, default=0.0)

    p = sub.add_parser("density", help="scan a family for large parameters at one prime")
    common(p)
    p.add_argument("--family", required=False, default=None)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--theta", type=float, default=0.25)
    p.add_argument("--scale", type=float, default=None,
                   help="window scale; defaults to N(p)^(n+2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.0)

    p = sub.add_parser("count", help="family count against the conductor-power shape")
    common(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)

    p = sub.add_parser("ingest", help="validate and echo input data files")
    common(p)
    p.add_argument("--hecke", default=None, help="CSV of rows p,a_p")
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--zeros", default=None, help="zeros file to validate")
    return parser


def _resolved(args) -> dict:
    """Every resolved flag, defaults included, minus the selftest toggle."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "selftest"}


def _trivial_family() -> localdata.Family:
    return localdata.make_family([localdata.trivial_representation()], label="trivial")


def _load_family(path: str | None, default=_trivial_family) -> localdata.Family:
    """The family in the spec file at path, or default() when no path is given."""
    if path is not None:
        return localdata.parse_family_spec(path)
    return default()


def _default_out(args, suffix: str) -> str:
    return args.out or f"lfunclab_{args.command}.{suffix}"


def _run_selftest(command: str) -> int:
    failures = 0
    for module in SELFTEST_MODULES[command]:
        for name, ok, detail in module.selftest():
            print(f"{'PASS' if ok else 'FAIL'} {module.__name__.split('.')[-1]}: {name}"
                  + (f" ({detail})" if detail else ""))
            failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} failure(s)")
        return 3
    print("selftest: all checks passed")
    return 0


def cmd_constants(args) -> int:
    cs = detect.solve_constants()
    config = _resolved(args)
    records = []
    for name, value in cs.as_dict().items():
        records.append({"name": name, "value": value})
    for name, value in sorted(cs.residuals.items()):
        records.append({"name": f"residual_{name}", "value": value})
    path = _default_out(args, args.format)
    emit_report(records, args.format, path, columns=["name", "value"], config=config)
    worst = max(cs.residuals.values())
    print(
        f"constants: alpha={cs.alpha:.9f} A={cs.a_weight:.9f} V={cs.v_decay:.9f} "
        f"A0={cs.a0:.9f} A1={cs.a1:.10f} worst residual {worst:.2e} -> {path}"
    )
    return 0


def cmd_large_sieve(args) -> int:
    if args.gl1:
        family = localdata.dirichlet_family_by_modulus(args.qmax)
    else:
        family = _load_family(args.family)
    n_list = [int(s) for s in str(args.n).split(",") if s]
    kind = "logl" if args.kind == "log" else args.kind
    rows = sieve.bound_table(family, n_list, kind=kind)
    config = _resolved(args)
    config["family_label"] = family.label
    config["family_size"] = len(family.members)
    path = _default_out(args, args.format)
    emit_report(rows, args.format, path, config=config)
    worst = max(r["measured_C"] for r in rows)
    print(
        f"large-sieve: {family.label} |S|={len(family.members)} "
        f"max measured C = {worst:.6f} over N in {n_list} -> {path}"
    )
    return 0


def cmd_psd(args) -> int:
    family = _load_family(args.family, lambda: localdata.dirichlet_character_family(20))
    field = family.field
    table = covers.PairCoefficientTable(family, "lambda")
    records = []
    worst = math.inf
    for ideal in ideals.enumerate_ideals(field, args.nmax):
        if ideal.is_unit:
            continue
        matrix = covers.coefficient_matrix(family, ideal, args.kind, table=table)
        min_eig, spectral, verdict = covers.psd_check_full(matrix, args.tol)
        margin = min_eig + args.tol * max(spectral, 1e-300)
        records.append(
            {
                "ideal_norm": ideal.norm,
                "kind": args.kind,
                "min_eig": min_eig,
                "margin": margin,
                "seed": 0,
                "verdict": verdict,
            }
        )
        worst = min(worst, min_eig)
        if not verdict:
            emit_report(records, "jsonl", _default_out(args, "jsonl"), config=_resolved(args))
            raise InvariantError(f"matrix at norm {ideal.norm} has min eigenvalue {min_eig}")
    config = _resolved(args)
    config["family_label"] = family.label
    path = _default_out(args, args.format)
    emit_report(
        records, args.format, path,
        columns=["ideal_norm", "kind", "min_eig", "margin", "seed", "verdict"],
        config=config,
    )
    print(f"psd: {family.label} all matrices PSD up to norm {args.nmax}; "
          f"worst min eigenvalue {worst:.3e} -> {path}")
    return 0


def cmd_covers(args) -> int:
    family = _load_family(args.family, lambda: localdata.dirichlet_character_family(20))
    field = family.field
    table = covers.PairCoefficientTable(family, "lambda")
    records = []
    worst = math.inf
    for ideal in ideals.enumerate_ideals(field, args.nmax):
        if ideal.is_unit:
            continue
        res = covers.bilinear_inequality_check(
            args.kind, family, None, ideal, trials=args.trials, seed=args.seed, table=table
        )
        records.append(
            {
                "ideal_norm": ideal.norm,
                "kind": args.kind,
                "margin": res.worst_margin,
                "seed": args.seed,
            }
        )
        worst = min(worst, res.worst_margin)
    config = _resolved(args)
    config["family_label"] = family.label
    path = _default_out(args, args.format)
    emit_report(
        records, args.format, path,
        columns=["ideal_norm", "kind", "margin", "seed"], config=config,
    )
    print(f"covers: worst margin {worst:.3e} over norms <= {args.nmax} "
          f"({args.trials} weight draws) -> {path}")
    if worst < -1e-9:
        raise InvariantError(f"cover inequality violated: margin {worst}")
    return 0


def cmd_sieve_weights(args) -> int:
    family = _load_family(args.family)
    rep = family.members[args.member]
    weights = sieve.selberg_weights(rep, args.z)
    checks = weights.verify()
    records = [
        {"ideal_norm": d.norm, "ideal": repr(d), "rho": weights.rho[d]}
        for d in weights.support
    ]
    config = _resolved(args)
    config["family_label"] = family.label
    config["diagonal_value"] = weights.diagonal_value
    config["brute_force_value"] = checks["brute_force_value"]
    path = _default_out(args, args.format)
    emit_report(records, args.format, path, config=config)
    ok = all(v for k, v in checks.items() if k != "brute_force_value")
    print(
        f"sieve-weights: {rep.label} z={args.z:g} support {len(weights.support)} "
        f"diagonal {weights.diagonal_value:.12g} (brute force {checks['brute_force_value']:.12g}) -> {path}"
    )
    if not ok:
        raise InvariantError(f"sieve weight clauses failed: {checks}")
    return 0


def cmd_sifted(args) -> int:
    family = _load_family(args.family)
    res = sieve.sifted_sum_check(family, None, args.x, args.t, args.z, kind=args.kind)
    config = _resolved(args)
    config["family_label"] = family.label
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
    path = _default_out(args, args.format)
    emit_report([record], args.format, path, config=config)
    print(f"sifted: lhs={res.lhs:.6g} over {res.sifted_count} sifted ideals, "
          f"shape {res.rhs_shape if res.rhs_shape is not None else 'n/a'} (shape only) -> {path}")
    return 0


def cmd_residue(args) -> int:
    family = _load_family(args.family)
    rep_a = family.members[args.a]
    rep_b = family.members[args.b] if args.b is not None else rep_a
    d_ideal = ideals.ideal_from_int(family.field, args.d)
    res = sieve.smooth_sum_residue(rep_a, rep_b, args.x, args.t, d_ideal)
    config = _resolved(args)
    config["family_label"] = family.label
    record = {
        "lhs": res.lhs,
        "main": res.main,
        "diff": res.diff,
        "residue": res.residue,
        "shape_only": res.shape_only,
        "flags": "; ".join(res.flags),
    }
    path = _default_out(args, args.format)
    emit_report([record], args.format, path, config=config)
    main = "n/a" if res.main is None else f"{res.main:.6g}"
    print(f"residue: lhs={res.lhs:.6g} main={main} "
          f"diff={res.diff if res.diff is not None else 'n/a'} -> {path}")
    return 0


def cmd_mvt(args) -> int:
    family = _load_family(args.family)
    res = sieve.mvt_mu(
        family, None, args.x, args.t, y_scale=args.y, variant=args.variant,
        truncation=args.truncation,
    )
    config = _resolved(args)
    config["family_label"] = family.label
    record = {
        "value": res.value,
        "shape": res.shape,
        "shape_only": True,
        "points": res.points,
        "flags": "; ".join(res.flags),
    }
    path = _default_out(args, args.format)
    emit_report([record], args.format, path, config=config)
    print(f"mvt: value={res.value:.9g} vs shape {res.shape:.6g} (shape only, "
          f"{res.points} quadrature points) -> {path}")
    return 0


def cmd_detect(args) -> int:
    config_obj = detect.build_detection_config(
        eta=args.eta, tau=args.tau, t_range=args.big_t, log_scale=args.log_scale,
        c_linnik=args.c_linnik, c_dirichlet_upper=args.c_upper,
    )
    triv = localdata.trivial_representation()
    series = coeffs.expand_global(triv, triv, args.truncation, "biglambda", "gl1_exact")
    zeros = detect.parse_zeros_file(args.zeros) if args.zeros else None
    report = detect.detection_bounds(series, config_obj, zeros=zeros, k=args.k)
    config = _resolved(args)
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
    path = _default_out(args, args.format)
    emit_report([record], args.format, path, config=config)
    near = "not triggered" if report.near_zero_triggered is False else (
        f"{report.near_zero_count} zeros" if report.near_zero_count is not None else "no zeros supplied")
    print(f"detect: k={report.k} |hd|={report.hd_value:.3e} (tail {report.hd_tail:.3e}) "
          f"integral={report.integral:.3e} near-zero leg: {near} -> {path}")
    return 0


def cmd_density(args) -> int:
    family = _load_family(args.family, lambda: localdata.synthetic_family(
        2, 4, seed=args.seed, model=("planted", args.p, args.theta)))
    n = max(m.degree for m in family.members)
    prime = ideals.prime_ideal(family.field, (args.p, 0))
    scale = args.scale if args.scale is not None else float(prime.norm) ** (n + 2)
    query = detect.DensityQuery.build(prime, args.theta, scale, n)
    report = detect.density_scan(family, query, seed=args.seed, epsilon=args.epsilon)
    config = _resolved(args)
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
    path = _default_out(args, args.format)
    emit_report(records, args.format, path, config=config)
    print(f"density: flagged {report.flagged_count} member(s), certificates fired for "
          f"{report.certificate_count}; measured total {report.measured_total:.6g} vs "
          f"shape {report.shape:.6g} (shape only) -> {path}")
    return 0


def cmd_count(args) -> int:
    res = detect.family_count_bound(ideals.NumberFieldSpec.rationals(), args.n, args.q, args.epsilon)
    config = _resolved(args)
    record = {
        "enumerated": res.enumerated,
        "bound_shape": res.bound_shape,
        "ratio": res.ratio,
        "shape_only": res.shape_only,
        "flags": "; ".join(res.flags),
    }
    path = _default_out(args, args.format)
    emit_report([record], args.format, path, config=config)
    shown = "n/a" if res.enumerated is None else str(res.enumerated)
    print(f"count: enumerated {shown} members, shape {res.bound_shape:.6g} -> {path}")
    return 0


def cmd_ingest(args) -> int:
    if args.hecke is None and args.zeros is None:
        raise UsageError("ingest needs --hecke or --zeros")
    records = []
    config = _resolved(args)
    if args.hecke:
        rep = localdata.ingest_hecke_eigenvalues(args.hecke, args.weight, args.level)
        for p in rep.hecke_primes:
            prime = ideals.prime_ideal(rep.field, (p, 0))
            params = rep.local_at(prime)
            records.append(
                {
                    "p": p,
                    "lambda_p": sum(params.alphas).real,
                    "alpha1_re": params.alphas[0].real,
                    "alpha1_im": params.alphas[0].imag,
                    "alpha2_re": params.alphas[1].real,
                    "alpha2_im": params.alphas[1].imag,
                }
            )
        summary = f"hecke member {rep.label} with {len(records)} primes"
    else:
        zl = detect.parse_zeros_file(args.zeros)
        records = [
            {"beta": z.real, "gamma": z.imag, "paired": zl.paired} for z in zl.zeros
        ]
        summary = f"{len(zl)} zeros from {args.zeros}"
    path = _default_out(args, args.format)
    emit_report(records, args.format, path, config=config)
    print(f"ingest: {summary} -> {path}")
    return 0


HANDLERS = {
    "constants": cmd_constants,
    "large-sieve": cmd_large_sieve,
    "psd": cmd_psd,
    "covers": cmd_covers,
    "sieve-weights": cmd_sieve_weights,
    "sifted": cmd_sifted,
    "residue": cmd_residue,
    "mvt": cmd_mvt,
    "detect": cmd_detect,
    "density": cmd_density,
    "count": cmd_count,
    "ingest": cmd_ingest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        if args.selftest:
            return _run_selftest(args.command)
        return HANDLERS[args.command](args)
    except ReportIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvariantError,) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LfuncLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
