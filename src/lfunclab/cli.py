"""Command-line surface for every verification pipeline.

Exit codes: 0 success, 2 validation/usage error, 3 invariant failure,
4 I/O error: the report cannot be written, or a --family, --zeros or
--hecke file cannot be read.  All flags are long-form; every report
embeds its fully resolved configuration so any row is reproducible from
the file alone.  No environment variables are consulted.

Each handler only computes and returns an `Outcome`; `_finish` writes the
report, prints the summary line and raises a recorded invariant failure.
`COMMANDS` maps each subcommand to its handler and the names of its selftest
modules.  Each handler imports the modules it runs, so that importing this
module loads no numpy and a subcommand loads only what it needs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InvariantError, LfuncLabError, ReportIOError, UsageError
from .report import emit_report

if TYPE_CHECKING:
    from .localdata import Family, Representation


class _SelftestRequested(Exception):
    def __init__(self, command: str):
        self.command = command


class _SelftestAction(argparse.Action):
    """Stops parsing at --selftest, as --help does, so no other flag is required."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        raise _SelftestRequested(self.const)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfunclab",
        description="Coefficient, sieve, and zero-detection verifications for L-function families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report path (default: derived from the command)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--selftest", action=_SelftestAction, const=p.prog.split()[-1],
                       help="run the module invariant suite and exit")
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


@dataclass
class Outcome:
    """What one subcommand computed; `_finish` turns it into a report and a summary line."""

    records: list
    summary: str | None  # printed as "<summary> -> <report path>"; None prints nothing
    columns: list | None = None  # report column order; None takes the first record's keys
    config: dict = field(default_factory=dict)  # echoed next to the resolved flags
    failure: str | None = None  # raised as InvariantError once the report is written


def _check_floats(args) -> None:
    """The one rule for float flags: a value that is not a finite float (nan,
    inf, or a decimal past the float range, which parses as inf) is refused
    before any work starts."""
    for name, value in sorted(vars(args).items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be a finite number, not {value}")


def _finish(args, outcome: Outcome) -> int:
    config = dict(sorted(vars(args).items()))
    config.update(outcome.config)
    path = args.out or f"lfunclab_{args.command}.{args.format}"
    emit_report(outcome.records, args.format, path, columns=outcome.columns, config=config)
    if outcome.summary is not None:
        print(f"{outcome.summary} -> {path}")
    if outcome.failure is not None:
        raise InvariantError(outcome.failure)
    return 0


def _fields(result, names: str, **given) -> dict:
    """A report record of the named result fields, in order; flags joined by '; '."""
    record = {}
    for name in names.split():
        value = given[name] if name in given else getattr(result, name)
        record[name] = "; ".join(value) if name == "flags" else value
    return record


def _trivial_family() -> Family:
    from . import localdata

    return localdata.make_family([localdata.trivial_representation()], label="trivial")


def _load_family(path: str | None, default=_trivial_family) -> Family:
    """The family in the spec file at path, or default() when no path is given."""
    from . import localdata

    if path is not None:
        return localdata.parse_family_spec(path)
    return default()


def _check_nmax(args) -> None:
    """psd and covers sweep the ideals of norm 2..--nmax; norm 1 holds only the unit ideal."""
    if args.nmax < 2:
        raise UsageError(f"--nmax must be >= 2, not {args.nmax}: norm 1 holds only the unit ideal")


def _member(family: Family, index: int, flag: str) -> Representation:
    size = len(family.members)
    if not 0 <= index < size:
        raise UsageError(f"{flag} {index} is not a member index of {family.label} (0..{size - 1})")
    return family.members[index]


def _run_selftest(modules) -> int:
    failures = 0
    for module in modules:
        checks = importlib.import_module(f"{__package__}.{module}").selftest()
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {module}: {name}" + (f" ({detail})" if detail else ""))
            failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} failure(s)")
        return 3
    print("selftest: all checks passed")
    return 0


def cmd_constants(args) -> Outcome:
    from . import detect

    cs = detect.solve_constants()
    records = [{"name": name, "value": value} for name, value in cs.as_dict().items()]
    records += [{"name": f"residual_{name}", "value": value}
                for name, value in sorted(cs.residuals.items())]
    worst = max(cs.residuals.values())
    summary = (f"constants: alpha={cs.alpha:.9f} A={cs.a_weight:.9f} V={cs.v_decay:.9f} "
               f"A0={cs.a0:.9f} A1={cs.a1:.10f} worst residual {worst:.2e}")
    return Outcome(records, summary, columns=["name", "value"])


def cmd_large_sieve(args) -> Outcome:
    from . import localdata, sieve

    try:
        n_list = [int(s) for s in str(args.n).split(",") if s]
    except ValueError:
        n_list = []
    if not n_list:
        raise UsageError(f"--n takes comma-separated integers, not {args.n!r}")
    if args.gl1:
        family = localdata.dirichlet_family_by_modulus(args.qmax)
    else:
        family = _load_family(args.family)
    kind = "logl" if args.kind == "log" else args.kind
    rows = sieve.bound_table(family, n_list, kind=kind)
    size = len(family.members)
    worst = max(r["measured_C"] for r in rows)
    summary = f"large-sieve: {family.label} |S|={size} max measured C = {worst:.6f} over N in {n_list}"
    return Outcome(rows, summary, config={"family_label": family.label, "family_size": size})


def cmd_psd(args) -> Outcome:
    from . import covers, idealtable, ideals, localdata

    if not args.tol >= 0:
        raise UsageError(f"--tol must be >= 0, not {args.tol}")
    _check_nmax(args)
    family = _load_family(args.family, lambda: localdata.dirichlet_character_family(20))
    table = covers.PairCoefficientTable(family, "lambda")
    centered = ("lambda",) if args.kind == "lambda_centered" else ()
    table.fill(idealtable.IdealTable.prime_powers(family.field, args.nmax), centered)
    records = []
    worst = math.inf
    failure = None
    for ideal in ideals.enumerate_ideals(family.field, args.nmax):
        if ideal.is_unit:
            continue
        matrix = covers.coefficient_matrix(family, ideal, args.kind, table=table)
        min_eig, spectral, verdict = covers.psd_check_full(matrix, args.tol)
        margin = min_eig + args.tol * max(spectral, 1e-300)
        records.append({"ideal_norm": ideal.norm, "kind": args.kind, "min_eig": min_eig,
                         "margin": margin, "seed": 0, "verdict": verdict})
        worst = min(worst, min_eig)
        if not verdict:
            failure = f"matrix at norm {ideal.norm} has min eigenvalue {min_eig}"
            break
    # a failed sweep reports the rows up to the failing norm and prints no summary
    summary = None if failure else (f"psd: {family.label} all matrices PSD up to norm "
                                    f"{args.nmax}; worst min eigenvalue {worst:.3e}")
    columns = ["ideal_norm", "kind", "min_eig", "margin", "seed", "verdict"]
    return Outcome(records, summary, columns, {"family_label": family.label}, failure)


def cmd_covers(args) -> Outcome:
    from . import covers, idealtable, ideals, localdata

    _check_nmax(args)
    family = _load_family(args.family, lambda: localdata.dirichlet_character_family(20))
    table = covers.PairCoefficientTable(family, "lambda")
    table.fill(idealtable.IdealTable.prime_powers(family.field, args.nmax), (args.kind,))
    records = []
    worst = math.inf
    for ideal in ideals.enumerate_ideals(family.field, args.nmax):
        if ideal.is_unit:
            continue
        res = covers.bilinear_inequality_check(
            args.kind, family, None, ideal, trials=args.trials, seed=args.seed, table=table
        )
        records.append({"ideal_norm": ideal.norm, "kind": args.kind,
                        "margin": res.worst_margin, "seed": args.seed})
        worst = min(worst, res.worst_margin)
    summary = (f"covers: worst margin {worst:.3e} over norms <= {args.nmax} "
               f"({args.trials} weight draws)")
    failure = f"cover inequality violated: margin {worst}" if worst < -1e-9 else None
    return Outcome(records, summary, ["ideal_norm", "kind", "margin", "seed"],
                   {"family_label": family.label}, failure)


def cmd_sieve_weights(args) -> Outcome:
    from . import sieve

    family = _load_family(args.family)
    rep = _member(family, args.member, "--member")
    weights = sieve.selberg_weights(rep, args.z)
    checks = weights.verify()
    brute = checks["brute_force_value"]
    records = [{"ideal_norm": d.norm, "ideal": repr(d), "rho": weights.rho[d]}
               for d in weights.support]
    summary = (f"sieve-weights: {rep.label} z={args.z:g} support {len(weights.support)} "
               f"diagonal {weights.diagonal_value:.12g} (brute force {brute:.12g})")
    ok = all(v for k, v in checks.items() if k != "brute_force_value")
    config = {"family_label": family.label, "diagonal_value": weights.diagonal_value,
              "brute_force_value": brute}
    return Outcome(records, summary, config=config,
                   failure=None if ok else f"sieve weight clauses failed: {checks}")


def cmd_sifted(args) -> Outcome:
    from . import sieve

    family = _load_family(args.family)
    res = sieve.sifted_sum_check(family, None, args.x, args.t, args.z, kind=args.kind)
    record = _fields(res, "lhs rhs_shape weighted_norm_sq sifted_count single_rep_sum "
                          "single_rep_shape shape_only flags")
    shape = res.rhs_shape if res.rhs_shape is not None else "n/a"
    summary = f"sifted: lhs={res.lhs:.6g} over {res.sifted_count} sifted ideals, shape {shape} (shape only)"
    return Outcome([record], summary, config={"family_label": family.label})


def cmd_residue(args) -> Outcome:
    from . import ideals, sieve

    family = _load_family(args.family)
    rep_a = _member(family, args.a, "--a")
    rep_b = _member(family, args.b, "--b") if args.b is not None else rep_a
    d_ideal = ideals.ideal_from_int(family.field, args.d)
    res = sieve.smooth_sum_residue(rep_a, rep_b, args.x, args.t, d_ideal)
    main_term = "n/a" if res.main is None else f"{res.main:.6g}"
    diff = res.diff if res.diff is not None else "n/a"
    summary = f"residue: lhs={res.lhs:.6g} main={main_term} diff={diff}"
    return Outcome([_fields(res, "lhs main diff residue shape_only flags")], summary,
                   config={"family_label": family.label})


def cmd_mvt(args) -> Outcome:
    from . import sieve

    family = _load_family(args.family)
    res = sieve.mvt_mu(
        family, None, args.x, args.t, y_scale=args.y, variant=args.variant,
        truncation=args.truncation,
    )
    summary = (f"mvt: value={res.value:.9g} vs shape {res.shape:.6g} (shape only, "
               f"{res.points} quadrature points)")
    return Outcome([_fields(res, "value shape shape_only points flags", shape_only=True)],
                   summary, config={"family_label": family.label})


def cmd_detect(args) -> Outcome:
    from . import coeffs, detect, localdata

    config_obj = detect.build_detection_config(
        eta=args.eta, tau=args.tau, t_range=args.big_t, log_scale=args.log_scale,
        c_linnik=args.c_linnik, c_dirichlet_upper=args.c_upper,
    )
    k = config_obj.k_min if args.k is None else args.k
    if k > detect.K_CEILING:
        raise UsageError(f"k = {k} exceeds 2^53, past which a float no longer holds k exactly")
    triv = localdata.trivial_representation()
    series = coeffs.expand_global(triv, triv, args.truncation, "biglambda", "gl1_exact")
    zeros = detect.parse_zeros_file(args.zeros) if args.zeros else None
    report = detect.detection_bounds(series, config_obj, zeros=zeros, k=args.k)
    record = _fields(report, "k hd_value hd_tail integral near_zero_count near_zero_triggered "
                             "residual_weight_log10 c_measured chain_ok constant_free flags")
    if report.near_zero_triggered is False:
        near = "not triggered"
    elif report.near_zero_count is not None:
        near = f"{report.near_zero_count} zeros"
    else:
        near = "no zeros supplied"
    summary = (f"detect: k={report.k} |hd|={report.hd_value:.3e} (tail {report.hd_tail:.3e}) "
               f"integral={report.integral:.3e} near-zero leg: {near}")
    return Outcome([record], summary, config={"zeros": args.zeros or ""})


def cmd_density(args) -> Outcome:
    from . import detect, ideals, localdata

    family = _load_family(args.family, lambda: localdata.synthetic_family(
        2, 4, seed=args.seed, model=("planted", args.p, args.theta)))
    n = max(m.degree for m in family.members)
    prime = ideals.prime_ideal(family.field, (args.p, 0))
    scale = args.scale if args.scale is not None else float(prime.norm) ** (n + 2)
    query = detect.DensityQuery.build(prime, args.theta, scale, n)
    report = detect.density_scan(family, query, seed=args.seed, epsilon=args.epsilon)
    records = [_fields(r, "member max_alpha flagged certificate_fired k_fired best_power_sum",
                       member=r.label) for r in report.rows]
    summary = (f"density: flagged {report.flagged_count} member(s), certificates fired for "
               f"{report.certificate_count}; measured total {report.measured_total:.6g} vs "
               f"shape {report.shape:.6g} (shape only)")
    return Outcome(records, summary, config={"family_label": family.label, "scale": scale})


def cmd_count(args) -> Outcome:
    from . import detect, ideals

    res = detect.family_count_bound(ideals.NumberFieldSpec.rationals(), args.n, args.q, args.epsilon)
    shown = "n/a" if res.enumerated is None else str(res.enumerated)
    summary = f"count: enumerated {shown} members, shape {res.bound_shape:.6g}"
    return Outcome([_fields(res, "enumerated bound_shape ratio shape_only flags")], summary)


def cmd_ingest(args) -> Outcome:
    from . import detect, ideals, localdata

    if args.hecke is None and args.zeros is None:
        raise UsageError("ingest needs --hecke or --zeros")
    if args.hecke:
        rep = localdata.ingest_hecke_eigenvalues(args.hecke, args.weight, args.level)
        records = []
        for p in rep.hecke_primes:
            alphas = rep.local_at(ideals.prime_ideal(rep.field, (p, 0))).alphas
            records.append({
                "p": p,
                "lambda_p": sum(alphas).real,
                "alpha1_re": alphas[0].real,
                "alpha1_im": alphas[0].imag,
                "alpha2_re": alphas[1].real,
                "alpha2_im": alphas[1].imag,
            })
        summary = f"ingest: hecke member {rep.label} with {len(records)} primes"
    else:
        zl = detect.parse_zeros_file(args.zeros)
        records = [{"beta": z.real, "gamma": z.imag, "paired": zl.paired} for z in zl.zeros]
        summary = f"ingest: {len(zl)} zeros from {args.zeros}"
    return Outcome(records, summary)


# subcommand -> (handler, modules whose selftest() runs under --selftest, in order)
COMMANDS = {
    "constants": (cmd_constants, ("detect",)),
    "large-sieve": (cmd_large_sieve, ("sieve", "ideals")),
    "psd": (cmd_psd, ("covers", "coeffs")),
    "covers": (cmd_covers, ("covers", "coeffs")),
    "sieve-weights": (cmd_sieve_weights, ("sieve",)),
    "sifted": (cmd_sifted, ("sieve",)),
    "residue": (cmd_residue, ("sieve",)),
    "mvt": (cmd_mvt, ("sieve",)),
    "detect": (cmd_detect, ("detect",)),
    "density": (cmd_density, ("detect", "localdata")),
    "count": (cmd_count, ("detect", "localdata")),
    "ingest": (cmd_ingest, ("localdata", "characters")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except _SelftestRequested as request:
            return _run_selftest(COMMANDS[request.command][1])
        if args.threads < 1:
            parser.error("--threads must be >= 1")
        _check_floats(args)
        return _finish(args, COMMANDS[args.command][0](args))
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ReportIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LfuncLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
