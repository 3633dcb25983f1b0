"""Command-line interface.

Subcommands: plan, verify, count, markov, asymptotic, invert, bench.
Structured output (--format json or csv) is deterministic for fixed
flags and seed, except for measured wall times.  Reports that embed a
plan also embed the sha256 of its canonical JSON so results are
traceable to exact programs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import asymptotic, chains, linalg, markov
from .linalg import plan_digest
from .planner import PlanReport, Strategy, plan as build_plan, predicted_cost
from .slp import add_count, oracle_facts, passes_oracle, to_json

DEFAULT_VERIFY_STRATEGIES = ("auto", "binary", "ternary", "mixed:11,7,5,3,2")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite(doc):
    """doc with every non-finite float replaced by None, which JSON can carry."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return doc


def _dump_json(doc) -> str:
    return json.dumps(_finite(doc), indent=2, allow_nan=False) + "\n"


def _report_doc(rep: PlanReport) -> dict:
    return {
        "n": rep.n,
        "strategy": rep.strategy.label(),
        "method": rep.method,
        "muls": rep.muls,
        "adds": add_count(rep.program),
        "predicted": rep.predicted,
        "reduction_trace": [list(step) for step in rep.reduction_trace],
        "plan_sha256": plan_digest(rep.program),
    }


def cmd_plan(args) -> int:
    rep = build_plan(args.n, args.strategy)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_json(rep.program))
            fh.write("\n")
    doc = _report_doc(rep)
    if args.format == "json":
        sys.stdout.write(_dump_json(doc))
    else:
        pred = "-" if rep.predicted is None else f"{rep.predicted:.3f}"
        print(f"n={rep.n} strategy={doc['strategy']} method={rep.method} muls={rep.muls} predicted={pred}")
        if not args.out:
            print(to_json(rep.program))
    return 0


def _parse_strategies(items) -> list[Strategy]:
    return [Strategy.parse(s) for s in (items or DEFAULT_VERIFY_STRATEGIES)]


def _plans(strategies: list[Strategy], lo: int, hi: int):
    """(n, strategy, report) for every length in [lo, hi] and every strategy
    that applies there; a strategy that does not is skipped at that length."""
    for n in range(lo, hi + 1):
        for strat in strategies:
            try:
                rep = build_plan(n, strat)
            except ValueError:
                continue
            yield n, strat, rep


def _count_row(n: int, strat: Strategy, rep: PlanReport) -> dict:
    """One row of the counts table; predicted is None where no formula exists."""
    try:
        pred = predicted_cost(strat, n)
    except ValueError:
        pred = None
    return {"n": n, "strategy": strat.label(), "muls": rep.muls, "predicted": pred}


def cmd_verify(args) -> int:
    strategies = _parse_strategies(args.strategy)
    failures: list[dict] = []
    rows: list[dict] = []
    checked = 0
    max_bits = decodes = retries = 0
    for n, strat, rep in _plans(strategies, args.min, args.max):
        checked += 1
        ok, bits, scans, abandoned = oracle_facts(rep.program)
        max_bits = max(max_bits, bits)
        decodes += scans
        retries += abandoned
        if not ok:
            failures.append(
                {
                    "n": n,
                    "strategy": strat.label(),
                    "muls": rep.muls,
                    "plan": json.loads(to_json(rep.program)),
                }
            )
        if args.counts:
            rows.append({**_count_row(n, strat, rep), "ok": ok})
    # Known-bad reference fixtures must keep failing the oracle.
    fixtures = [
        ("flawed-length-11", chains.flawed_length11_chain()),
        ("flawed-length-26", chains.flawed_length26_chain()),
    ]
    fixture_rows = []
    fixture_trouble = False
    for name, prog in fixtures:
        failed = not passes_oracle(prog)
        fixture_rows.append({"fixture": name, "fails_oracle": failed, "expected": True})
        if not failed:
            fixture_trouble = True
    ok_overall = not failures and not fixture_trouble
    doc = {
        "checked": checked,
        "range": [args.min, args.max],
        "strategies": [s.label() for s in strategies],
        "failures": failures,
        "fixtures": fixture_rows,
        "ok": ok_overall,
        "oracle": {"max_bits": max_bits, "decodes": decodes, "retries": retries},
    }
    if args.counts:
        doc["counts"] = rows
    if args.format == "json":
        _write(_dump_json(doc), args.out)
    else:
        lines = [
            f"checked {checked} plans over [{args.min}, {args.max}]: "
            + ("all pass" if not failures else f"{len(failures)} FAILED")
        ]
        for f in failures:
            lines.append(f"FAIL n={f['n']} strategy={f['strategy']}")
        for row in fixture_rows:
            status = "fails oracle as designed" if row["fails_oracle"] else "UNEXPECTEDLY PASSES"
            lines.append(f"fixture {row['fixture']}: {status}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if ok_overall else 1


def cmd_count(args) -> int:
    strategies = _parse_strategies(args.strategy)
    rows = [_count_row(n, strat, rep) for n, strat, rep in _plans(strategies, args.min, args.max)]
    if args.format == "json":
        _write(_dump_json(rows), args.out)
    elif args.format == "csv":
        lines = ["n,strategy,muls,predicted"]
        for r in rows:
            pred = "" if r["predicted"] is None else f"{r['predicted']:.6f}"
            lines.append(f"{r['n']},{r['strategy']},{r['muls']},{pred}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = []
        for r in rows:
            pred = "-" if r["predicted"] is None else f"{r['predicted']:.3f}"
            lines.append(
                f"n={r['n']:>6} {r['strategy']:<18} muls={r['muls']:>4} predicted={pred}\n"
            )
        _write("".join(lines), args.out)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        items = ()
    if not items:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {text!r}")
    return items


def _sample_count(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need an integer >= 2, got {text!r}")
    return n


def cmd_markov(args) -> int:
    rows = []
    for bases in args.bases:
        chain = markov.build_chain(bases, modulus=args.modulus)
        result = markov.stationary(chain)
        row = {
            "bases": list(bases),
            "modulus": chain.modulus,
            "coefficient": result.coefficient,
            "mean_cost": str(result.mean_cost),
            "avg_base": result.avg_base,
            "base_probs": {str(p): str(q) for p, q in sorted(result.base_probs.items())},
            "solver": dataclasses.asdict(result.solver),
        }
        if chain.modulus <= 64 or args.full_dist:
            row["stationary"] = [str(p) for p in result.dist]
        if args.empirical:
            mean, stderr = markov.empirical_coefficient_stats(
                bases, args.empirical, (args.nmin, args.nmax), args.seed
            )
            row["empirical"] = mean
            row["empirical_stderr"] = stderr
        rows.append(row)
    if args.format == "json":
        _write(_dump_json(rows), args.out)
    elif args.format == "csv":
        lines = ["bases,coefficient,empirical"]
        for r in rows:
            emp = f"{r['empirical']:.4f}" if "empirical" in r else ""
            lines.append(f"\"{','.join(map(str, r['bases']))}\",{r['coefficient']:.4f},{emp}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = []
        for r in rows:
            extra = f" empirical={r['empirical']:.4f}" if "empirical" in r else ""
            lines.append(f"bases={r['bases']} coefficient={r['coefficient']:.4f}{extra}\n")
        _write("".join(lines), args.out)
    return 0


def cmd_asymptotic(args) -> int:
    result = asymptotic.compute_k(args.digits)
    floors = asymptotic.verify_floor_identity(args.floor_levels)
    doc = {
        "k": str(result.k),
        "coefficient": str(result.coefficient),
        "terms_used": result.terms_used,
        "error_bound": str(result.error_bound),
        "floor_identity": [
            {"n": row.n, "y": row.y, "floor": row.floor_value, "match": row.match}
            for row in floors
        ],
        "level_coefficients": [
            {"n": n, "size": chains.RECURRENCE_SIZES[n],
             "coefficient": asymptotic.coefficient_for_recurrence_level(n)}
            for n in range(1, chains.MAX_RECURRENCE_LEVEL + 1)
        ],
    }
    if args.format == "json":
        _write(_dump_json(doc), args.out)
    else:
        lines = [
            f"k = {doc['k']}\n",
            f"coefficient = {doc['coefficient']}  (terms={result.terms_used})\n",
        ]
        for row in doc["floor_identity"]:
            lines.append(
                f"  n={row['n']}: floor={row['floor']} expected={row['y']} match={row['match']}\n"
            )
        _write("".join(lines), args.out)
    return 0


def cmd_invert(args) -> int:
    a = linalg.load_matrix(args.matrix)
    a_hat, rep = linalg.neumann_invert(
        a, args.terms, strategy=args.strategy, allow_divergent=args.allow_divergent
    )
    if args.out:
        linalg.save_matrix(args.out, a_hat)
    doc = {
        "n": rep.n,
        "terms": rep.terms,
        "strategy": rep.strategy,
        "matrix_muls": rep.matrix_muls,
        "matrix_buffers": rep.matrix_buffers,
        "wall_time_s": rep.wall_time,
        "residual_fro": rep.residual_fro,
        "spectral_radius_est": rep.spectral_radius_est,
        "spectral_radius_converged": rep.spectral_radius_converged,
        "spectral_radius_iterations": rep.spectral_radius_iterations,
        "plan_sha256": rep.plan_sha256,
        "output": args.out,
    }
    text = _dump_json(doc) if args.format == "json" else (
        f"n={rep.n} terms={rep.terms} strategy={rep.strategy} "
        f"matrix_muls={rep.matrix_muls} matrix_buffers={rep.matrix_buffers} "
        f"residual={rep.residual_fro:.3e} rho={rep.spectral_radius_est:.4f} "
        f"rho_converged={rep.spectral_radius_converged} "
        f"rho_iterations={rep.spectral_radius_iterations} "
        f"plan_sha256={rep.plan_sha256}\n"
    )
    _write(text, args.report)
    return 0


def cmd_bench(args) -> int:
    cells = linalg.bench(args.sizes, args.terms, replicates=args.replicates, seed=args.seed)
    lines = [
        "size,terms,direct_muls,fast_muls,fast_method,direct_mean_s,direct_std_s,"
        "direct_median_s,fast_mean_s,fast_std_s,fast_median_s,speedup,"
        "speedup_median,residual_fro,path_diff_rel,direct_plan_sha256,fast_plan_sha256"
    ]
    for c in cells:
        lines.append(
            f"{c.size},{c.terms},{c.direct_muls},{c.fast_muls},{c.fast_method},"
            f"{c.direct_mean_s:.6e},{c.direct_std_s:.6e},{c.direct_median_s:.6e},"
            f"{c.fast_mean_s:.6e},{c.fast_std_s:.6e},{c.fast_median_s:.6e},"
            f"{c.speedup:.3f},{c.speedup_median:.3f},{c.residual_fro:.6e},"
            f"{c.path_diff_rel:.6e},{c.direct_plan_sha256},{c.fast_plan_sha256}"
        )
    _write("\n".join(lines) + "\n", args.out)
    if args.report:
        doc = [
            {f: getattr(c, f) for f in c.__dataclass_fields__} for c in cells
        ]
        with open(args.report, "w") as fh:
            fh.write(_dump_json(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomseries",
        description="Minimal-multiplication plans for truncated geometric series "
        "and Neumann-series matrix inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="emit a plan for one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--out", help="write plan JSON here")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="oracle-check emitted plans over a range")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=4096)
    p.add_argument("--strategy", action="append", help="repeatable; default auto, binary, ternary, mixed")
    p.add_argument("--counts", action="store_true", help="include per-length counts in the report")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="multiplication counts and predictions")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--strategy", action="append")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("markov", help="stationary analysis of mixed-base policies")
    p.add_argument(
        "--bases", type=_int_list, action="append", required=True,
        help="e.g. 11,7,5,3,2 (repeatable)",
    )
    p.add_argument("--modulus", type=int, help="override the residue modulus (sensitivity checks)")
    p.add_argument(
        "--empirical", type=_sample_count, metavar="SAMPLES", help="add a Monte-Carlo column"
    )
    p.add_argument("--nmin", type=int, default=10**3)
    p.add_argument("--nmax", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-dist", action="store_true")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("asymptotic", help="growth constant and limiting coefficient")
    p.add_argument("--digits", type=int, default=14)
    p.add_argument("--floor-levels", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("invert", help="approximate a matrix inverse")
    p.add_argument("matrix", help="input matrix (.csv or binary)")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--out", help="write the approximate inverse here")
    p.add_argument("--report", help="write the run report here (default stdout)")
    p.add_argument("--allow-divergent", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("bench", help="direct vs fast inversion timings")
    p.add_argument("--sizes", type=_int_list, default="50,100,250,500")
    p.add_argument("--terms", type=_int_list, default="5,6,7,8,9")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.add_argument("--report", help="also write a JSON report here")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify", "count") and not 1 <= args.min <= args.max:
        parser.error(
            f"{args.command}: need 1 <= --min <= --max, got --min {args.min} --max {args.max}"
        )
    # Exit 1: a result that could not be certified.  Exit 2: bad input,
    # which is any ValueError or OSError.  ConvergenceError is a
    # ValueError, so it is caught first.  Anything else is a bug and keeps
    # its traceback.  The message is printed on one line.
    try:
        return args.func(args)
    except (linalg.ConvergenceError, markov.CertificationError) as exc:
        status, message = 1, str(exc)
    except (ValueError, OSError) as exc:
        status, message = 2, str(exc)
    print(f"geomseries {args.command}: error: {' '.join(message.split())}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
