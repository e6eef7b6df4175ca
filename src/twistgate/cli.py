"""Command-line surface: every library operation behind a subcommand, with
human-readable text by default and a single JSON document under --json.

The --json document is json.dumps(document), one line; pipe it through
`python -m json.tool` for an indented view.  A handler returns its text as
a function, so the lines are formatted only when they are printed, never
under --json.

It only parses, dispatches and prints; the library owns the argument rules
(ArgumentError).  The CLI checks only --curve and --d, which it parses, and
the options each --lemma form needs.  The rule on a twist parameter d is
rootnum's: root-number --twist (rootnum.twist_root_number_formula) and the
sweep over d <= --dmax (rootnum.twist_sweep) both apply it, and both read
the curve's conductor and root number from its record.

Exit codes, one per status: 0 ok (and any verification passed); 1
check-failed, a check ran to completion and failed; 2 unsupported-input, a
TwistgateError or a usage error; 3 internal-error, an InvariantError, a
fault in the program.  An error payload carries "error", the message, and
"error_type", the exception's class name.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal

from . import __version__
from .curve import (
    WeierstrassModel,
    curve_by_label,
    invariants,
    short_form,
)
from .descent import (
    enumerate_signed_modules,
    lemma_sum_check,
    quad_point_search,
    twist_map,
)
from .errors import InvariantError, TwistgateError
from .fieldsearch import (
    OVERALL_VERIFIED,
    SUPPORTED_P,
    check_hypothesis,
    search,
)
from .galois import serre_check
from .lseries import DEFAULT_MARGIN, EVIDENCE_NOTE, l_value_at_1
from .numtheory import factor
from .reduction import classify, conductor, local_data
from .rootnum import global_root_number, twist_root_number_formula, twist_sweep

STATUS_OK = "ok"
STATUS_CHECK_FAILED = "check-failed"
STATUS_UNSUPPORTED = "unsupported-input"
STATUS_INTERNAL = "internal-error"

EXIT_CODE = {STATUS_OK: 0, STATUS_CHECK_FAILED: 1, STATUS_UNSUPPORTED: 2, STATUS_INTERNAL: 3}


@dataclass
class CommandResult:
    """A handler's status, its JSON payload, and its text: a function that
    formats the lines, called only when they are printed.  Results compare
    by status and payload, which the text is formatted from."""

    status: str
    payload: dict
    text: Callable[[], list[str]] = field(compare=False)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.status]


def _factored(n: int) -> str:
    if n in (0, 1, -1):
        return str(n)
    sign = "-" if n < 0 else ""
    return sign + " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factor(abs(n)).factors)


def _parse_curve_arg(text: str) -> WeierstrassModel:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 5:
        raise TwistgateError("--curve expects five comma-separated integers a1,a2,a3,a4,a6")
    try:
        return WeierstrassModel(*(int(s) for s in parts))
    except ValueError as exc:
        raise TwistgateError(f"bad curve coefficients: {exc}") from exc


def _resolve_curve(args) -> tuple[WeierstrassModel, str]:
    if getattr(args, "label", None):
        return curve_by_label(args.label), args.label.lower()
    if getattr(args, "curve", None):
        model = _parse_curve_arg(args.curve)
        return model, str(model)
    raise TwistgateError("select a curve with --label or --curve")


def _sign_str(s: int) -> str:
    return "+1" if s == 1 else "-1"


def _significant(x: Decimal, n: int) -> str:
    """x to n significant digits, rounded half up, in mpmath nstr's layout:
    fixed point iff min(-(n // 3), -5) < e < n for the leading exponent e."""
    x = Context(prec=n, rounding=ROUND_HALF_UP).plus(x)
    fixed = x.is_zero() or min(-(n // 3), -5) < x.adjusted() < n
    mantissa, _, exponent = f"{x:{'f' if fixed else 'e'}}".partition("e")
    whole, _, frac = mantissa.partition(".")
    return f"{whole}.{frac.rstrip('0') or '0'}" + (f"e{exponent}" if exponent else "")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_curve_info(args) -> CommandResult:
    model, name = _resolve_curve(args)
    inv = invariants(model)
    A, B = short_form(model)
    payload = {
        "curve": name,
        "ainvs": list(model.ainvs()),
        "b2": inv.b2,
        "b4": inv.b4,
        "b6": inv.b6,
        "b8": inv.b8,
        "c4": inv.c4,
        "c6": inv.c6,
        "delta": inv.delta,
        "delta_factored": _factored(inv.delta),
        "j": str(inv.j),
        "j_factored": f"({_factored(inv.j.numerator)}) / ({_factored(inv.j.denominator)})",
        "short_form": [str(A), str(B)],
    }

    def text() -> list[str]:
        return [
            f"curve {name}: {model}",
            f"  b2={inv.b2} b4={inv.b4} b6={inv.b6} b8={inv.b8}",
            f"  c4 = {inv.c4}, c6 = {inv.c6}",
            f"  Delta = {inv.delta} = {payload['delta_factored']}",
            f"  j = {inv.j} = {payload['j_factored']}",
            f"  short form: y^2 = x^3 + ({A}) x + ({B})",
        ]

    return CommandResult(STATUS_OK, payload, text)


def _cmd_reduction(args) -> CommandResult:
    E, name = _resolve_curve(args)
    if args.twist is not None:
        E = local_data(E).twist(args.twist)
        name = f"{name} twisted by {args.twist}"
    data = classify(E, args.p)
    payload = {
        "curve": name,
        "p": data.p,
        "kind": data.kind.value,
        "points": data.points,
        "a_p": data.a_p,
        "defect": data.p + 1 - data.points,
    }

    def text() -> list[str]:
        return [
            f"reduction of {name} at {data.p}: {data.kind.value}",
            f"  #X(F_{data.p}) = {data.points} (singular point included), "
            f"p + 1 - #X = {data.a_p}",
        ]

    return CommandResult(STATUS_OK, payload, text)


def _cmd_root_number(args) -> CommandResult:
    model, name = _resolve_curve(args)
    if args.twist is None:
        rn = global_root_number(model)
        payload = {
            "curve": name,
            "value": rn.value,
            "local_factors": [
                {"place": str(place), "sign": sign, "case": case}
                for place, sign, case in rn.local_factors
            ],
        }

        def text() -> list[str]:
            return [
                f"global root number of {name}: {_sign_str(rn.value)}",
                "  local factors (Dokchitser-Dokchitser case table):",
                *(f"    place {place}: {_sign_str(sign)}  [{case}]"
                  for place, sign, case in rn.local_factors),
            ]

        return CommandResult(STATUS_OK, payload, text)
    d = args.twist
    data = local_data(model)
    formula = twist_root_number_formula(data, d)
    N, w = conductor(data), global_root_number(data).value
    symbol = formula * w  # (d/N), as w(E) = +-1
    direct = global_root_number(data.twist(d))
    agree = direct.value == formula
    payload = {
        "curve": name,
        "twist": d,
        "conductor": N,
        "jacobi_symbol": symbol,
        "base_root_number": w,
        "formula_sign": formula,
        "direct_sign": direct.value,
        "agree": agree,
    }

    def text() -> list[str]:
        return [
            f"twist root number, formula path: w(E^({d})) = ({d}/{N}) * w(E) "
            f"= {symbol:+d} * {w:+d} = {_sign_str(formula)}",
            f"  direct local product on the twisted curve: {_sign_str(direct.value)}"
            + ("  [agrees]" if agree else "  [MISMATCH]"),
        ]

    status = STATUS_OK if agree else STATUS_CHECK_FAILED
    return CommandResult(status, payload, text)


def _cmd_twist_root_check(args) -> CommandResult:
    model, name = _resolve_curve(args)
    N, signs = twist_sweep(model, args.dmax)
    mismatches = [{"d": d, "formula": f, "direct": g} for d, f, g in signs if f != g]
    payload = {
        "curve": name,
        "conductor": N,
        "dmax": args.dmax,
        "instances": len(signs),
        "mismatches": mismatches,
    }
    ok = not mismatches

    def text() -> list[str]:
        return [
            f"twist root-number equivalence for {name} (N = {N}), squarefree "
            f"d = 1 mod 4, gcd(d, N) = 1, d <= {args.dmax}:",
            f"  {len(signs)} twists checked, {len(mismatches)} mismatches"
            + ("" if ok else f": {mismatches}"),
        ]

    return CommandResult(STATUS_OK if ok else STATUS_CHECK_FAILED, payload, text)


def _cmd_lvalue(args) -> CommandResult:
    model, name = _resolve_curve(args)
    data = local_data(model)
    if args.twist is not None:
        data = data.twist(args.twist)
        name = f"{name} twisted by {args.twist}"
    est = l_value_at_1(data, terms=args.terms, margin_factor=args.margin)
    payload = {
        "curve": name,
        "conductor": est.conductor,
        "root_number": est.root_number,
        "terms_used": est.terms_used,
        "terms_summed": est.terms_summed,
        "value": _significant(est.value, 30),
        "tail_bound": _significant(est.tail_bound, 10),
        "margin_factor": args.margin,
        "verdict": est.verdict,
        "note": EVIDENCE_NOTE,
    }

    def text() -> list[str]:
        return [
            f"L(E,1) for {name}: N = {est.conductor}, root number {_sign_str(est.root_number)}",
            f"  value = {payload['value']}",
            f"  tail bound = {payload['tail_bound']} "
            f"({est.terms_used} terms, margin factor {args.margin})",
            f"  verdict: {est.verdict}",
            f"  note: {EVIDENCE_NOTE}",
        ]

    return CommandResult(STATUS_OK, payload, text)


def _cmd_serre_check(args) -> CommandResult:
    model, name = _resolve_curve(args)
    report = serre_check(model, args.ell, args.aux)
    payload = {
        "curve": name,
        "ell": report.ell,
        "j_exponent_checks": [
            {"q": c.q, "v_q_of_j": c.v_q_of_j, "ok": c.ok} for c in report.j_exponent_checks
        ],
        "aux_prime": {
            "q": report.aux_check.q,
            "points": report.aux_check.points,
            "ok": report.aux_check.ok,
        },
        "overall": report.overall,
        "statement": report.statement,
    }

    def text() -> list[str]:
        lines = [f"Serre criterion hypotheses for {name} at ell = {report.ell}:"]
        for c in report.j_exponent_checks:
            lines.append(
                f"  v_{c.q}(j) = {c.v_q_of_j}: ell | {abs(c.v_q_of_j)}? "
                + ("no [ok]" if c.ok else "YES [fail]")
            )
        if not report.j_exponent_checks:
            lines.append("  j is integral: no pole of j to check [fail]")
        ac = report.aux_check
        lines.append(
            f"  #E(F_{ac.q}) = {ac.points}: ell | {ac.points}? "
            + ("no [ok]" if ac.ok else "YES [fail]")
        )
        lines.append(f"  overall: {'PASS' if report.overall else 'FAIL'} ({report.statement})")
        return lines

    status = STATUS_OK if report.overall else STATUS_CHECK_FAILED
    return CommandResult(status, payload, text)


def _cmd_search(args) -> CommandResult:
    tuples = search(args.p, args.r, args.bound)
    payload = {
        "p": args.p,
        "r": args.r,
        "bound": args.bound,
        "count": len(tuples),
        "tuples": [list(t.ds) for t in tuples],
    }

    def text() -> list[str]:
        return [
            f"admissible {args.r}-tuples for p = {args.p} with d_i <= {args.bound} "
            f"(squarefree, 1 mod 4, coprime to {3 * args.p}, Jacobi symbol +1, "
            "independent modulo squares):",
            f"  {len(tuples)} tuples",
            *("  " + ", ".join(str(d) for d in t.ds) for t in tuples),
        ]

    return CommandResult(STATUS_OK, payload, text)


def _cmd_check_hypothesis(args) -> CommandResult:
    try:
        ds = [int(s) for s in args.d.split(",") if s.strip()]
    except ValueError as exc:
        raise TwistgateError(f"--d expects comma-separated integers, got {args.d!r}") from exc
    report = check_hypothesis(args.p, ds, margin_factor=args.margin)
    payload = {
        "p": report.p,
        "ds": list(report.ds),
        "admissible": report.admissibility.ok,
        "admissibility_failure": report.admissibility.failed_condition,
        "overall": report.overall,
        "note": report.note,
        "unramified_at_6p": report.unramified_at_6p,
        "characters": [
            {
                "signs": list(c.signs),
                "discriminant": c.discriminant,
                "root_number": c.root_number.value,
                "formula_sign": c.formula_sign,
                "lvalue": _significant(c.lvalue.value, 25),
                "tail_bound": _significant(c.lvalue.tail_bound, 8),
                "terms_used": c.lvalue.terms_used,
                "terms_summed": c.lvalue.terms_summed,
                "conductor": c.lvalue.conductor,
                "verdict": c.lvalue.verdict,
                "retried": c.retried,
            }
            for c in report.per_character
        ],
        "evidence_note": EVIDENCE_NOTE,
    }

    def text() -> list[str]:
        lines = [f"hypothesis check: p = {report.p}, tuple ({', '.join(map(str, report.ds))})"]
        if not report.admissibility.ok:
            lines.append(f"  not admissible: {report.admissibility.failed_condition} "
                         f"({report.admissibility.detail})")
        else:
            for c in report.per_character:
                signs = "".join("+" if s == 1 else "-" for s in c.signs)
                lines.append(
                    f"  character {signs}: d_S = {c.discriminant}, N = {c.lvalue.conductor}, "
                    f"w = {_sign_str(c.root_number.value)} (formula {_sign_str(c.formula_sign)}), "
                    f"L(1) = {_significant(c.lvalue.value, 12)} [{c.lvalue.verdict}"
                    + (", retried x4 terms]" if c.retried else "]")
                )
            lines.append(f"  unramified at primes dividing 6p: "
                         f"{'yes (implied by admissibility)' if report.unramified_at_6p else 'no'}")
        lines.append(f"  overall: {report.overall} ({report.note})")
        return lines

    status = STATUS_OK if report.overall == OVERALL_VERIFIED else STATUS_CHECK_FAILED
    return CommandResult(status, payload, text)


def _cmd_descent_check(args) -> CommandResult:
    if args.lemma == "sum":
        if args.k is None or args.n is None or args.r is None:
            raise TwistgateError("--lemma sum needs --k, --n and --r")
        modules = enumerate_signed_modules(args.k, args.n, args.r)
        failures = []
        for module in modules:
            result = lemma_sum_check(module)
            if not result.passed:
                failures.extend(result.failures)
        payload = {
            "lemma": "sum",
            "k": args.k,
            "n": args.n,
            "r": args.r,
            "modules_checked": len(modules),
            "all_passed": not failures,
            "failures": failures[:20],
        }

        def text() -> list[str]:
            return [
                f"2^r decomposition check on (Z/2^{args.k})^{args.n} with r = {args.r} "
                "commuting involutions (diagonal/swap generators):",
                f"  {len(modules)} modules checked, "
                + ("all elements received verified decomposition certificates"
                   if not failures else f"{len(failures)} FAILURES"),
            ]

        status = STATUS_OK if not failures else STATUS_CHECK_FAILED
        return CommandResult(status, payload, text)

    if args.d is None or args.height is None:
        raise TwistgateError("--lemma tmw needs --d and --height")
    label = args.label or "15a1"
    model = curve_by_label(label)
    curve = short_form(model)
    points = quad_point_search(curve, args.d, args.height)
    rows = []
    for pt in points:
        image_rational = twist_map(pt, args.d).is_invariant
        # quad_point_search keeps only anti-invariant points (2-torsion
        # included) and rational points with y != 0
        if pt.is_anti_invariant:
            kind = "anti-invariant"
            ok = image_rational
        else:
            kind = "invariant (y != 0)"
            ok = not image_rational
        rows.append(
            {
                "x": str(pt.x.a),
                "y": str(pt.y),
                "kind": kind,
                "image_rational": image_rational,
                "ok": ok,
            }
        )
    bad = [row for row in rows if not row["ok"]]
    payload = {
        "lemma": "tmw",
        "curve": label,
        "d": args.d,
        "height": args.height,
        "points_found": len(points),
        "points": rows,
        "all_passed": not bad,
    }

    def text() -> list[str]:
        return [
            f"twist correspondence for {label} over Q(sqrt({args.d})), x-height <= {args.height}:",
            f"  {len(points)} points found",
            *(f"  x = {row['x']}: {row['kind']}, image "
              + ("rational" if row["image_rational"] else "not rational")
              + ("  [ok]" if row["ok"] else "  [FAIL]")
              for row in rows),
        ]

    status = STATUS_OK if not bad else STATUS_CHECK_FAILED
    return CommandResult(status, payload, text)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser tree; run() builds one on first use and keeps it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")

    margin = argparse.ArgumentParser(add_help=False)
    margin.add_argument(
        "--margin",
        type=float,
        default=DEFAULT_MARGIN,
        help="margin factor for L-value verdicts, finite and at least 1 (default %(default)g)",
    )

    curvesel = argparse.ArgumentParser(add_help=False)
    group = curvesel.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", help="curve label from the table (15a1, 21a1)")
    group.add_argument("--curve", help="a1,a2,a3,a4,a6 integer coefficients")

    parser = argparse.ArgumentParser(
        prog="twistgate",
        description="Elliptic-curve reduction data, root numbers, quadratic twists, "
        "and L(E,1) rank-0 evidence over multiquadratic fields.",
    )
    parser.add_argument("--version", action="version", version=f"twistgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve-info", parents=[common, curvesel],
                       help="Weierstrass invariants, discriminant, j-invariant")
    p.set_defaults(handler=_cmd_curve_info)

    p = sub.add_parser("reduction", parents=[common, curvesel],
                       help="reduction type, point count and a_p at a prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--twist", type=int, help="twist the curve first")
    p.set_defaults(handler=_cmd_reduction)

    p = sub.add_parser("root-number", parents=[common, curvesel],
                       help="global root number (ledger), or the twist formula with --twist")
    p.add_argument("--twist", type=int,
                   help="squarefree positive d = 1 mod 4 prime to the conductor")
    p.set_defaults(handler=_cmd_root_number)

    p = sub.add_parser("twist-root-check", parents=[common, curvesel],
                       help="formula vs direct root numbers for all valid d <= dmax")
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(handler=_cmd_twist_root_check)

    p = sub.add_parser("lvalue", parents=[common, margin, curvesel],
                       help="L(E,1) estimate with rigorous tail bound")
    p.add_argument("--terms", type=int, help="series length (default max(1000, 10 sqrt(N)))")
    p.add_argument("--twist", type=int, help="twist the curve first")
    p.set_defaults(handler=_cmd_lvalue)

    p = sub.add_parser("serre-check", parents=[common, curvesel],
                       help="mod-ell surjectivity criterion hypotheses")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--aux", type=int, help="auxiliary good prime (default: smallest odd)")
    p.set_defaults(handler=_cmd_serre_check)

    p = sub.add_parser("search", parents=[common],
                       help="admissible twist tuples up to a bound")
    p.add_argument("--p", type=int, choices=SUPPORTED_P, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("check-hypothesis", parents=[common, margin],
                       help="full per-character root-number and L-value pipeline")
    p.add_argument("--p", type=int, choices=SUPPORTED_P, required=True)
    p.add_argument("--d", required=True, help="comma-separated d_1,...,d_r")
    p.set_defaults(handler=_cmd_check_hypothesis)

    p = sub.add_parser("descent-check", parents=[common],
                       help="twist-correspondence point test or 2^r decomposition harness")
    p.add_argument("--lemma", choices=("sum", "tmw"), required=True)
    p.add_argument("--k", type=int, help="(sum) exponent of the 2-group")
    p.add_argument("--n", type=int, help="(sum) rank of the module")
    p.add_argument("--r", type=int, help="(sum) number of involutions")
    p.add_argument("--d", type=int, help="(tmw) squarefree d > 1")
    p.add_argument("--height", type=int, help="(tmw) x-height bound")
    p.add_argument("--label", help="(tmw) curve label, default 15a1")
    p.set_defaults(handler=_cmd_descent_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv=None) -> CommandResult:
    """Parse argv, dispatch, print the result; returns the CommandResult."""
    args = _parser().parse_args(argv)
    try:
        result = args.handler(args)
        lines = [] if args.json else result.text()
    except (TwistgateError, InvariantError) as exc:
        status = STATUS_UNSUPPORTED if isinstance(exc, TwistgateError) else STATUS_INTERNAL
        payload = {"error": str(exc), "error_type": type(exc).__name__}
        result, lines = CommandResult(status, payload, list), []
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    if args.json:
        document = {
            "status": result.status,
            "command": args.command,
            "payload": result.payload,
        }
        print(json.dumps(document))
    else:
        for line in lines:
            print(line)
    return result


def main(argv=None) -> int:
    return run(argv).exit_code


if __name__ == "__main__":
    sys.exit(main())
