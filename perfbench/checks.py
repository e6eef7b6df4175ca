"""Correctness gate for every benchmark operation.

An operation fails when it raises, returns ``unsupported-input``, or gives
a wrong answer.  A negative verdict (``check-failed`` from a Serre check
whose hypotheses do not hold, an inconclusive L-value) is a valid answer
and passes as long as it matches the pinned reference.

Two kinds of check run on every operation:

* pinned: ``extract(payload)`` must equal the reference output recorded
  from the seed commit (``reference.json``), except that L-values only
  need to agree within the sum of the two tail bounds plus the rounding of
  the printed values;
* independent: properties recomputed with the benchmark's own arithmetic
  (root number -1 forces |L| <= tail, zero mismatches from
  ``twist-root-check``, the twist count, the Jacobi-symbol twist formula,
  the tuples ``search`` returns, the character discriminants).
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal, localcontext

from arith import admissible_tuples, character_discriminants, is_squarefree, jacobi

CONDUCTOR = {"15a1": 15, "21a1": 21}

_LVALUE_FIELDS = ("conductor", "root_number", "terms_used", "verdict")
_CHARACTER_FIELDS = (
    "discriminant",
    "root_number",
    "formula_sign",
    "conductor",
    "terms_used",
    "verdict",
    "retried",
)


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _tuples_digest(tuples) -> str:
    return hashlib.sha256(json.dumps(tuples).encode()).hexdigest()[:16]


def extract(argv, status: str, payload: dict) -> dict:
    """The part of an operation's output that the reference pins."""
    out: dict = {"status": status}
    if status == "unsupported-input":
        return out
    command = argv[0]
    if command == "check-hypothesis":
        out["overall"] = payload["overall"]
        out["characters"] = [
            {
                **{k: c[k] for k in _CHARACTER_FIELDS},
                "value": c["lvalue"],
                "tail_bound": c["tail_bound"],
            }
            for c in payload["characters"]
        ]
    elif command == "lvalue":
        out.update({k: payload[k] for k in _LVALUE_FIELDS})
        out["value"] = payload["value"]
        out["tail_bound"] = payload["tail_bound"]
    elif command == "twist-root-check":
        out.update({k: payload[k] for k in ("conductor", "instances", "mismatches")})
    elif command == "root-number":
        keys = ("conductor", "jacobi_symbol", "base_root_number", "formula_sign",
                "direct_sign", "agree")
        out.update({k: payload[k] for k in keys})
    elif command == "search":
        out["count"] = payload["count"]
        out["tuples_sha256"] = _tuples_digest(payload["tuples"])
    elif command == "serre-check":
        out.update({k: payload[k] for k in ("overall", "aux_prime", "j_exponent_checks")})
    elif command == "descent-check" and payload["lemma"] == "sum":
        out.update({k: payload[k] for k in ("modules_checked", "all_passed")})
    elif command == "descent-check":
        out.update({k: payload[k] for k in ("points_found", "all_passed")})
        out["x"] = [row["x"] for row in payload["points"]]
    else:
        raise ValueError(f"no reference extractor for {command!r}")
    return out


# The CLI converts an L-value to mpmath's default 53-bit precision before
# printing it, so its printed digits are only good to a relative 2^-53.
_PRINTED_RELATIVE_ERROR = Decimal(2) ** -53


def _ulp(text: str) -> Decimal:
    """Half a unit in the last printed digit of a decimal string."""
    d = Decimal(text)
    if d == 0:
        return Decimal(0)
    return Decimal(5).scaleb(d.adjusted() - len(d.as_tuple().digits))


def _lvalue_agrees(got: dict, want: dict) -> bool:
    """Both values bound L(E,1) to within their tails, up to printing."""
    with localcontext() as ctx:
        ctx.prec = 80
        g, w = Decimal(got["value"]), Decimal(want["value"])
        tol = (
            Decimal(got["tail_bound"]) + Decimal(want["tail_bound"])
            + _ulp(got["value"]) + _ulp(want["value"])
            + (abs(g) + abs(w)) * _PRINTED_RELATIVE_ERROR
        )
        return abs(g - w) <= tol


def _agrees(got: dict, want: dict) -> str | None:
    """None when got matches the pinned want, else a description of the gap."""
    if got.keys() != want.keys():
        return f"fields {sorted(got)} != pinned {sorted(want)}"
    for key, w in want.items():
        g = got[key]
        if key == "characters":
            if len(g) != len(w):
                return f"{len(g)} characters, pinned {len(w)}"
            for gc, wc in zip(g, w):
                gap = _agrees(gc, wc)
                if gap:
                    return f"character d={wc['discriminant']}: {gap}"
        elif key == "value":
            if not _lvalue_agrees(got, want):
                return f"L-value {g} vs pinned {w} beyond the tail bounds"
        elif key != "tail_bound" and g != w:
            return f"{key} = {g!r}, pinned {w!r}"
    return None


def _forced_zero_holds(value: str, tail: str, root_number: int) -> bool:
    """Root number -1 forces L(E,1) = 0, so |L| must be within the tail."""
    if root_number != -1:
        return True
    return abs(Decimal(value)) <= Decimal(tail) + _ulp(value)


def independent(argv, status: str, payload: dict) -> str | None:
    """Checks recomputed from the input alone; None when all hold."""
    if status == "unsupported-input":
        return "unsupported-input"
    command = argv[0]
    if command == "lvalue":
        if not _forced_zero_holds(payload["value"], payload["tail_bound"],
                                  payload["root_number"]):
            return f"root number -1 but |L| = {payload['value']} exceeds the tail"
    elif command == "check-hypothesis":
        ds = [int(s) for s in _opt(argv, "--d").split(",")]
        got = [c["discriminant"] for c in payload["characters"]]
        if got != character_discriminants(ds):
            return f"character discriminants {got} != {character_discriminants(ds)}"
        for c in payload["characters"]:
            if c["root_number"] != c["formula_sign"]:
                return f"d={c['discriminant']}: root number differs from the twist formula"
            if not _forced_zero_holds(c["lvalue"], c["tail_bound"], c["root_number"]):
                return f"d={c['discriminant']}: root number -1 but |L| exceeds the tail"
    elif command == "twist-root-check":
        N = CONDUCTOR[_opt(argv, "--label")]
        dmax = int(_opt(argv, "--dmax"))
        want = sum(
            1 for d in range(1, dmax + 1)
            if d % 4 == 1 and math.gcd(d, N) == 1 and is_squarefree(d)
        )
        if payload["mismatches"]:
            return f"{len(payload['mismatches'])} twist root-number mismatches"
        if payload["instances"] != want:
            return f"{payload['instances']} twists checked, expected {want}"
    elif command == "root-number":
        d = int(_opt(argv, "--twist"))
        N = CONDUCTOR[_opt(argv, "--label")]
        formula = jacobi(d, N) * payload["base_root_number"]
        if not (payload["agree"] and payload["formula_sign"] == formula
                and payload["direct_sign"] == formula):
            return f"twist by {d}: formula {formula} vs {payload}"
    elif command == "search":
        p, r, bound = (int(_opt(argv, f)) for f in ("--p", "--r", "--bound"))
        want = [list(t) for t in admissible_tuples(p, r, bound)]
        if payload["tuples"] != want:
            return f"search returned {payload['count']} tuples, expected {len(want)}"
    elif command == "descent-check":
        if not payload["all_passed"]:
            return "descent check reported a failure"
    return None


def check(op: dict, status: str, payload: dict) -> str | None:
    """Full gate for one operation: None when it passed, else the reason."""
    argv = op["argv"]
    reason = independent(argv, status, payload)
    if reason:
        return reason
    return _agrees(extract(argv, status, payload), op["expect"])
