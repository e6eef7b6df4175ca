"""Pin the benchmark's input pools and their reference outputs.

Usage: python3 perfbench/pin.py [--workload NAME ...]

Builds each workload's pool of operations (the same for every seed),
runs every operation once through ``twistgate.cli.run`` from ``src/`` of
this checkout, and writes ``reference.json`` beside this file: per
operation its argv, the output fields the correctness gate compares
(``checks.extract``), and its cost in milliseconds, which the generator
uses only to sort operations into strata of similar cost.  An operation
the program cannot run is left out of the pool and listed under
``excluded`` with its reason.

Re-pin only from a commit whose outputs are known good: the pinned
outputs are what later commits are checked against.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from arith import (
    admissible_tuples,
    character_discriminants,
    discriminant,
    is_squarefree,
    j_invariant,
)
from checks import CONDUCTOR, extract, independent
from worker import import_twistgate, run_op

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# hypothesis-sweep: rank-1 tuples up to this d, and rank-2 tuples whose
# every character discriminant stays within the cap.  An operation may sum
# at most OP_TERMS_CAP Dirichlet terms over its characters, retries
# included (about the 40 163 of the d = 1037 character at p = 5), which
# keeps every operation within a few seconds.
R1_BOUND = 400
R2_CHARACTER_CAP = 600
OP_TERMS_CAP = 40_000

# lvalue-fresh: every LVALUE_STRIDE-th curve of the distinct-j universe.
COEFF_RANGE = 30
DELTA_BOUND = 10**6
LVALUE_STRIDE = 8

SERRE_AUX = {"15a1": (None, 7, 11, 13, 101, 997), "21a1": (None, 5, 11, 13, 101, 997)}
DESCENT_SUM_GRID = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 1),
    (1, 3, 2), (1, 3, 3), (1, 4, 1), (1, 4, 2), (1, 4, 3), (2, 1, 1), (2, 1, 2),
    (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1),
)
SEARCH_BOUNDS = {1: (500, 1000, 1500, 2000), 2: (100, 200, 300, 400, 500, 600),
                 3: (100, 150, 200, 250)}

def hypothesis_pool():
    for p in (5, 7):
        for (d,) in admissible_tuples(p, 1, R1_BOUND):
            yield "r1", ["check-hypothesis", "--p", str(p), "--d", str(d)]
        for ds in admissible_tuples(p, 2, R2_CHARACTER_CAP):
            if max(character_discriminants(ds)) <= R2_CHARACTER_CAP:
                yield "r2", ["check-hypothesis", "--p", str(p), "--d", ",".join(map(str, ds))]


def hypothesis_group(group: str, expect: dict) -> tuple[str, str | None]:
    """Operations that retry a character form their own group, so that every
    round holds the same number of them; (group, reason to exclude or None)."""
    characters = expect["characters"]
    terms = sum(c["terms_used"] for c in characters)
    if terms > OP_TERMS_CAP:
        return group, f"sums {terms} terms, over the benchmark's cap of {OP_TERMS_CAP}"
    return ("retry" if any(c["retried"] for c in characters) else group), None


def lvalue_universe() -> list[tuple[int, ...]]:
    """Curves with a1, a3 in {0,1}, a2 in {-1,0,1}, |a4|, |a6| <= 30, Delta odd,
    prime to 3 and below 10^6 in size, keeping the first of each j-invariant
    so that no two share a base curve (curves with equal j are twists)."""
    seen = set()
    out = []
    r = range(-COEFF_RANGE, COEFF_RANGE + 1)
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                for a4 in r:
                    for a6 in r:
                        ainvs = (a1, a2, a3, a4, a6)
                        delta = discriminant(ainvs)
                        if delta == 0 or delta % 2 == 0 or delta % 3 == 0:
                            continue
                        if abs(delta) >= DELTA_BOUND:
                            continue
                        j = j_invariant(ainvs)
                        if j in seen:
                            continue
                        seen.add(j)
                        out.append(ainvs)
    return out


def lvalue_pool():
    for ainvs in lvalue_universe()[::LVALUE_STRIDE]:
        yield "curve", ["lvalue", "--curve", ",".join(map(str, ainvs))]


def exact_pool():
    for label, N in CONDUCTOR.items():
        for dmax in range(1000, 2001, 50):
            yield "twist-root-check", ["twist-root-check", "--label", label, "--dmax", str(dmax)]
        for d in range(5, 1201):
            if d % 4 == 1 and math.gcd(d, N) == 1 and is_squarefree(d):
                yield "root-number", ["root-number", "--label", label, "--twist", str(d)]
        for ell in range(3, 100, 2):
            if all(ell % q for q in range(3, ell, 2)):
                for aux in SERRE_AUX[label]:
                    argv = ["serre-check", "--label", label, "--ell", str(ell)]
                    yield "serre-check", argv + ([] if aux is None else ["--aux", str(aux)])
        for d in range(2, 31):
            if is_squarefree(d):
                for height in (10, 20, 30):
                    yield "descent-tmw", ["descent-check", "--lemma", "tmw", "--label", label,
                                          "--d", str(d), "--height", str(height)]
    for p in (5, 7):
        for r, bounds in SEARCH_BOUNDS.items():
            for bound in bounds:
                yield "search", ["search", "--p", str(p), "--r", str(r), "--bound", str(bound)]
    for k, n, r in DESCENT_SUM_GRID:
        yield "descent-sum", ["descent-check", "--lemma", "sum", "--k", str(k),
                              "--n", str(n), "--r", str(r)]


POOLS = {
    "hypothesis-sweep": hypothesis_pool,
    "lvalue-fresh": lvalue_pool,
    "exact-mix": exact_pool,
}


def pin(cli, workload: str) -> tuple[list[dict], list[dict]]:
    items, excluded = [], []
    for n, (group, argv) in enumerate(POOLS[workload]()):
        elapsed, status, payload = run_op(cli, argv)
        if status.startswith("error"):
            reason = status
        elif status == "unsupported-input":
            reason = f"unsupported-input: {payload['error']}"
        else:
            reason = independent(argv, status, payload)
        expect = None if reason else extract(argv, status, payload)
        if expect and workload == "hypothesis-sweep":
            group, reason = hypothesis_group(group, expect)
        if reason:
            excluded.append({"argv": argv, "reason": reason})
            continue
        items.append({
            "group": group,
            "argv": argv,
            "expect": expect,
            "cost_ms": round(elapsed * 1000, 1),
        })
        if n % 100 == 0:
            print(f"{workload}: {n} operations pinned", file=sys.stderr)
    return items, excluded


def write_reference(reference: dict) -> None:
    """One pool item per line, so that re-pinning gives a readable diff."""
    lines = ['{"workloads": {']
    names = list(reference["workloads"])
    for i, name in enumerate(names):
        entry = reference["workloads"][name]
        lines.append(f"{json.dumps(name)}: {{")
        lines.append(f'"excluded": {json.dumps(entry["excluded"])},')
        lines.append('"pool": [')
        pool = entry["pool"]
        lines.extend(json.dumps(item) + ("," if j + 1 < len(pool) else "")
                     for j, item in enumerate(pool))
        lines.append("]}" + ("," if i + 1 < len(names) else ""))
    lines.append("}}")
    REFERENCE.write_text("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(POOLS))
    args = parser.parse_args()
    cli = import_twistgate(HERE.parent / "src")
    reference = {"workloads": json.loads(REFERENCE.read_text())["workloads"]
                 if REFERENCE.exists() else {}}
    for workload in args.workload or list(POOLS):
        items, excluded = pin(cli, workload)
        reference["workloads"][workload] = {"excluded": excluded, "pool": items}
        print(f"{workload}: {len(items)} pinned, {len(excluded)} excluded", file=sys.stderr)
        write_reference(reference)


if __name__ == "__main__":
    main()
