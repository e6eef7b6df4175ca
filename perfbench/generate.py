"""Deterministic, seeded operation streams for the benchmark's workloads.

Usage: python3 perfbench/generate.py --workload NAME --seed N [--rounds K]
prints the first K rounds' operations and their input statistics.

A workload's pool (``reference.json``) is the same for every seed.  The
pool is cut into groups (kinds of operation) and each group, sorted by its
pinned cost, into strata of equal size.  A round takes a fixed number of
operations from every stratum, so every seed's rounds have the same mix of
cheap and costly operations and the figures of runs with different seeds
stay comparable; the seed picks which operations and their order.  Each
stratum is walked in a seeded permutation, so an operation repeats only
after its whole stratum has been used.

Generation reads only the reference file and uses no program code, so it
warms no state the timed calls use.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from pathlib import Path

from arith import character_discriminants, discriminant

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# workload -> [(group, strata, picks per stratum per round)]
MIX = {
    # Every rank-1 tuple of the pool once per round (so only their order
    # depends on the seed, which keeps the median and tail steady across
    # seeds), plus two tuples whose L-value is retried with 4x terms and two
    # rank-2 tuples, one from each cost half of their groups.
    "hypothesis-sweep": [("r1", 1, 36), ("retry", 2, 1), ("r2", 2, 1)],
    # One curve from each fifth of the pool by cost per round.
    "lvalue-fresh": [("curve", 5, 1)],
    "exact-mix": [
        ("twist-root-check", 2, 1),
        ("root-number", 2, 3),
        ("search", 2, 1),
        ("serre-check", 1, 3),
        ("descent-sum", 1, 1),
        ("descent-tmw", 1, 1),
    ],
}


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def strata(pool: list[dict], workload: str) -> list[tuple[list[int], int]]:
    """(pool indices of one stratum, picks per round) for every stratum."""
    out = []
    for group, count, picks in MIX[workload]:
        members = sorted(
            (i for i, item in enumerate(pool) if item["group"] == group),
            key=lambda i: (pool[i]["cost_ms"], pool[i]["argv"]),
        )
        if len(members) < count:
            raise ValueError(f"{workload}: group {group!r} has {len(members)} items")
        n = len(members)
        out.extend((members[k * n // count:(k + 1) * n // count], picks) for k in range(count))
    return out


def rounds(pool: list[dict], workload: str, seed: int, n_rounds: int) -> list[list[int]]:
    """The first n_rounds rounds for this seed, each a list of pool indices."""
    rng = random.Random(f"{workload}:{seed}")
    walks = [(rng.sample(members, len(members)), picks) for members, picks in strata(pool, workload)]
    out = []
    for i in range(n_rounds):
        round_ = [walk[(i * picks + j) % len(walk)] for walk, picks in walks for j in range(picks)]
        rng.shuffle(round_)
        out.append(round_)
    return out


def max_fresh_rounds(pool: list[dict], workload: str) -> int:
    """Rounds before any stratum wraps around and operations start repeating."""
    return min(len(members) // picks for members, picks in strata(pool, workload))


def _input_key(argv: list[str]) -> list[tuple]:
    """What a result cache would key on: (p, d_S) per character for
    check-hypothesis, the curve for lvalue, the whole operation otherwise."""
    if argv[0] == "check-hypothesis":
        p = int(argv[argv.index("--p") + 1])
        ds = [int(s) for s in argv[argv.index("--d") + 1].split(",")]
        return [(p, d) for d in character_discriminants(ds)]
    return [tuple(argv)]


def describe(pool: list[dict], ops: list[int]) -> dict:
    """Input properties of an operation sequence: how much of it repeats,
    and the spread of series lengths and discriminants."""
    seen: set = set()
    keys = repeats = 0
    terms: list[int] = []
    discs: list[int] = []
    for index in ops:
        item = pool[index]
        for key in _input_key(item["argv"]):
            keys += 1
            repeats += key in seen
            seen.add(key)
        expect = item["expect"]
        if item["argv"][0] == "check-hypothesis":
            terms.extend(c["terms_used"] for c in expect["characters"])
            discs.extend(c["discriminant"] for c in expect["characters"])
        elif item["argv"][0] == "lvalue":
            terms.append(expect["terms_used"])
            ainvs = [int(s) for s in item["argv"][2].split(",")]
            discs.append(abs(discriminant(ainvs)))

    def quartiles(values):
        if len(values) < 2:
            return values
        return [min(values), *statistics.quantiles(values, n=4), max(values)]

    return {
        "operations": len(ops),
        "repeat_share": repeats / keys if keys else 0.0,
        "terms_quartiles": quartiles(terms),
        "discriminant_quartiles": quartiles(discs),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIX))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    pool = load_reference()["workloads"][args.workload]["pool"]
    ops = [i for r in rounds(pool, args.workload, args.seed, args.rounds) for i in r]
    for index in ops:
        print(" ".join(pool[index]["argv"]))
    print(json.dumps(describe(pool, ops)))


if __name__ == "__main__":
    main()
