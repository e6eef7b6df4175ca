"""Tests for the benchmark's generator, correctness gate and metric list."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import arith  # noqa: E402
import checks  # noqa: E402
import generate  # noqa: E402
import layers  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(generate.MIX)


@pytest.fixture(scope="module")
def reference():
    return generate.load_reference()


def pool_of(reference, workload):
    return reference["workloads"][workload]["pool"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_rounds(reference, workload):
    pool = pool_of(reference, workload)
    first = generate.rounds(pool, workload, 7, 30)
    assert first == generate.rounds(pool, workload, 7, 30)
    assert first != generate.rounds(pool, workload, 8, 30)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_has_the_same_mix(reference, workload):
    pool = pool_of(reference, workload)
    stratum_of = {i: k for k, (members, _) in enumerate(generate.strata(pool, workload))
                  for i in members}
    want = Counter({k: picks for k, (_, picks) in enumerate(generate.strata(pool, workload))})
    for round_ in generate.rounds(pool, workload, 3, 40):
        assert Counter(stratum_of[i] for i in round_) == want


def test_lvalue_fresh_never_repeats_a_base_curve(reference):
    pool = pool_of(reference, "lvalue-fresh")
    n = generate.max_fresh_rounds(pool, "lvalue-fresh")
    assert n >= 100
    ops = [i for r in generate.rounds(pool, "lvalue-fresh", 11, n) for i in r]
    curves = [tuple(int(s) for s in pool[i]["argv"][2].split(",")) for i in ops]
    assert len({arith.j_invariant(c) for c in curves}) == len(curves)
    assert generate.describe(pool, ops)["repeat_share"] == 0.0


def test_lvalue_pool_meets_its_definition(reference):
    for item in pool_of(reference, "lvalue-fresh"):
        ainvs = [int(s) for s in item["argv"][2].split(",")]
        a1, a2, a3, a4, a6 = ainvs
        delta = arith.discriminant(ainvs)
        assert a1 in (0, 1) and a3 in (0, 1) and a2 in (-1, 0, 1)
        assert abs(a4) <= pin.COEFF_RANGE and abs(a6) <= pin.COEFF_RANGE
        assert delta % 2 and delta % 3 and 0 < abs(delta) < pin.DELTA_BOUND


def test_hypothesis_pool_is_admissible_and_capped(reference):
    for item in pool_of(reference, "hypothesis-sweep"):
        p = int(item["argv"][2])
        ds = tuple(int(s) for s in item["argv"][4].split(","))
        assert ds in arith.admissible_tuples(p, len(ds), max(ds))
        assert len(ds) <= 2
        assert max(arith.character_discriminants(ds)) <= pin.R2_CHARACTER_CAP
        for c in item["expect"]["characters"]:
            assert c["terms_used"] < 10**6


def test_hypothesis_sweep_repeats_characters(reference):
    pool = pool_of(reference, "hypothesis-sweep")
    ops = [i for r in generate.rounds(pool, "hypothesis-sweep", 5, 4) for i in r]
    assert generate.describe(pool, ops)["repeat_share"] > 0.3


def test_generation_imports_no_program_code():
    code = (
        "import sys, generate\n"
        "for w in generate.MIX:\n"
        "    pool = generate.load_reference()['workloads'][w]['pool']\n"
        "    generate.describe(pool, sum(generate.rounds(pool, w, 1, 5), []))\n"
        "print(sorted(m for m in sys.modules if m.startswith('twistgate')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_admissible_tuples_match_known_counts():
    assert len(arith.admissible_tuples(5, 2, 200)) == 45
    assert arith.admissible_tuples(5, 1, 61) == [(17,), (53,), (61,)]
    assert arith.character_discriminants((17, 61)) == [1, 61, 17, 1037]


LVALUE_ARGV = ["lvalue", "--curve", "0,0,1,-1,0"]
LVALUE_EXPECT = {"status": "ok", "conductor": 37, "root_number": -1, "terms_used": 1000,
                 "verdict": "Inconclusive", "value": "0.0", "tail_bound": "1.0e-40"}


def test_gate_accepts_lvalue_within_tails():
    payload = {**LVALUE_EXPECT, "value": "5.0e-41", "tail_bound": "1.0e-40"}
    del payload["status"]
    assert checks.check({"argv": LVALUE_ARGV, "expect": LVALUE_EXPECT}, "ok", payload) is None


def test_gate_rejects_forced_zero_beyond_tail():
    payload = {**LVALUE_EXPECT, "value": "1.0e-30"}
    del payload["status"]
    assert "root number -1" in checks.check(
        {"argv": LVALUE_ARGV, "expect": LVALUE_EXPECT}, "ok", payload)


def test_gate_rejects_wrong_conductor_and_unsupported_input():
    payload = {**LVALUE_EXPECT, "conductor": 38}
    del payload["status"]
    assert "conductor" in checks.check({"argv": LVALUE_ARGV, "expect": LVALUE_EXPECT},
                                       "ok", payload)
    assert checks.check({"argv": LVALUE_ARGV, "expect": LVALUE_EXPECT},
                        "unsupported-input", {"error": "x"})


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = layers.metric_names() + ["lterms_per_s", "trace.overhead_share"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_latencies_scale_by_the_calibrations_around_them():
    result = {"latencies": [1.0, 1.0, 2.0], "blocks": [0, 0, 1],
              "calibrations": [0.01, 0.03, 0.01]}
    nominal = run.NOMINAL_CALIBRATION_S
    assert run.scaled_latencies(result) == pytest.approx(
        [0.5 * nominal / 0.01, 0.5 * nominal / 0.01, 1.0 * nominal / 0.01])


def test_tail_percentile_counts_samples_beyond_it():
    assert run.percentile(list(range(1, 101)), 90) == (90, 10)
    assert run.percentile([5.0], 99) == (5.0, 0)


def test_gate_allows_printed_rounding_but_not_more():
    want = {**LVALUE_EXPECT, "root_number": 1, "verdict": "NonzeroEvidence",
            "value": "0.253841860855910684337758923351", "tail_bound": "2.4e-25"}
    op = {"argv": LVALUE_ARGV, "expect": want}
    payload = {k: v for k, v in want.items() if k != "status"}
    rounded = {**payload, "value": "0.253841860855910705918603298414"}
    assert checks.check(op, "ok", rounded) is None
    off = {**payload, "value": "0.253841860855920684337758923351"}
    assert "beyond the tail" in checks.check(op, "ok", off)
