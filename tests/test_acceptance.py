"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here; everything arithmetic is exact."""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

from twistgate.cli import run
from twistgate.curve import curve_by_label, quadratic_twist, short_form
from twistgate.descent import (
    enumerate_signed_modules,
    lemma_sum_check,
    quad_point_search,
    twist_map,
)
from twistgate.fieldsearch import OVERALL_VERIFIED, check_hypothesis, search
from twistgate.galois import serre_check
from twistgate.lseries import VERDICT_NONZERO, l_value_at_1
from twistgate.numtheory import is_squarefree, jacobi, primes_up_to
from twistgate.reduction import count_points
from twistgate.rootnum import (
    CASE_ARCHIMEDEAN,
    CASE_NONSPLIT,
    CASE_SPLIT,
    INFINITE_PLACE,
    global_root_number,
    twist_root_number_formula,
)

E15 = curve_by_label("15a1")
E21 = curve_by_label("21a1")


def report(k, elapsed, detail):
    print(f"[acceptance] criterion {k}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_j_invariants_exact(capsys):
    start = time.time()
    payloads = {}
    for label in ("15a1", "21a1"):
        result = run(["curve-info", "--label", label, "--json"])
        assert result.status == "ok"
        payloads[label] = json.loads(capsys.readouterr().out)["payload"]
    assert payloads["15a1"]["j"] == str(Fraction(13**3 * 37**3, 3**4 * 5**4))
    assert payloads["15a1"]["j"] == "111284641/50625"
    assert payloads["21a1"]["j"] == str(Fraction(193**3, 3**4 * 7**2))
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, elapsed, "curve-info yields both j-invariants exactly")


def test_criterion_2_point_counts():
    start = time.time()
    assert count_points(E15, 7) == 8
    assert count_points(E21, 5) == 8
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, elapsed, "#X(F_7) = #X(F_5) = 8 for the two curves, exact")


def test_criterion_3_twist_formula_equivalence():
    start = time.time()
    total = 0
    for model, N in ((E15, 15), (E21, 21)):
        for d in range(1, 1001):
            if d % 4 != 1 or math.gcd(d, N) != 1 or not is_squarefree(d):
                continue
            total += 1
            formula = twist_root_number_formula(model, d)
            direct = global_root_number(quadratic_twist(model, d)).value
            assert formula == direct, (N, d)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(3, elapsed, f"formula = direct root number on all {total} twist instances")


def test_criterion_4_global_root_numbers_with_ledger():
    start = time.time()
    rn15 = global_root_number(E15)
    rn21 = global_root_number(E21)
    assert rn15.value == 1
    assert rn21.value == 1
    assert rn15.local_factors == (
        (INFINITE_PLACE, -1, CASE_ARCHIMEDEAN),
        (3, 1, CASE_NONSPLIT),
        (5, -1, CASE_SPLIT),
    )
    elapsed = time.time() - start
    report(4, elapsed, "w = +1 for both curves; 15a1 ledger: nonsplit at 3, split at 5")


def test_criterion_5_serre_sweep():
    start = time.time()
    expected = {15: {(3, -4), (5, -4)}, 21: {(3, -4), (7, -2)}}
    for model, N in ((E15, 15), (E21, 21)):
        for ell in primes_up_to(97):
            if ell == 2:
                continue
            rep = serre_check(model, ell)
            assert rep.overall, (N, ell)
            assert {(c.q, c.v_q_of_j) for c in rep.j_exponent_checks} == expected[N]
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(5, elapsed, "criterion hypotheses hold for every odd ell <= 97, exact exponents")


def test_criterion_6_lemma_sum_harness():
    start = time.time()
    modules = 0
    elements = 0
    for k in (1, 2, 3):
        for n in (1, 2):
            for r in (1, 2):
                for module in enumerate_signed_modules(k, n, r):
                    result = lemma_sum_check(module)
                    assert result.passed, (k, n, r, module.generators)
                    assert result.components.shape == (2**r, module.size, n)
                    modules += 1
                    elements += module.size
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(6, elapsed, f"{modules} modules, {elements} verified decompositions")


def test_criterion_7_twist_correspondence_points():
    start = time.time()
    curve = short_form(E15)
    admissible = [t.ds[0] for t in search(5, 1, 200)]
    tested_ds = []
    for d in admissible:
        points = quad_point_search(curve, d, 50)
        if not points:
            continue
        tested_ds.append(d)
        anti = [p for p in points if p.is_anti_invariant]
        rational_nonzero = [p for p in points if p.is_invariant and p.y]
        assert anti, d
        for p in anti:
            image = twist_map(p, d)
            assert image.x.is_rational and image.y.is_rational, (d, str(p.x))
        for p in rational_nonzero:
            image = twist_map(p, d)
            assert not (image.x.is_rational and image.y.is_rational), (d, str(p.x))
        if len(tested_ds) >= 3:
            break
    assert len(tested_ds) >= 3
    elapsed = time.time() - start
    report(
        7,
        elapsed,
        f"d in {tested_ds}: anti-invariant points land rationally on the twist, "
        "rational y != 0 points do not",
    )


def test_criterion_8_search_oracle_equivalence():
    start = time.time()

    def oracle(p, r, bound):
        def _legendre(a, q):
            a %= q
            return 0 if a == 0 else (1 if pow(a, (q - 1) // 2, q) == 1 else -1)

        def single(d):
            return (
                all(d % (q * q) for q in range(2, math.isqrt(d) + 1))
                and d % 4 == 1
                and math.gcd(d, 3 * p) == 1
                and _legendre(d, 3) * _legendre(d, p) == 1
            )

        singles = [d for d in range(1, bound + 1) if single(d)]
        out = []
        for combo in combinations(singles, r):
            ok = True
            for size in range(1, r + 1):
                for sub in combinations(combo, size):
                    prod = math.prod(sub)
                    if math.isqrt(prod) ** 2 == prod:
                        ok = False
            if ok:
                out.append(combo)
        return out

    got1 = [t.ds for t in search(5, 1, 100)]
    got2 = [t.ds for t in search(5, 2, 100)]
    assert got1 == oracle(5, 1, 100)
    assert got2 == oracle(5, 2, 100)
    assert (17, 61) in got2
    assert all(13 not in t for t in got2)
    elapsed = time.time() - start
    report(8, elapsed, f"search matches the brute-force filter ({len(got1)} singles, {len(got2)} pairs)")


def test_criterion_9_hypothesis_pipeline():
    start = time.time()
    for ds in ([17], [17, 61]):
        rep = check_hypothesis(5, ds)
        assert len(rep.per_character) == 2 ** len(ds)
        for c in rep.per_character:
            assert c.root_number.value == 1, (ds, c.signs)
            assert c.formula_sign == 1
            # a definite verdict, or an honest inconclusive after the 4x retry
            if c.lvalue.verdict == VERDICT_NONZERO:
                assert abs(c.lvalue.value) > 10 * c.lvalue.tail_bound
            else:
                assert c.retried
        assert rep.overall == OVERALL_VERIFIED, rep.overall
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(9, elapsed, "check-hypothesis(5,[17]) and (5,[17,61]): all 6 characters verified")


def test_criterion_10_functional_equation_cross_check():
    start = time.time()
    checked = []
    for d in (13, 29, 37, 41, 73):
        assert jacobi(d, 15) == -1 and d % 4 == 1
        twist = quadratic_twist(E15, d)
        rn = global_root_number(twist)
        assert rn.value == -1
        # evaluate off the symmetric point so the zero is a real cancellation
        est = l_value_at_1(twist, t=1.2)
        assert est.root_number == rn.value
        assert abs(est.value) <= 3 * est.tail_bound, d
        checked.append(d)
    elapsed = time.time() - start
    report(
        10,
        elapsed,
        f"5 root-number -1 twists {checked}: |L(E,1)| within 3x tail bound (forced zero)",
    )
