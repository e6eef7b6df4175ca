import collections
import json
import random

import pytest

from twistgate.cli import run
from twistgate.curve import WeierstrassModel, minimalize_at, quadratic_twist
from twistgate.errors import (
    HypothesisViolationError,
    InvariantError,
    NonMinimalModelError,
    PrimeTooLargeError,
    SingularCurveError,
    UnsupportedPlaceError,
    UnsupportedReductionAtTwoError,
    UnsupportedReductionError,
)
from twistgate.galois import serre_check
from twistgate.lseries import l_value_at_1
from twistgate.numtheory import factor, jacobi, primes_up_to, squarefree_part
from twistgate.reduction import (
    BSGS_BOUND,
    ReductionData,
    ReductionKind,
    classify,
    conductor,
    count_points,
    LocalData,
)
from twistgate.rootnum import global_root_number, twist_root_number_formula


def scale_model(E, u):
    return WeierstrassModel(E.a1 * u, E.a2 * u**2, E.a3 * u**3, E.a4 * u**4, E.a6 * u**6)


def count_points_naive(E, p):
    """O(p^2) enumeration of all affine pairs, plus the point at infinity:
    the independent oracle of count_points."""
    a1, a2, a3, a4, a6 = E.ainvs()
    n = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                n += 1
    return n


class TestCountPoints:
    def test_known_counts_from_modular_curves(self, e15, e21):
        assert count_points(e15, 7) == 8
        assert count_points(e21, 5) == 8

    def test_small_counts(self, e15, e21):
        assert count_points(e15, 3) == 5
        assert count_points(e15, 5) == 5
        assert count_points(e21, 3) == 3
        assert count_points(e21, 7) == 9

    def test_two_implementations_agree(self, e15, e21):
        curves = [e15, e21, quadratic_twist(e15, 17), quadratic_twist(e21, 5)]
        for model in curves:
            for p in primes_up_to(97):
                assert count_points(model, p) == count_points_naive(model, p), (model, p)

    def test_prime_bound(self, e15):
        with pytest.raises(PrimeTooLargeError):
            count_points(e15, 1000003)

    def test_nonprime_rejected(self, e15):
        with pytest.raises(ValueError):
            count_points(e15, 15)

    def test_p_equals_2(self, e15):
        assert count_points(e15, 2) == count_points_naive(e15, 2) == 4
        for model in GRID:
            assert count_points(model, 2) == count_points_naive(model, 2), model


class TestClassify:
    def test_15a1_nonsplit_at_3(self, e15):
        data = classify(e15, 3)
        assert data.kind is ReductionKind.MULT_NONSPLIT
        assert data.a_p == -1
        assert data.points == 5

    def test_15a1_split_at_5(self, e15):
        data = classify(e15, 5)
        assert data.kind is ReductionKind.MULT_SPLIT
        assert data.a_p == 1

    def test_21a1(self, e21):
        assert classify(e21, 3).kind is ReductionKind.MULT_SPLIT
        assert classify(e21, 7).kind is ReductionKind.MULT_NONSPLIT

    def test_twist_is_additive_potentially_good(self, e15):
        data = classify(quadratic_twist(e15, 17), 17)
        assert data.kind is ReductionKind.ADD_POT_GOOD
        assert data.a_p == 0

    def test_twist_at_bad_prime_is_potentially_multiplicative(self, e15):
        # 5 divides the conductor, so v_5(j) < 0 survives the twist
        data = classify(quadratic_twist(e15, 5), 5)
        assert data.kind is ReductionKind.ADD_POT_MULT
        assert data.a_p == 0

    def test_good_prime(self, e15):
        data = classify(e15, 7)
        assert data.kind is ReductionKind.GOOD
        assert data.a_p == 0  # 7 + 1 - 8

    def test_p2_answers(self, e15):
        assert classify(e15, 2) == ReductionData(2, ReductionKind.GOOD, 4, -1)
        # y^2 + xy = x^3 + 2: Delta = -1730, c4 = 1
        assert classify(WeierstrassModel(1, 0, 0, 0, 2), 2).kind is ReductionKind.MULT_SPLIT
        # y^2 = x^3 - x: additive at 2
        with pytest.raises(UnsupportedReductionAtTwoError):
            classify(WeierstrassModel(0, 0, 0, -1, 0), 2)

    def test_nonminimal_at_3_rejected(self, e15):
        model = scale_model(e15, 3)
        with pytest.raises(NonMinimalModelError):
            classify(model, 3)
        with pytest.raises(NonMinimalModelError):
            LocalData(model).at(3)

    def test_nonminimal_at_5_is_silently_minimalized(self, e15):
        assert classify(scale_model(e15, 5), 5) == classify(e15, 5)

    def test_defect_matches_kind_table(self, e15, e21):
        # the split/nonsplit/additive defect table, asserted literally
        cases = []
        for model in (e15, e21):
            for p in (3, 5, 7, 11, 13):
                cases.append(classify(model, p))
        for d in (13, 17, 29):
            cases.append(classify(quadratic_twist(e15, d), d))
        for data in cases:
            defect = data.p + 1 - data.points
            if data.kind is ReductionKind.MULT_SPLIT:
                assert defect == 1
            elif data.kind is ReductionKind.MULT_NONSPLIT:
                assert defect == -1
            elif data.kind.is_additive:
                assert defect == 0
            else:
                assert defect * defect <= 4 * data.p

    def test_hasse_bound_over_good_primes(self, e15, e21):
        # d = 1 mod 4 keeps the twist model minimal at 2 and 3, so every
        # odd prime is classifiable
        rng = random.Random(2)
        pool = [d for d in range(5, 250, 4) if squarefree_part(d) == d]
        twists = [quadratic_twist(e15, rng.choice(pool)) for _ in range(10)]
        twists += [quadratic_twist(e21, rng.choice(pool)) for _ in range(10)]
        for model in [e15, e21] + twists:
            for p in primes_up_to(200):
                if p < 3:
                    continue
                data = classify(model, p)
                if data.kind is ReductionKind.GOOD:
                    assert data.a_p * data.a_p <= 4 * p

    def test_reduction_data_validation(self):
        with pytest.raises(InvariantError):
            ReductionData(5, ReductionKind.MULT_SPLIT, 7, -1)
        with pytest.raises(InvariantError):
            ReductionData(5, ReductionKind.GOOD, 11, -5)


class TestConductor:
    def test_table_curves(self, e15, e21):
        assert conductor(e15) == 15
        assert conductor(e21) == 21

    def test_twist_conductor_d17(self, e15):
        assert conductor(quadratic_twist(e15, 17)) == 17**2 * 15 == 4335

    @pytest.mark.parametrize("base,N", [("e15", 15), ("e21", 21)])
    def test_twist_conductor_formula_admissible_d(self, base, N, e15, e21):
        model = {"e15": e15, "e21": e21}[base]
        import math

        for d in range(1, 201):
            if d % 4 != 1 or math.gcd(d, N) != 1 or squarefree_part(d) != d:
                continue
            assert conductor(quadratic_twist(model, d)) == d * d * N, d

    def test_additive_at_3_unsupported(self, e15):
        with pytest.raises(UnsupportedReductionError):
            conductor(quadratic_twist(e15, 21))

    def test_additive_at_2_unsupported(self):
        # y^2 = x^3 - x has additive reduction at 2
        with pytest.raises(UnsupportedReductionError):
            conductor(WeierstrassModel(0, 0, 0, -1, 0))

    def test_multiplicative_at_2_supported(self):
        # y^2 + xy = x^3 + 2: Delta = -1730 = -2 * 5 * 173, c4 = 1
        model = WeierstrassModel(1, 0, 0, 0, 2)
        assert conductor(model) == 1730


class TestLocalData:
    def test_matches_classify_and_the_naive_count_at_2(self, e15, e21):
        twists = [quadratic_twist(e15, d) for d in (13, 17, 29)]
        twists += [quadratic_twist(e21, d) for d in (5, 17)]
        # [1,0,0,0,2]: multiplicative at 2 and at 173
        for model in [e15, e21, *twists, WeierstrassModel(1, 0, 0, 0, 2)]:
            data = LocalData(model)
            assert data.delta_primes == factor(abs(data.inv.delta)).primes()
            for p in primes_up_to(200):
                assert data.at(p) == classify(model, p), (model, p)
                if p == 2:
                    at2 = data.at(2)
                    assert at2.points == count_points_naive(model, 2), model
                    assert at2.kind.is_multiplicative == (data.inv.delta % 2 == 0)


# a1, a3 in {0, 1}, a2 in {-1, 0, 1} and |a4|, |a6| <= 12
GRID = [
    WeierstrassModel(a1, a2, a3, a4, a6)
    for a1 in (0, 1)
    for a2 in (-1, 0, 1)
    for a3 in (0, 1)
    for a4 in range(-12, 13)
    for a6 in range(-12, 13)
]

KIND_OF_DEFECT = {1: ReductionKind.MULT_SPLIT, -1: ReductionKind.MULT_NONSPLIT}


class TestOddBadPrimes:
    """At an odd bad prime a record derives a_p from c4 and c6 and counts no
    points; the count on the p-minimal model is the oracle."""

    def test_derived_reduction_matches_the_count_on_a_grid(self):
        seen = collections.Counter()
        for model in GRID:
            data = LocalData(model)
            try:
                delta = data.inv.delta
            except SingularCurveError:
                continue
            for p in primes_up_to(23)[1:]:
                if delta % p:
                    continue
                try:
                    got = data.at(p)
                except NonMinimalModelError:
                    assert p == 3, model
                    continue
                minimal = model if p == 3 else minimalize_at(model, p)
                defect = p + 1 - count_points(minimal, p)
                assert got.a_p == defect, (model, p)
                if defect:
                    assert got.kind is KIND_OF_DEFECT[defect], (model, p)
                else:
                    assert got.kind.is_additive, (model, p)
                seen[p == 3, "additive" if got.kind.is_additive else got.kind] += 1
        kinds = (ReductionKind.MULT_SPLIT, ReductionKind.MULT_NONSPLIT, "additive")
        assert [(at3, kind) for at3 in (True, False) for kind in kinds if not seen[at3, kind]] == []

    def test_no_point_is_counted_at_an_odd_bad_prime(self, monkeypatch, e15, e21):
        import twistgate.reduction as reduction

        counted = []
        real = reduction.count_points
        monkeypatch.setattr(
            reduction, "count_points", lambda E, p: counted.append(p) or real(E, p)
        )
        for model in (e15, e21, quadratic_twist(e15, 17), quadratic_twist(e21, -11)):
            data = LocalData(model)
            for p in data.delta_primes:
                data.at(p)
        assert counted == []


class TestPrimeBeyondTheCountBound:
    """y^2 + y = x^3 - 40x - 300 has the prime discriminant -34 719 227,
    beyond the point-count bound: its reduction there is derived, not
    counted."""

    E = WeierstrassModel(0, 0, 1, -40, -300)
    P = 34719227

    def test_the_node_has_rational_tangents(self):
        # (2y + 1)^2 = f(x) = 4x^3 - 160x - 1199 has the double root
        # x0 = -3597/320 mod p, where its tangents are Y^2 = 12 x0 (x - x0)^2
        p = self.P
        x0 = -3597 * pow(320, -1, p) % p
        assert (4 * x0**3 - 160 * x0 - 1199) % p == 0
        assert (12 * x0 * x0 - 160) % p == 0
        assert jacobi(12 * x0, p) == 1
        assert LocalData(self.E).at(p) == ReductionData(p, ReductionKind.MULT_SPLIT, p, 1)
        with pytest.raises(PrimeTooLargeError):
            count_points(self.E, p)

    def test_conductor_and_root_number(self):
        assert LocalData(self.E).delta_primes == (self.P,)
        assert conductor(self.E) == self.P
        assert global_root_number(self.E).value == 1

    def test_a_bad_prime_above_the_bsgs_bound_answers(self):
        # a6 = 10^9 + 14 makes Delta = -P with P prime above BSGS_BOUND
        E = WeierstrassModel(0, 0, 1, -40, 1000000014)
        P = 432000012311995991723
        assert P > BSGS_BOUND
        assert LocalData(E).delta_primes == (P,)
        assert classify(E, P) == ReductionData(P, ReductionKind.MULT_SPLIT, P, 1)
        assert conductor(E) == P
        assert global_root_number(E).value == 1

    def test_cli_document(self, capsys):
        result = run(["root-number", "--curve", "0,0,1,-40,-300", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert (result.exit_code, document["status"]) == (0, "ok")
        assert document["payload"]["value"] == 1
        assert document["payload"]["local_factors"][-1] == {
            "place": str(self.P),
            "sign": -1,
            "case": "split-mult",
        }


class TestErrorPrecedence:
    """y^2 = x^3 + x + 195 is additive at 2, with Delta = -2^4 * 1026679: the
    prime 2, which comes first, must decide every error.  Scaled by u = 3
    the model is also visibly non-minimal at 3, a later prime that alone
    would fail differently."""

    E = WeierstrassModel(0, 0, 0, 1, 195)
    E3 = scale_model(E, 3)

    def test_the_large_prime_alone_would_fail_differently(self):
        assert self.E3 == WeierstrassModel(0, 0, 0, 81, 142155)
        assert factor(abs(LocalData(self.E3).inv.delta)).primes() == (2, 3, 1026679)
        with pytest.raises(NonMinimalModelError):
            classify(self.E3, 3)
        with pytest.raises(UnsupportedReductionAtTwoError):
            conductor(self.E3)

    def test_conductor(self):
        with pytest.raises(UnsupportedReductionError):
            conductor(self.E)

    def test_global_root_number(self):
        with pytest.raises(UnsupportedPlaceError):
            global_root_number(self.E)

    def test_l_value(self):
        with pytest.raises(UnsupportedReductionError):
            l_value_at_1(self.E)

    def test_twist_formula(self):
        with pytest.raises(HypothesisViolationError, match="semistable"):
            twist_root_number_formula(self.E, 17)

    def test_serre_check_passes(self):
        report = serre_check(self.E, 3)
        assert report.overall
        assert report.aux_check.q == 3
