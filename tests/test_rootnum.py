import math

import pytest

from twistgate import curve_by_label, rootnum
from twistgate.curve import WeierstrassModel, quadratic_twist
from twistgate.errors import (
    ArgumentError,
    HypothesisViolationError,
    InvariantError,
    UnsupportedPlaceError,
    WorkBoundError,
)
from twistgate.numtheory import SMALL_FACTOR_BOUND, factor, jacobi, primes_up_to, squarefree_part
from twistgate.reduction import conductor
from twistgate.rootnum import (
    CASE_ADD_POT_GOOD,
    CASE_ADD_POT_MULT,
    CASE_ARCHIMEDEAN,
    CASE_NONSPLIT,
    CASE_SPLIT,
    INFINITE_PLACE,
    MAX_TWIST_DMAX,
    RootNumber,
    global_root_number,
    local_root_number,
    twist_parameter_failure,
    twist_parameters,
    twist_root_number_formula,
    twist_sweep,
)


def multiplicative_at(p):
    """A curve with multiplicative reduction at p >= 5: y^2 = x^3 - 3x + (2 - p).

    Delta = -432 p (p - 4), c4 = 144, so v_p(Delta) = 1 and v_p(c4) = 0.
    """
    assert p >= 5
    return WeierstrassModel(0, 0, 0, -3, 2 - p)


class TestLocalRootNumber:
    def test_archimedean_always_minus_one(self, e15, e21):
        assert local_root_number(e15, INFINITE_PLACE) == -1
        assert local_root_number(e21, INFINITE_PLACE) == -1

    def test_case1_split_multiplicative(self, e15):
        assert local_root_number(e15, 5) == -1

    def test_case2_good_and_nonsplit(self, e15):
        assert local_root_number(e15, 7) == 1
        assert local_root_number(e15, 3) == 1

    def test_case4_twist_by_17(self, e15):
        # additive potentially good at 17; 17 = 1 mod 4 gives +1
        assert local_root_number(quadratic_twist(e15, 17), 17) == 1

    def test_case4_parity_of_floor(self, e15):
        # v_p(Delta_min) = 6 at p | d, so the sign is (-1)^floor(p/2)
        for d in (13, 17, 29, 37, 41, 53):
            twist = quadratic_twist(e15, d)
            expected = 1 if d % 4 == 1 else -1
            assert local_root_number(twist, d) == expected

    def test_case4_floor_formula_beyond_twist_valuation(self):
        # y^2 = x^3 + p^2 has j = 0 and v_p(Delta) = 4, exercising the floor
        # with a valuation other than the twist-standard 6
        for p, expected in ((5, -1), (7, 1), (11, -1), (13, 1)):
            model = WeierstrassModel(0, 0, 0, 0, p * p)
            assert (4 * p // 12) % 2 == (0 if expected == 1 else 1)
            assert local_root_number(model, p) == expected

    def test_case3_sign_is_quadratic_character_of_minus_one(self, e15):
        # potentially multiplicative twists: at p in {3, 5} twist the table
        # curve by p; for p >= 7 twist a curve with multiplicative reduction
        for p in primes_up_to(97):
            if p < 3:
                continue
            if p in (3, 5):
                twist = quadratic_twist(e15, p)
            else:
                twist = quadratic_twist(multiplicative_at(p), p)
            expected = 1 if p % 4 == 1 else -1
            assert local_root_number(twist, p) == expected, p

    def test_case4_at_3_unsupported(self, e21):
        # twist by 3: additive at 3 with v_3(j) = -4 < 0, so this IS covered;
        # build a potentially good case instead: j = 0 curve y^2 = x^3 + 9
        model = WeierstrassModel(0, 0, 0, 0, 9)
        with pytest.raises(UnsupportedPlaceError):
            local_root_number(model, 3)

    def test_additive_at_2_unsupported(self):
        model = WeierstrassModel(0, 0, 0, -1, 0)
        with pytest.raises(UnsupportedPlaceError):
            local_root_number(model, 2)

    def test_multiplicative_at_2_supported(self):
        # y^2 + xy = x^3 + 2 has multiplicative reduction at 2
        model = WeierstrassModel(1, 0, 0, 0, 2)
        assert local_root_number(model, 2) in (1, -1)


class TestGlobalRootNumber:
    def test_15a1_value_and_ledger(self, e15):
        rn = global_root_number(e15)
        assert rn.value == 1
        assert rn.local_factors == (
            (INFINITE_PLACE, -1, CASE_ARCHIMEDEAN),
            (3, 1, CASE_NONSPLIT),
            (5, -1, CASE_SPLIT),
        )

    def test_21a1_value_and_ledger(self, e21):
        rn = global_root_number(e21)
        assert rn.value == 1
        assert rn.local_factors == (
            (INFINITE_PLACE, -1, CASE_ARCHIMEDEAN),
            (3, -1, CASE_SPLIT),
            (7, 1, CASE_NONSPLIT),
        )

    def test_twist_by_17(self, e15):
        assert global_root_number(quadratic_twist(e15, 17)).value == 1

    def test_ledger_product_invariant(self, e15):
        for d in (13, 17, 21, 29, 65):
            rn = global_root_number(quadratic_twist(e15, d))
            assert rn.value == math.prod(s for _, s, _ in rn.local_factors)
            places = [p for p, _, _ in rn.local_factors]
            assert len(places) == len(set(places))
            assert places[0] == INFINITE_PLACE

    def test_case_tags_for_twist(self, e15):
        rn = global_root_number(quadratic_twist(e15, 17))
        tags = {p: c for p, _, c in rn.local_factors}
        assert tags[17] == CASE_ADD_POT_GOOD
        assert tags[3] in (CASE_SPLIT, CASE_NONSPLIT)

    def test_twist_by_bad_prime_tags_potentially_multiplicative(self, e15):
        rn = global_root_number(quadratic_twist(e15, 5))
        tags = {p: c for p, _, c in rn.local_factors}
        assert tags[5] == CASE_ADD_POT_MULT

    def test_validation(self):
        with pytest.raises(InvariantError):
            RootNumber(1, ((INFINITE_PLACE, -1, CASE_ARCHIMEDEAN),))
        with pytest.raises(InvariantError):
            RootNumber(1, ((3, 1, CASE_NONSPLIT),))


class TestTwistFormula:
    def test_trivial_twist(self, e15):
        assert twist_root_number_formula(e15, 1) == 1

    def test_known_twist_sign_examples(self, e15, e21):
        assert twist_root_number_formula(e15, 17) == 1
        assert twist_root_number_formula(e15, 13) == -1
        expected = jacobi(65, 21) * global_root_number(e21).value
        assert twist_root_number_formula(e21, 65) == expected == -1

    def test_formula_matches_direct_computation(self, e15, e21):
        for model, N in ((e15, 15), (e21, 21)):
            for d in range(1, 121):
                if d % 4 != 1 or math.gcd(d, N) != 1 or squarefree_part(d) != d:
                    continue
                formula = twist_root_number_formula(model, d)
                direct = global_root_number(quadratic_twist(model, d)).value
                assert formula == direct, (N, d)

    @pytest.mark.parametrize(
        "d,message",
        [
            (7, "not 1 mod 4"),
            (10, "not 1 mod 4"),
            (45, "not squarefree"),
            (65, "shares a factor"),
            (-3, "positive"),
            (True, "positive"),
        ],
    )
    def test_bad_twist_parameters_named(self, e15, d, message):
        with pytest.raises(HypothesisViolationError, match=message):
            twist_root_number_formula(e15, d)

    def test_even_conductor_rejected(self):
        model = WeierstrassModel(1, 0, 0, 0, 2)  # N = 1730
        with pytest.raises(HypothesisViolationError, match="even"):
            twist_root_number_formula(model, 17)

    def test_non_semistable_rejected(self, e15):
        twist = quadratic_twist(e15, 17)  # additive at 17
        with pytest.raises(HypothesisViolationError, match="semistable"):
            twist_root_number_formula(twist, 5)

    def test_the_curve_half_is_decided_once_and_signs_every_d(self, e15, e21):
        # N and w(E) are read from the curve's record; the rule and (d/N) per d
        assert (conductor(e15), global_root_number(e15).value) == (15, 1)
        assert (conductor(e21), global_root_number(e21).value) == (21, 1)
        for d in (1, 13, 17, 29, 41, 53):
            assert twist_root_number_formula(e15, d) == jacobi(d, 15)

    def test_curve_hypotheses_fail_before_any_d(self, e15):
        # E's hypotheses are named before d's, whatever d breaks
        for d in (17, 45, 7, 65, -3, True):
            with pytest.raises(HypothesisViolationError, match="^conductor 1730 is even$"):
                twist_root_number_formula(WeierstrassModel(1, 0, 0, 0, 2), d)
            with pytest.raises(HypothesisViolationError, match="^E is not semistable"):
                twist_root_number_formula(WeierstrassModel(0, 0, 0, -1, 0), d)  # additive at 2
            with pytest.raises(HypothesisViolationError, match="^E is not semistable"):
                twist_root_number_formula(quadratic_twist(e15, 17), d)
        # the sweep decides them before any d, so no "d = " is put in front
        with pytest.raises(HypothesisViolationError, match="^E is not semistable"):
            twist_sweep(quadratic_twist(e15, 17), 60)
        with pytest.raises(HypothesisViolationError, match="^E is not semistable"):
            twist_sweep(WeierstrassModel(0, 0, 0, -1, 0), 60)


# ---------------------------------------------------------------------------
# the twist-parameter rule against the naive checks, in the named order


def naive_failure(d, n, squarefree):
    if d <= 0:
        return "positive"
    if not squarefree:
        return "squarefree"
    if d % 4 != 1:
        return "mod4"
    if math.gcd(d, n) != 1:
        return "coprime"
    return None


@pytest.mark.parametrize("n", [15, 21, 35, 1729])
def test_rule_and_enumeration_match_the_naive_ordered_checks(n):
    top = 5000
    expected = {}
    for d in range(-20, top + 1):
        squarefree = d > 0 and all(d % (k * k) for k in range(2, math.isqrt(d) + 1))
        expected[d] = naive_failure(d, n, squarefree)
        assert twist_parameter_failure(d, n) == expected[d], d
    assert twist_parameter_failure(17.0, n) == "positive"
    # a bool is an int, and True equals 1, which passes the rule
    assert twist_parameter_failure(True, n) == twist_parameter_failure(False, n) == "positive"
    for bound in (-1, 0, 1, 4, 5, 99, top):
        assert twist_parameters(bound, n) == [
            d for d in range(1, bound + 1) if expected[d] is None
        ], bound


@pytest.mark.parametrize("n", [15, 21, 1155])
def test_table_fed_enumeration_matches_factor(n):
    # the enumeration reads the factorizations factor keeps to
    # SMALL_FACTOR_BOUND = 10^4; each kept one is checked against a fresh
    # trial division, and the list to 10^4, d by d, against the ordered
    # checks read off it; then every bound to 1000 and a stride of bounds
    # beyond, each the prefix of that list
    top = SMALL_FACTOR_BOUND
    primes = primes_up_to(top)
    naive = []
    for d in range(1, top + 1):
        f = factor(d)
        assert f.value == d and math.prod(p**e for p, e in f.factors) == d, d
        assert [p for p, _ in f.factors] == [p for p in primes if d % p == 0], d
        squarefree = all(e == 1 for _, e in f.factors)
        if naive_failure(d, n, squarefree) is None:
            naive.append(d)
    assert twist_parameters(top, n) == naive
    for bound in [-1, *range(1001), *range(1001, top, 37), top]:
        assert twist_parameters(bound, n) == [d for d in naive if d <= bound], bound
    with pytest.raises(ArgumentError):
        twist_parameters(top + 1, n)


# ---------------------------------------------------------------------------
# the sweep of the twist formula against the direct local product


class TestTwistSweep:
    def test_the_60_sweep_checks_seven_d(self, e15):
        N, signs = twist_sweep(e15, 60)
        assert N == 15
        # of the d = 1 mod 4 up to 60, those prime to 15 and squarefree
        assert [d for d, _, _ in signs] == [1, 13, 17, 29, 37, 41, 53]
        # w(15a1) = +1, so each formula sign is (d/15)
        assert all(formula == jacobi(d, 15) == direct for d, formula, direct in signs)

    def test_the_twist_that_stops_a_sweep_is_named(self):
        # 37a1: X^21 has additive, potentially good reduction at 3
        e37 = WeierstrassModel(0, 0, 1, -1, 0)
        with pytest.raises(UnsupportedPlaceError, match=r"^d = 21: "):
            twist_sweep(e37, 21)
        N, signs = twist_sweep(e37, 20)
        assert (N, len(signs)) == (37, 4)

    def test_even_conductor_is_a_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError, match="even"):
            twist_sweep(WeierstrassModel(1, 0, 0, 0, 2), 50)

    @pytest.mark.parametrize("dmax", [0, -5])
    def test_an_empty_sweep_is_refused(self, e15, dmax):
        with pytest.raises(ArgumentError, match=f"^--dmax must be at least 1, got {dmax}$"):
            twist_sweep(e15, dmax)

    def test_a_sweep_above_the_work_bound_is_refused(self, e15):
        message = f"^--dmax must be at most {MAX_TWIST_DMAX}, got {MAX_TWIST_DMAX + 1}$"
        with pytest.raises(WorkBoundError, match=message):
            twist_sweep(e15, MAX_TWIST_DMAX + 1)

    def test_a_wrong_formula_record_is_caught_by_the_direct_path(self, e15, monkeypatch):
        # the direct root number reads the twist's own model, not the
        # formula; a sweep made before the fault remembers nothing that hides it
        twist_sweep(e15, 60)
        real = rootnum.twist_root_number_formula
        monkeypatch.setattr(
            rootnum,
            "twist_root_number_formula",
            lambda E, d: -real(E, d),
        )
        _, signs = twist_sweep(e15, 60)
        assert len(signs) == 7
        assert all(formula == -direct for _, formula, direct in signs)

    @pytest.mark.parametrize("label", ["15a1", "21a1"])
    def test_sweep_matches_a_naive_scan_and_the_bare_twists(self, label):
        model = curve_by_label(label)
        N = conductor(model)
        _, signs = twist_sweep(model, 200)
        naive = [d for d in range(1, 201) if twist_parameter_failure(d, N) is None]
        assert [d for d, _, _ in signs] == naive
        for d, formula, direct in signs:
            assert formula == direct == global_root_number(quadratic_twist(model, d)).value, d
