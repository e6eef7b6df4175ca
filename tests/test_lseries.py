import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from twistgate.curve import WeierstrassModel, invariants, quadratic_twist
from twistgate.errors import SingularCurveError, TermBudgetError
from twistgate.lseries import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NONZERO,
    dirichlet_coefficients,
    l_value_at_1,
)
from twistgate.numtheory import jacobi, primes_up_to
from twistgate.reduction import LocalData, ReductionKind, classify
from twistgate.rootnum import global_root_number


class TestDirichletCoefficients:
    def test_first_coefficient(self, e15):
        # M = 1 takes the general fill, on a table curve, a record made by
        # twist() and a fresh curve alike
        assert dirichlet_coefficients(e15, 1) == [0, 1]
        assert dirichlet_coefficients(LocalData(e15).twist(17), 1) == [0, 1]
        assert dirichlet_coefficients(WeierstrassModel(0, -1, 1, -29, -30), 1) == [0, 1]

    def test_15a1_small_coefficients(self, e15):
        a = dirichlet_coefficients(e15, 10)
        # a_3, a_5 from the bad-fiber point counts; a_7 = 7 + 1 - 8 = 0
        assert a[3] == -1
        assert a[5] == 1
        assert a[7] == 0

    def test_bad_prime_power_rule(self, e15):
        a = dirichlet_coefficients(e15, 81)
        assert a[9] == a[3] ** 2 == 1
        assert a[27] == a[3] ** 3 == -1
        assert a[25] == a[5] ** 2 == 1

    def test_good_prime_power_recursion(self, e15):
        a = dirichlet_coefficients(e15, 49)
        assert a[49] == a[7] * a[7] - 7 * a[1] == -7

    def test_multiplicativity(self, e15):
        a = dirichlet_coefficients(e15, 300)
        for m in range(1, 300):
            for n in range(1, 300 // m + 1):
                if math.gcd(m, n) == 1:
                    assert a[m * n] == a[m] * a[n]

    def test_hasse_bound_on_good_primes(self, e21):
        a = dirichlet_coefficients(e21, 200)
        for p in primes_up_to(200):
            if classify(e21, p).kind is ReductionKind.GOOD if p > 2 else True:
                assert a[p] * a[p] <= 4 * p

    def test_twist_coefficients_satisfy_character_identity(self, e15):
        # independent oracle: a_p of the twist equals (d/p) a_p at good odd p
        d = 17
        a = dirichlet_coefficients(e15, 200)
        at = dirichlet_coefficients(quadratic_twist(e15, d), 200)
        for p in primes_up_to(200):
            if p == 2 or 15 * d % p == 0:
                continue
            assert at[p] == jacobi(d, p) * a[p], p

    def test_budget(self, e15):
        with pytest.raises(TermBudgetError):
            dirichlet_coefficients(e15, 10**6 + 1)

    def test_bad_m(self, e15):
        with pytest.raises(ValueError):
            dirichlet_coefficients(e15, 0)


class TestLValue:
    def test_table_curves_are_nonzero(self, e15, e21):
        for model in (e15, e21):
            est = l_value_at_1(model)
            assert est.verdict == VERDICT_NONZERO
            assert est.value > 0
            assert est.root_number == 1

    def test_value_against_plain_float_series(self, e15):
        # independent low-precision oracle: direct float summation
        est = l_value_at_1(e15)
        a = dirichlet_coefficients(e15, est.terms_used)
        q = math.exp(-2 * math.pi / math.sqrt(15))
        qn, s = 1.0, 0.0
        for n in range(1, est.terms_used + 1):
            qn *= q
            s += a[n] / n * qn
        assert abs(float(est.value) - 2 * s) < 1e-12

    def test_doubling_terms_stays_within_tail(self, e15):
        small = l_value_at_1(e15, terms=1000)
        big = l_value_at_1(e15, terms=2000)
        assert abs(small.value - big.value) <= small.tail_bound

    def test_evaluation_point_independence(self, e15):
        # the symmetric-point identity must give the same value at any t
        est1 = l_value_at_1(e15, t=1.0)
        est2 = l_value_at_1(e15, t=1.2)
        assert abs(est1.value - est2.value) <= est1.tail_bound + est2.tail_bound

    def test_forced_zero_for_negative_root_number(self, e15):
        # jacobi(13, 15) = -1, so the twist has root number -1 and L(E,1) = 0;
        # at t != 1 this is a genuine cancellation of two different sums
        twist = quadratic_twist(e15, 13)
        est = l_value_at_1(twist, t=1.2)
        assert est.root_number == -1
        assert abs(est.value) <= 3 * est.tail_bound
        assert est.verdict == VERDICT_INCONCLUSIVE

    def test_twist_value_matches_float_oracle(self, e15):
        twist = quadratic_twist(e15, 17)
        est = l_value_at_1(twist)
        assert est.conductor == 4335
        assert est.verdict == VERDICT_NONZERO
        assert abs(float(est.value) - 1.3587845372) < 1e-9

    def test_margin_is_configurable(self, e15):
        est = l_value_at_1(e15, margin_factor=10**50)
        assert est.verdict == VERDICT_INCONCLUSIVE

    def test_budget(self, e15):
        with pytest.raises(TermBudgetError):
            l_value_at_1(e15, terms=2 * 10**6)

    @pytest.mark.parametrize("terms", [1000.9, "1000"])
    def test_terms_must_be_an_int(self, e15, terms):
        with pytest.raises(ValueError, match="terms must be an int"):
            l_value_at_1(e15, terms=terms)

    def test_tail_bound_dominates_true_tail(self, e15):
        # the geometric majorant must cover the actual dropped terms
        est = l_value_at_1(e15, terms=500)
        a = dirichlet_coefficients(e15, 4000)
        with mp.workdps(50):
            q = mp.exp(-2 * mp.pi / mp.sqrt(15))
            dropped = mp.mpf(0)
            qn = q**500
            for n in range(501, 4001):
                qn *= q
                dropped += mp.mpf(a[n]) / n * qn
            assert abs(2 * dropped) < mp.mpf(str(est.tail_bound))


# The benchmark's lvalue-fresh universe: a1, a3 in {0, 1}, a2 in {-1, 0, 1},
# |a4|, |a6| <= 30, with Delta odd, prime to 3 and below 10^6 in size.
FRESH_AINVS = st.tuples(
    st.sampled_from([0, 1]),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([0, 1]),
    st.integers(-30, 30),
    st.integers(-30, 30),
)


@pytest.mark.parametrize("w", [1, -1])
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(ainvs=FRESH_AINVS)
def test_functional_equation_on_fresh_curves(w, ainvs):
    # L(E, 1) at t = 1 and at t = 1.2 are sums over the same a_n with
    # different weights; they agree within their tails only if every a_p,
    # each lane of the table fill among them, is right.
    E = WeierstrassModel(*ainvs)
    try:
        delta = invariants(E).delta
    except SingularCurveError:
        assume(False)
    assume(delta % 2 and delta % 3 and abs(delta) < 10**6)
    data = LocalData(E)
    assume(global_root_number(data).value == w)
    at_1 = l_value_at_1(data, t=1)
    at_12 = l_value_at_1(data, t=1.2)
    assert at_12.terms_summed == at_12.terms_used
    assert abs(at_1.value - at_12.value) <= at_1.tail_bound + at_12.tail_bound, ainvs
