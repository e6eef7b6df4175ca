"""The fixed-point L(E,1) kernel against the mpf summation it replaced.

The oracle is the mpf loop itself, kept here at dps + 20 digits: each sum
the kernel computes must agree with it within the kernel's stated
roundoff, 2 M^2 + 3 M units of 2^-B, and that bound must fit inside the
M 10^-dps per sum that the tail allowance reserves, for every M the
coefficient budget admits.  The kernel's decimal inputs, q and
Q = floor(q 2^B), and the constant PI are checked against mpmath.  The
numpy coefficient fill is checked against the list fill it replaced, and
the w = -1 short-circuit against the estimate the summing path would have
returned.
"""

import math
from decimal import ROUND_FLOOR, localcontext
from functools import cache

import pytest
from mpmath import mp, nstr

from twistgate import lseries
from twistgate.cli import _significant
from twistgate.curve import WeierstrassModel, curve_by_label, quadratic_twist
from twistgate.errors import InvariantError, MarginError
from twistgate.lseries import (
    COEFFICIENT_BUDGET,
    DEFAULT_DPS,
    VERDICT_INCONCLUSIVE,
    VERDICT_NONZERO,
    default_terms,
    dirichlet_coefficients,
    fraction_bits,
    l_value_at_1,
)
from twistgate.numtheory import primes_up_to
from twistgate.reduction import conductor, local_data
from twistgate.rootnum import global_root_number

ORACLE_DIGITS = DEFAULT_DPS + 20


def kernel_curves():
    """name -> (model, terms): both table curves and a curve of no table j
    at their default lengths, and the 15a1 twist of the longest sum the
    hypothesis sweep runs."""
    e15, e21 = curve_by_label("15a1"), curve_by_label("21a1")
    return {
        "15a1": (e15, None),
        "21a1": (e21, None),
        "15a1^1037": (quadratic_twist(e15, 1037), 40163),
        "0,-1,1,-29,-30": (WeierstrassModel(0, -1, 1, -29, -30), None),
    }


@cache
def curve_terms(name):
    E, terms = kernel_curves()[name]
    N = conductor(E)
    M = default_terms(N) if terms is None else terms
    return E, N, M, tuple(dirichlet_coefficients(E, M))


def q_values(N, t):
    """q1 = exp(-2 pi t / sqrt(N)) and q2 = exp(-2 pi / (t sqrt(N)))."""
    root, tt = mp.sqrt(N), mp.mpf(t)
    return mp.exp(-2 * mp.pi * tt / root), mp.exp(-2 * mp.pi / (tt * root))


def oracle_scaled(q, B):
    """floor(q 2^B) for a positive mpf q."""
    return int(mp.floor(mp.ldexp(q, B)))


def mpf_sum(coeffs, q):
    """sum_n a_n q^n / n by the mpf loop, at the working precision."""
    s, qn = mp.mpf(0), mp.mpf(1)
    for n in range(1, len(coeffs)):
        qn *= q
        if coeffs[n]:
            s += mp.mpf(coeffs[n]) / n * qn
    return s


@cache
def oracle_sums(name, t):
    _, N, _, coeffs = curve_terms(name)
    with mp.workdps(ORACLE_DIGITS):
        q1, q2 = q_values(N, t)
        s1 = mpf_sum(coeffs, q1)
        return s1, s1 if t == 1 else mpf_sum(coeffs, q2)


def summing_estimate(E, t):
    """l_value_at_1 as it was before the kernel: mpf loop, no short-circuit."""
    data = local_data(E)
    N = conductor(data)
    w = global_root_number(data).value
    M = default_terms(N)
    coeffs = dirichlet_coefficients(E, M)
    with mp.workdps(DEFAULT_DPS):
        q1, q2 = q_values(N, t)
        s1 = mpf_sum(coeffs, q1)
        s2 = s1 if t == 1 else mpf_sum(coeffs, q2)
        value = s1 + w * s2
        tail = 2 * (q1 ** (M + 1) / (1 - q1) + q2 ** (M + 1) / (1 - q2))
        tail += 32 * M * mp.mpf(10) ** (-DEFAULT_DPS)
        verdict = (
            VERDICT_NONZERO if abs(value) > lseries.DEFAULT_MARGIN * tail else VERDICT_INCONCLUSIVE
        )
        return lseries.LValueEstimate(
            value=+value,
            tail_bound=+tail,
            terms_used=M,
            terms_summed=M,
            conductor=N,
            verdict=verdict,
            root_number=w,
        )


def kernel_bound_holds(M, dps):
    """(2 M^2 + 3 M) 2^-B <= M 10^-dps, in integers."""
    return (2 * M * M + 3 * M) * 10**dps <= M << fraction_bits(M, dps)


class TestKernelAgainstMpfOracle:
    @pytest.mark.parametrize("t", [1, 1.2])
    @pytest.mark.parametrize("name", list(kernel_curves()))
    def test_each_sum_within_its_roundoff(self, name, t):
        _, N, M, coeffs = curve_terms(name)
        B = fraction_bits(M, DEFAULT_DPS)
        with mp.workprec(B + 64):
            qs = q_values(N, t)
            scaled = [oracle_scaled(q, B) for q in qs]
        for Q, want in zip(scaled, oracle_sums(name, t)):
            got = lseries._scaled_sum(list(coeffs), Q, B)
            with mp.workdps(ORACLE_DIGITS):
                assert abs(got - mp.ldexp(want, B)) < 2 * M * M + 3 * M, (name, t)

    @pytest.mark.parametrize("t", [1, 1.2])
    @pytest.mark.parametrize("name", list(kernel_curves()))
    def test_value_within_the_allowance(self, name, t):
        E, _, M, _ = curve_terms(name)
        est = l_value_at_1(E, terms=M, t=t)
        s1, s2 = oracle_sums(name, t)
        with mp.workdps(ORACLE_DIGITS):
            want = s1 + est.root_number * s2
            # M 10^-dps per kernel sum, and rounding the sum to dps digits
            bound = (2 * M + abs(want)) * mp.mpf(10) ** -DEFAULT_DPS
            assert abs(mp.mpf(str(est.value)) - want) <= bound, (name, t)
            assert bound < 32 * M * mp.mpf(10) ** -DEFAULT_DPS


class TestRoundoffBound:
    @pytest.mark.parametrize("dps", [15, 30, 50, 100])
    def test_every_length_in_the_budget(self, dps):
        # exhaustive, so it covers the endpoints, the powers of 2 (where B
        # steps) and 10^6 along with every other length the budget admits
        assert COEFFICIENT_BUDGET == 10**6
        failing = [M for M in range(1, COEFFICIENT_BUDGET + 1) if not kernel_bound_holds(M, dps)]
        assert failing == []


def tails_agree(got, want):
    """A Decimal tail and the mpf oracle's print equal at the CLI's 10 and 8
    digits and agree within 10^-46 relative: a 50-digit q is off by up to
    5 * 10^-50 relative, and q^(M+1) by M + 1 times that, M = 1 000 here."""
    printed = all(_significant(got, n) == nstr(want, n) for n in (10, 8))
    with mp.workdps(ORACLE_DIGITS):
        return printed and abs(mp.mpf(str(got)) - want) <= want * mp.mpf(10) ** -46


class TestShortCircuit:
    def test_forced_zero_skips_the_sums(self, e15, monkeypatch):
        twist = quadratic_twist(e15, 13)
        want = summing_estimate(twist, 1)
        assert want.root_number == -1 and want.value == 0

        def no_coefficients(E, M):
            raise AssertionError("short-circuit computed coefficients")

        monkeypatch.setattr(lseries, "dirichlet_coefficients", no_coefficients)
        got = l_value_at_1(twist)
        assert got.terms_summed == 0 and got.value == 0
        assert (got.terms_used, got.conductor, got.verdict, got.root_number) == (
            want.terms_used, want.conductor, want.verdict, want.root_number
        )
        assert tails_agree(got.tail_bound, want.tail_bound)

    def test_other_evaluation_point_still_sums(self, e15):
        twist = quadratic_twist(e15, 13)
        want = summing_estimate(twist, 1.2)
        got = l_value_at_1(twist, t=1.2)
        assert got.terms_summed == got.terms_used == want.terms_used
        assert tails_agree(got.tail_bound, want.tail_bound)
        assert (got.verdict, got.conductor, got.root_number) == (
            want.verdict, want.conductor, want.root_number
        )
        with mp.workdps(DEFAULT_DPS):
            assert abs(mp.mpf(str(got.value)) - want.value) <= (
                32 * got.terms_used * mp.mpf(10) ** -DEFAULT_DPS
            )


class TestDecimalInputs:
    """q1, q2 and Q as l_value_at_1 computes them, in decimal, against mpmath."""

    @pytest.mark.parametrize("t", [1, 1.2, 0.01, 100])
    @pytest.mark.parametrize("name", list(kernel_curves()))
    def test_q_within_its_roundoff(self, name, t):
        # (4.01 x + 1.01) u relative, x = -log q, u = 5 * 10^-dps
        _, N, _, _ = curve_terms(name)
        with localcontext() as ctx:
            ctx.prec = DEFAULT_DPS
            got = lseries._q_values(N, t)
        with mp.workdps(ORACLE_DIGITS):
            u = 5 * mp.mpf(10) ** -DEFAULT_DPS
            for q, want in zip(got, q_values(N, t)):
                bound = (4.01 * -mp.log(want) + 1.01) * u * want
                assert abs(mp.mpf(str(q)) - want) <= bound, (name, t)

    @pytest.mark.parametrize("t", [1, 1.2, 0.01, 100])
    @pytest.mark.parametrize("name", list(kernel_curves()))
    def test_scaled_q_within_one_of_the_floor(self, name, t):
        _, N, M, _ = curve_terms(name)
        B = fraction_bits(M, DEFAULT_DPS)
        with localcontext() as ctx:
            ctx.prec = len(str(1 << (B + 64))) + 1
            got = [int((q * 2**B).to_integral_value(ROUND_FLOOR)) for q in lseries._q_values(N, t)]
        with mp.workprec(B + 64):
            want = [oracle_scaled(q, B) for q in q_values(N, t)]
        assert all(abs(g - w) <= 1 for g, w in zip(got, want)), (name, t, got, want)

    def test_the_budget_needs_at_most_77_digits(self):
        B = fraction_bits(COEFFICIENT_BUDGET, DEFAULT_DPS)
        assert len(str(1 << (B + 64))) + 1 <= 77

    def test_pi_within_ten_to_the_minus_100(self):
        with mp.workdps(120):
            assert abs(mp.mpf(str(lseries.PI)) - mp.pi) < mp.mpf(10) ** -100

    def test_no_q_beyond_the_digits_of_pi(self):
        with localcontext() as ctx:
            ctx.prec = 101
            with pytest.raises(InvariantError):
                lseries._q_values(15, 1)


def list_coefficients(E, M):
    """The multiplicative fill in Python lists that the numpy fill replaced."""
    coeffs = [0] * (M + 1)
    coeffs[1] = 1
    if M == 1:
        return coeffs
    primes = primes_up_to(M)
    a_p, bad = local_data(E).traces(M)
    prime_power_values = {}
    for p in primes:
        pows = [1, int(a_p[p])]
        pk = p * p
        while pk <= M:
            pows.append(pows[1] * pows[-1] - (0 if p in bad else p * pows[-2]))
            pk *= p
        prime_power_values[p] = pows
    spf = list(range(M + 1))
    for p in primes:
        for multiple in range(p * p, M + 1, p):
            if spf[multiple] == multiple:
                spf[multiple] = p
    for n in range(2, M + 1):
        p, m, e = spf[n], n, 0
        while m % p == 0:
            m //= p
            e += 1
        coeffs[n] = coeffs[m] * prime_power_values[p][e]
    return coeffs


# M = 3 has no prime up to sqrt(M); 4, 9 and 961 = 31^2 end on the square
# of their largest such prime, and 1024 on 2^10; 4457 is the median length
# of a w = +1 lvalue-fresh series
@pytest.mark.parametrize("M", [1, 2, 3, 4, 9, 81, 961, 1024, 2000, 4457, 40163])
def test_numpy_fill_matches_list_fill(M):
    curves = [curve_terms("15a1^1037")[0]]
    if M <= 2000:
        curves += [curve_by_label("21a1"), WeierstrassModel(0, -1, 1, -29, -30)]
    for E in curves:
        assert dirichlet_coefficients(E, M) == list_coefficients(E, M), (str(E), M)


class TestMargin:
    # not an int or a float: a str or None would end in a bare TypeError,
    # and True would pass as a margin of 1
    @pytest.mark.parametrize("margin", [-1, 0, 0.5, math.nan, math.inf, "2", None, True])
    def test_below_one_or_not_finite_is_rejected(self, e15, margin):
        with pytest.raises(MarginError):
            l_value_at_1(quadratic_twist(e15, 13), margin_factor=margin)

    def test_one_is_the_least_margin(self, e15):
        assert l_value_at_1(e15, margin_factor=1).verdict == VERDICT_NONZERO
        assert l_value_at_1(quadratic_twist(e15, 13), margin_factor=1).verdict == (
            VERDICT_INCONCLUSIVE
        )
