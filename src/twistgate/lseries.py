"""Dirichlet coefficients from local reduction data and an exponentially
convergent evaluation of L(E,1) with a rigorous tail majorant.

Every a_p, a_2 included, and the conductor and root number come from the
model's LocalData record (reduction.py).  For a quadratic twist X^d of a
curve X of the curve table, the a_p at odd primes not dividing
Delta(E) Delta(X) are (d/p) a_p(X), read from X's per-process a_p table;
the other primes are decided on the model itself.

The value is computed from the symmetric-point identity

    L(E,1) = sum_n (a_n/n) exp(-2 pi n t / sqrt(N))
           + w * sum_n (a_n/n) exp(-2 pi n / (t sqrt(N)))

valid for every t > 0, with w the global root number.  At the default
t = 1 and w = +1 this is the classical 2 * sum (a_n/n) exp(-2 pi n/sqrt(N)).
Evaluating at t != 1 makes the forced zero for w = -1 a nontrivial
cancellation between two different sums, which is what the
functional-equation cross-check uses.

The truncation tail is bounded by |a_n| <= d(n) sqrt(n) <= 2n (divisor
bound), giving the geometric majorant 2 (q^(M+1)/(1-q)) per sum; a small
explicit roundoff allowance is added so the bound stays honest at any
working precision.

A nonzero verdict is *evidence* for rank 0 (via the standard analytic-rank
implication for curves over Q), never a proof; reports carry that label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .curve import WeierstrassModel
from .errors import TermBudgetError
from .numtheory import primes_up_to
from .reduction import local_data
from .rootnum import root_number_of

COEFFICIENT_BUDGET = 10**6
DEFAULT_DPS = 50
DEFAULT_MARGIN = 10.0

VERDICT_NONZERO = "NonzeroEvidence"
VERDICT_INCONCLUSIVE = "Inconclusive"

EVIDENCE_NOTE = (
    "NonzeroEvidence means |L(E,1)| exceeds the margin times a rigorous tail "
    "bound; rank 0 then follows only through the standard analytic-rank-zero "
    "implication. This is evidence, not a proof object."
)


@dataclass(frozen=True)
class LValueEstimate:
    value: object  # mpmath mpf
    tail_bound: object  # mpmath mpf
    terms_used: int
    conductor: int
    verdict: str
    root_number: int
    eval_point: float

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")


def dirichlet_coefficients(E: WeierstrassModel, M: int) -> list[int]:
    """Coefficients a_1..a_M of L(E,s); returned as a list with a_n at index n.

    a_p = p + 1 - #X(F_p) at good p, +1 / -1 / 0 at split / nonsplit /
    additive p (LocalData.traces, which derives the a_p of a twist of a
    table curve at its good odd primes); prime powers by
    a_{p^k} = a_p a_{p^(k-1)} - p a_{p^(k-2)} (good) or a_p^k (bad);
    extended multiplicatively.
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError("M must be a positive integer")
    if M > COEFFICIENT_BUDGET:
        raise TermBudgetError(f"M = {M} exceeds the coefficient budget {COEFFICIENT_BUDGET}")
    coeffs = [0] * (M + 1)
    coeffs[1] = 1
    if M == 1:
        return coeffs
    primes = primes_up_to(M)
    traces, good = local_data(E).traces(primes)
    prime_power_values: dict[int, list[int]] = {}
    for p, a_p, is_good in zip(primes, traces, good):
        pows = [1, a_p]
        pk = p * p
        while pk <= M:
            if is_good:
                pows.append(a_p * pows[-1] - p * pows[-2])
            else:
                pows.append(a_p * pows[-1])
            pk *= p
        prime_power_values[p] = pows
    spf = list(range(M + 1))  # smallest prime factor
    for p in primes:
        for multiple in range(p * p, M + 1, p):
            if spf[multiple] == multiple:
                spf[multiple] = p
    for n in range(2, M + 1):
        p = spf[n]
        m = n
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        coeffs[n] = coeffs[m] * prime_power_values[p][e]
    return coeffs


def default_terms(N: int) -> int:
    return max(1000, math.isqrt(100 * N) + 1)


def l_value_at_1(
    E: WeierstrassModel,
    terms: int | None = None,
    t: float = 1.0,
    margin_factor: float = DEFAULT_MARGIN,
    dps: int = DEFAULT_DPS,
    root_number: int | None = None,
) -> LValueEstimate:
    """Evaluate L(E,1) by the truncated symmetric-point series.

    terms defaults to max(1000, 10 sqrt(N)).  The verdict is
    NonzeroEvidence iff |value| > margin_factor * tail_bound.
    """
    if t <= 0:
        raise ValueError("evaluation point t must be positive")
    data = local_data(E)
    N = data.conductor()
    if root_number is None:
        root_number = root_number_of(data).value
    M = default_terms(N) if terms is None else int(terms)
    if M > COEFFICIENT_BUDGET:
        raise TermBudgetError(f"terms = {M} exceeds the coefficient budget {COEFFICIENT_BUDGET}")
    if M < 1:
        raise ValueError("terms must be positive")
    coeffs = dirichlet_coefficients(E, M)
    with mp.workdps(dps):
        sqrt_n = mp.sqrt(N)
        tt = mp.mpf(t)
        q1 = mp.exp(-2 * mp.pi * tt / sqrt_n)
        q2 = mp.exp(-2 * mp.pi / (tt * sqrt_n))
        symmetric = tt == 1
        s1 = mp.mpf(0)
        s2 = mp.mpf(0)
        q1n = mp.mpf(1)
        q2n = mp.mpf(1)
        for n in range(1, M + 1):
            q1n *= q1
            if coeffs[n]:
                s1 += mp.mpf(coeffs[n]) / n * q1n
            if not symmetric:
                q2n *= q2
                if coeffs[n]:
                    s2 += mp.mpf(coeffs[n]) / n * q2n
        if symmetric:
            s2 = s1
        value = s1 + root_number * s2
        # |a_n|/n <= d(n)/sqrt(n) <= 2, so each truncated sum is bounded by
        # the geometric tail; plus a roundoff allowance for the M additions.
        tail = 2 * (q1 ** (M + 1) / (1 - q1) + q2 ** (M + 1) / (1 - q2))
        tail += 32 * M * mp.mpf(10) ** (-dps)
        verdict = (
            VERDICT_NONZERO if abs(value) > margin_factor * tail else VERDICT_INCONCLUSIVE
        )
        return LValueEstimate(
            value=+value,
            tail_bound=+tail,
            terms_used=M,
            conductor=N,
            verdict=verdict,
            root_number=root_number,
            eval_point=float(t),
        )
