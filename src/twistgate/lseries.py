"""Dirichlet coefficients from local reduction data and an exponentially
convergent evaluation of L(E,1) with a rigorous tail majorant.

Every a_p, a_2 included, comes from the model's LocalData record
(reduction.py) as one array, LocalData.traces(M), from which
dirichlet_coefficients builds the a_n one small prime at a time; so do
the conductor and root number.  Both public functions take a model or its
record, and l_value_at_1 hands its record on to dirichlet_coefficients.
For a record made by X.twist(d), the a_p at the odd primes not dividing
Delta(X^d) are (d/p) a_p(X), read from X's a_p table, which lasts for the
process when X is a curve of the curve table; the other primes are
decided on the twist itself.  A bare model counts its own points, whether
or not it is a twist of another curve.

l_value_at_1 remembers, on the record, each evaluation's value, tail
bound and terms summed under its (terms, t), and takes the verdict from
the margin on each call.  A twist X.twist(d) of a curve of the curve table
is kept by X for the process, so its sums are computed once per process;
a bare model gets a new record, and so new sums, on every call.  The memo
keeps no coefficients; LocalData states what a twist record and a sum
take, and it grows only with the distinct (d, terms, t) asked of a table
curve.

The value is computed from the symmetric-point identity

    L(E,1) = sum_n (a_n/n) exp(-2 pi n t / sqrt(N))
           + w * sum_n (a_n/n) exp(-2 pi n / (t sqrt(N)))

valid for every t > 0, with w the global root number.  At the default
t = 1 and w = +1 this is the classical 2 * sum (a_n/n) exp(-2 pi n/sqrt(N)).
At t = 1 and w = -1 the value is exactly s1 - s1 = 0, and it is returned
as such without computing a coefficient (terms_summed = 0).  Evaluating at
t != 1 makes that forced zero a nontrivial cancellation between two
different sums, which is what the functional-equation cross-check uses.

Each sum runs in one fixed-point kernel in Python integers, at
dps = DEFAULT_DPS digits: with Q = floor(q 2^B), taken from q at B + 64
bits, q_n <- (q_{n-1} Q) >> B and s += a_n q_n // n.  Each step loses
under 2 units of 2^-B, so |q^n 2^B - q_n| < 2n, and with |a_n|/n <= 2 a
sum of M terms is off by under 2 M^2 + 3 M units.  B is the bit length of (2 M + 3) 10^dps, which
makes that at most M 10^-dps per sum.

The rest is stdlib decimal, in a local context that leaves the caller's
as it was; value and tail_bound are Decimals.  PI is within 10^-100 of
pi; sqrt, exp and the three products or quotients that make x in
q = exp(-x) are off by half an ulp, under u = 5 * 10^-p relative at
p <= 100 digits.  So q is off by under (4.01 x + 1.01) u.  For Q, p is one
digit more than 2^(B + 64) has (77 at COEFFICIENT_BUDGET); as x q <= 1/e,
Q is within 1 + 2^-64 of q 2^B, adding under M^2 2^-62 units to a sum.

The tail, at dps digits: |a_n| <= d(n) sqrt(n) <= sqrt(3) n bounds each
truncated sum by sqrt(3) g, g = q^(M+1) / (1 - q), and the bound takes
2 g, room for a computed g off by 13%.  It is off by under 1.1% while
y = (M + 1) x <= 10^-2 / (4.01 u): q^(M+1) by 4.01 y u + 1.01 (M + 1) u
and an ulp, 1 - q (refused below 10^(10 - dps)) by 10^-9.  Past that, or
past decimal's Emin of -999 999, g is under 10^-999 000.  The allowance
32 M 10^-dps covers both kernel sums, 2.01 M 10^-dps, and the rounding of
the value to dps digits, 18 M 10^-dps as |value| <= 2 sqrt(3) M.  The
room left covers such a g, the tail's own three roundings and the
verdict's product margin_factor * tail, half an ulp each.

A nonzero verdict is *evidence* for rank 0 (via the standard analytic-rank
implication for curves over Q), never a proof; reports carry that label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal, getcontext, localcontext

import numpy as np

from .curve import WeierstrassModel
from .errors import ArgumentError, InvariantError, MarginError, TermBudgetError
from .numtheory import check_int, primes_up_to
from .reduction import LocalData, conductor, local_data
from .rootnum import global_root_number

COEFFICIENT_BUDGET = 10**6
DEFAULT_DPS = 50
DEFAULT_MARGIN = 10.0
# pi to 100 decimals, within 10^-100 of pi
PI = Decimal("3.14159265358979323846264338327950288419716939937510"
             "58209749445923078164062862089986280348253421170680")

VERDICT_NONZERO = "NonzeroEvidence"
VERDICT_INCONCLUSIVE = "Inconclusive"

EVIDENCE_NOTE = (
    "NonzeroEvidence means |L(E,1)| exceeds the margin times a rigorous tail "
    "bound; rank 0 then follows only through the standard analytic-rank-zero "
    "implication. This is evidence, not a proof object."
)


@dataclass(frozen=True)
class LValueEstimate:
    value: Decimal
    tail_bound: Decimal
    terms_used: int
    terms_summed: int  # coefficients summed; 0 when w = -1 forced the value at t = 1
    conductor: int
    verdict: str
    root_number: int

    def __post_init__(self):
        if self.tail_bound < 0:
            raise InvariantError("tail bound must be nonnegative")


def dirichlet_coefficients(E: WeierstrassModel | LocalData, M: int) -> list[int]:
    """Coefficients a_1..a_M of L(E,s); returned as a list with a_n at index n.

    a_p = p + 1 - #X(F_p) at good p, +1 / -1 / 0 at split / nonsplit /
    additive p, in the array indexed by p that LocalData.traces(M) returns
    with the bad primes (it derives the a_p of a record made by X.twist(d)
    from X's at their common good odd primes).  Each n <= M is the product
    of its p-parts p^v, p <= sqrt(M), and of rest, 1 or a prime above
    sqrt(M); so a_n = prod a_{p^v} * a_rest, one pass per small prime, with
    a_{p^k} = a_p a_{p^(k-1)} - p a_{p^(k-2)} (good) or a_p^k (bad).  The
    fill runs in numpy int64, which holds every a_n exactly: each partial
    product is a_m for a divisor m of n, and |a_m| <= d(m) sqrt(m) < 2^62.
    ArgumentError unless M is an int of at least 1.
    """
    if check_int(M, "M", 1) > COEFFICIENT_BUDGET:
        raise TermBudgetError(f"M = {M} exceeds the coefficient budget {COEFFICIENT_BUDGET}")
    a, bad = local_data(E).traces(M)
    a[1] = 1
    coeffs = np.ones(M + 1, dtype=np.int64)
    rest = np.arange(M + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(M)):
        # v[i] = v_p((i + 1) p), over the multiples p, 2p, ... of p up to M
        v = np.ones(M // p, dtype=np.int64)
        q = p
        while q <= M // p:
            v[q - 1 :: q] += 1
            q *= p
        a_p, good = int(a[p]), p not in bad
        a_pk = [1, a_p]
        for _ in range(int(v.max()) - 1):
            a_pk.append(a_p * a_pk[-1] - (p * a_pk[-2] if good else 0))
        coeffs[p::p] *= np.array(a_pk, dtype=np.int64)[v]
        rest[p::p] //= p**v
    # rest is 1 or a prime above sqrt(M), and 0 at n = 0, where a_0 = 0
    coeffs *= a[rest]
    return coeffs.tolist()


def default_terms(N: int) -> int:
    return max(1000, math.isqrt(100 * N) + 1)


def fraction_bits(M: int, dps: int) -> int:
    """Fixed-point precision B of the kernel for M terms at dps digits.

    Each kernel sum is off by fewer than 2 M^2 + 3 M units of 2^-B (see
    _scaled_sum), and 2^B > (2 M + 3) 10^dps makes that at most
    M 10^-dps."""
    return ((2 * M + 3) * 10**dps).bit_length()


def _q_values(N: int, t: float) -> tuple[Decimal, Decimal]:
    """q1 = exp(-2 pi t / sqrt(N)) and q2 = exp(-2 pi / (t sqrt(N))), at the
    precision of the current decimal context, at most PI's 100 digits."""
    if getcontext().prec > 100:
        raise InvariantError(f"q asked for at {getcontext().prec} digits, beyond PI's 100")
    sqrt_n, tt, two_pi = Decimal(N).sqrt(), Decimal(t), 2 * PI
    return (-two_pi * tt / sqrt_n).exp(), (-two_pi / (tt * sqrt_n)).exp()


def _scaled_sum(coeffs: list[int], Q: int, B: int) -> int:
    """sum_{n=1}^{M} a_n q^n / n in units of 2^-B, M = len(coeffs) - 1,
    from Q = floor(q 2^B) with q < 1, in Python integers.

    q_n = floor(q_{n-1} Q / 2^B) falls short of, or exceeds, q^n 2^B by
    fewer than 2n units: each step adds under 1 for the floor of Q (taken
    from q at B + 64 bits) and under 1 for its own floor.  With
    |a_n| / n <= 2, the term floor(a_n q_n / n) is off by under 4n + 1, so
    the sum is off by under 2 M^2 + 3 M units.
    """
    s = 0
    qn = 1 << B
    for n in range(1, len(coeffs)):
        qn = qn * Q >> B
        a = coeffs[n]
        if a:
            s += a * qn // n
    return s


def check_margin(margin_factor: float) -> None:
    """Raise MarginError unless margin_factor is an int or a float, not a
    bool, with 1 <= margin_factor < inf: |value| beyond m times the tail
    bound proves L(E,1) != 0 only for m >= 1."""
    real = isinstance(margin_factor, (int, float)) and not isinstance(margin_factor, bool)
    if not real or not 1 <= margin_factor < math.inf:  # nan fails both comparisons
        raise MarginError(f"margin factor must be finite and at least 1, got {margin_factor!r}")


def l_value_at_1(
    E: WeierstrassModel | LocalData,
    terms: int | None = None,
    t: float = 1.0,
    margin_factor: float = DEFAULT_MARGIN,
) -> LValueEstimate:
    """Evaluate L(E,1) by the truncated symmetric-point series, at
    DEFAULT_DPS digits, from E or its LocalData record.

    terms defaults to max(1000, 10 sqrt(N)).  The verdict is
    NonzeroEvidence iff |value| > margin_factor * tail_bound, and
    margin_factor must be finite and at least 1 (MarginError).  At t = 1
    with root number -1 the value is exactly s1 - s1 = 0, returned without
    computing a coefficient (terms_summed = 0).  ArgumentError unless t is
    a positive and finite int or float, not a bool, and for a t so far from
    1 that q1 or q2 is within 10^(10 - DEFAULT_DPS) of 1 at DEFAULT_DPS
    digits, where the tail bound would divide by a 1 - q of too few digits.

    The record remembers (value, tail bound, terms summed) per (terms, t)
    once an evaluation completes, and the verdict is taken from the margin
    on every call; so a record that lasts for the process, a twist of a
    curve of the curve table, sums each series once per process.
    """
    real = isinstance(t, (int, float)) and not isinstance(t, bool)
    if not real or not 0 < t < math.inf:  # nan fails both comparisons
        raise ArgumentError(f"evaluation point t must be a positive finite number, got {t!r}")
    check_margin(margin_factor)
    data = local_data(E)
    N = conductor(data)
    root_number = global_root_number(data).value
    M = default_terms(N) if terms is None else check_int(terms, "terms", 1)
    if M > COEFFICIENT_BUDGET:
        raise TermBudgetError(f"terms = {M} exceeds the coefficient budget {COEFFICIENT_BUDGET}")
    sums = data._sums.get((M, t))
    if sums is None:
        sums = _evaluate(data, N, root_number, M, t)
        # stored only once complete: a raise or an interrupt leaves no entry
        data._sums[(M, t)] = sums
    value, tail, summed = sums
    with localcontext(Context(prec=DEFAULT_DPS)):
        nonzero = abs(value) > Decimal(margin_factor) * tail
    return LValueEstimate(
        value=value,
        tail_bound=tail,
        terms_used=M,
        terms_summed=summed,
        conductor=N,
        verdict=VERDICT_NONZERO if nonzero else VERDICT_INCONCLUSIVE,
        root_number=root_number,
    )


def _evaluate(
    data: LocalData, N: int, root_number: int, M: int, t: float
) -> tuple[Decimal, Decimal, int]:
    """(value, tail bound, terms summed) of l_value_at_1 for M terms at t."""
    with localcontext(Context(prec=DEFAULT_DPS)) as ctx:
        q1, q2 = _q_values(N, t)
        if 1 - max(q1, q2) < Decimal(10) ** (10 - DEFAULT_DPS):
            raise ArgumentError(
                f"evaluation point t = {t} puts q1 or q2 within 10^{10 - DEFAULT_DPS} of 1"
            )
        if t == 1 and root_number == -1:
            value, summed = Decimal(0), 0
        else:
            coeffs = dirichlet_coefficients(data, M)
            B = fraction_bits(M, DEFAULT_DPS)
            ctx.prec = len(str(1 << (B + 64))) + 1
            Q1, Q2 = (int((q * 2**B).to_integral_value(ROUND_FLOOR)) for q in _q_values(N, t))
            ctx.prec = DEFAULT_DPS
            s1 = _scaled_sum(coeffs, Q1, B)
            s2 = s1 if t == 1 else _scaled_sum(coeffs, Q2, B)
            value, summed = Decimal(s1 + root_number * s2) / 2**B, M
        tail = 2 * (q1 ** (M + 1) / (1 - q1) + q2 ** (M + 1) / (1 - q2))
        tail += 32 * M * Decimal(10) ** -DEFAULT_DPS
    return value, tail, summed
