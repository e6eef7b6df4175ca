"""Local and global root numbers, the Jacobi-symbol twist formula for
semistable curves of odd conductor, and the one rule on twist parameters.

Local signs follow the Dokchitser-Dokchitser case table over Q_p / R:

    (1) -1 at the infinite place and for split multiplicative reduction,
    (2) +1 for good and nonsplit multiplicative reduction,
    (3) (-1 / p) for additive potentially multiplicative reduction, p >= 3,
    (4) (-1)^floor(v_p(Delta_min) * p / 12) for additive potentially good
        reduction, p >= 5.

The kind at each prime comes from the model's LocalData record
(reduction.py), which also decides the reduction at 2; every function here
takes a model or its record.  Uncovered places (additive or non-minimal
reduction at 2, additive potentially good at 3) raise UnsupportedPlaceError
rather than guessing.  The record is the one owner of a curve's conductor
and global root number: each is decided once per record and remembered on
it (LocalData.conductor, and _root_number, written by global_root_number
alone), only once complete, so a raise leaves nothing behind.

The one rule on a twist parameter d against a modulus n (N in the twist
formula, 3p in fieldsearch) is twist_parameter_failure: d must be a
positive int (not a bool), squarefree, 1 mod 4 and prime to n.
twist_root_number_formula is the one entry of the formula
w(E^(d)) = (d/N) w(E): it decides E's hypotheses, then the rule on d, and
reads N and w(E) from E's record.  twist_sweep checks it against the
direct product on each twist's own model for every valid d <= dmax, within
the work bound MAX_TWIST_DMAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import WeierstrassModel
from .errors import (
    HypothesisViolationError,
    InvariantError,
    TwistgateError,
    UnsupportedPlaceError,
    UnsupportedReductionError,
    WorkBoundError,
)
from .numtheory import SMALL_FACTOR_BOUND, check_int, check_prime, factor, jacobi, valuation
from .reduction import LocalData, ReductionKind, local_data

INFINITE_PLACE = "inf"

CASE_ARCHIMEDEAN = "archimedean"
CASE_GOOD = "good"
CASE_SPLIT = "split-mult"
CASE_NONSPLIT = "nonsplit-mult"
CASE_ADD_POT_MULT = "add-pot-mult"
CASE_ADD_POT_GOOD = "add-pot-good"

# Largest twist_sweep dmax; the benchmarked sweeps reach 2000.
MAX_TWIST_DMAX = 10**4


@dataclass(frozen=True)
class RootNumber:
    """A global sign together with the ledger of local factors.

    local_factors lists (place, sign, case), place being "inf" or a prime;
    good primes are omitted.  The constructor re-checks that the value is
    the product of the ledger and that the infinite place contributes -1.
    """

    value: int
    local_factors: tuple[tuple[object, int, str], ...]

    def __post_init__(self):
        if self.value not in (1, -1):
            raise InvariantError("root number must be +1 or -1")
        prod = 1
        places = []
        saw_inf = False
        for place, sign, case in self.local_factors:
            prod *= sign
            places.append(place)
            if place == INFINITE_PLACE:
                saw_inf = True
                if sign != -1 or case != CASE_ARCHIMEDEAN:
                    raise InvariantError("infinite place must carry sign -1")
        if not saw_inf:
            raise InvariantError("ledger must include the infinite place")
        if len(set(places)) != len(places):
            raise InvariantError("ledger lists a place twice")
        if prod != self.value:
            raise InvariantError("value must equal the product of local signs")


def _local_factor(data: LocalData, place) -> tuple[int, str]:
    """(sign, case) at 'inf' or at a prime, which data.at checks."""
    if place == INFINITE_PLACE:
        return -1, CASE_ARCHIMEDEAN
    kind = data.at(place).kind
    if kind is ReductionKind.GOOD:
        return 1, CASE_GOOD
    if kind is ReductionKind.MULT_SPLIT:
        return -1, CASE_SPLIT
    if kind is ReductionKind.MULT_NONSPLIT:
        return 1, CASE_NONSPLIT
    if kind is ReductionKind.ADD_POT_MULT:
        # (-1/p): +1 iff -1 is a square mod p iff p = 1 mod 4
        return (1 if place % 4 == 1 else -1), CASE_ADD_POT_MULT
    # additive potentially good
    if place == 3:
        raise UnsupportedPlaceError(
            "additive potentially good reduction at 3 is not covered"
        )
    # Minimalizing lowers v_p(Delta) by a multiple of 12, and a p-minimal
    # model with potentially good reduction has v_p(Delta) < 12.
    v = valuation(data.inv.delta, place) % 12
    sign = -1 if (v * place // 12) % 2 else 1
    return sign, CASE_ADD_POT_GOOD


def local_root_number(E: WeierstrassModel | LocalData, place) -> int:
    """Local root number at 'inf' or a prime (model p-minimalized first);
    ArgumentError naming the place unless it is one of these."""
    if place != INFINITE_PLACE:
        check_prime(place, "a place other than 'inf'")
    return _local_factor(local_data(E), place)[0]


def global_root_number(E: WeierstrassModel | LocalData) -> RootNumber:
    """Product of local root numbers over the infinite place and bad primes.

    Primes that become good after p-minimalization contribute +1 and are
    omitted from the ledger.  Remembered on E's record once complete, so
    each record is decided once; an error leaves nothing remembered.
    """
    data = local_data(E)
    if data._root_number is None:
        ledger: list[tuple[object, int, str]] = [(INFINITE_PLACE, -1, CASE_ARCHIMEDEAN)]
        value = -1
        for p in data.delta_primes:
            sign, case = _local_factor(data, p)
            if case == CASE_GOOD:
                continue
            ledger.append((p, sign, case))
            value *= sign
        # stored only once complete, so a raise leaves nothing
        data._root_number = RootNumber(value, tuple(ledger))
    return data._root_number


def twist_parameter_failure(d: int, n: int) -> str | None:
    """The first condition d fails against n, of "positive" (which a bool
    fails), "squarefree", "mod4" and "coprime" in this order, or None.
    4 | d fails squarefreeness without factoring d."""
    if isinstance(d, bool) or not isinstance(d, int) or d <= 0:
        return "positive"
    if d % 4 == 0 or any(e > 1 for _, e in factor(d).factors):
        return "squarefree"
    if d % 4 != 1:
        return "mod4"
    return None if math.gcd(d, n) == 1 else "coprime"


def twist_parameters(bound: int, n: int) -> list[int]:
    """The d <= bound that pass the rule against n, ascending.  Only d = 1
    mod 4 prime to n can pass, and no other d goes to factor; bound must be an
    int of at most SMALL_FACTOR_BOUND, up to which numtheory.factor keeps
    each factorization, and n an int (ArgumentError)."""
    check_int(bound, "bound", None, SMALL_FACTOR_BOUND)
    check_int(n, "n")
    candidates = (d for d in range(1, bound + 1, 4) if math.gcd(d, n) == 1)
    return [d for d in candidates if twist_parameter_failure(d, n) is None]


_VIOLATION = {
    "positive": "twist parameter must be a positive integer",
    "squarefree": "twist parameter {d} is not squarefree",
    "mod4": "twist parameter {d} is not 1 mod 4",
    "coprime": "twist parameter {d} shares a factor with N = {N}",
}


def _formula_conductor(data: LocalData) -> int:
    """N for semistable E of odd conductor N; HypothesisViolationError
    naming the hypothesis E fails."""
    try:
        N = data.conductor
    except UnsupportedReductionError as exc:  # additive at 2 or 3
        raise HypothesisViolationError(f"E is not semistable: {exc}") from exc
    for p in data.delta_primes:
        if N % (p * p) == 0:
            raise HypothesisViolationError(f"E is not semistable: additive reduction at {p}")
    if N % 2 == 0:
        raise HypothesisViolationError(f"conductor {N} is even")
    return N


def twist_root_number_formula(E: WeierstrassModel | LocalData, d: int) -> int:
    """(d/N) w(E), equal to the global root number of the twist E^(d), read
    from E's remembered N and w(E).  HypothesisViolationError names the first
    hypothesis that fails: E semistable of odd conductor N, then the rule on
    d against N (twist_parameter_failure)."""
    data = local_data(E)
    N = _formula_conductor(data)
    failure = twist_parameter_failure(d, N)
    if failure is not None:
        raise HypothesisViolationError(_VIOLATION[failure].format(d=d, N=N))
    return jacobi(d, N) * global_root_number(data).value


def twist_sweep(
    E: WeierstrassModel | LocalData, dmax: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """E's conductor N and (d, formula sign, direct sign) for each valid
    d <= dmax, ascending.  E's hypotheses are decided before any d.  The
    direct sign classifies the twist's own model at every prime; an error
    there is re-raised with its d named."""
    check_int(dmax, "--dmax", 1)
    if dmax > MAX_TWIST_DMAX:
        raise WorkBoundError(f"--dmax must be at most {MAX_TWIST_DMAX}, got {dmax}")
    data = local_data(E)
    N = _formula_conductor(data)
    signs = []
    for d in twist_parameters(dmax, N):
        try:
            direct = global_root_number(data.twist(d)).value
        except TwistgateError as exc:
            raise type(exc)(f"d = {d}: {exc}") from exc
        signs.append((d, twist_root_number_formula(data, d), direct))
    return N, signs
