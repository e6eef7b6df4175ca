"""Local and global root numbers, and the Jacobi-symbol twist formula for
semistable curves of odd conductor.

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
rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import WeierstrassModel
from .errors import (
    ArgumentError,
    HypothesisViolationError,
    InvariantError,
    UnsupportedPlaceError,
    UnsupportedReductionError,
)
from .numtheory import is_prime, is_squarefree, jacobi, valuation
from .reduction import LocalData, ReductionKind, conductor, local_data

INFINITE_PLACE = "inf"

CASE_ARCHIMEDEAN = "archimedean"
CASE_GOOD = "good"
CASE_SPLIT = "split-mult"
CASE_NONSPLIT = "nonsplit-mult"
CASE_ADD_POT_MULT = "add-pot-mult"
CASE_ADD_POT_GOOD = "add-pot-good"


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
    if place == INFINITE_PLACE:
        return -1, CASE_ARCHIMEDEAN
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ArgumentError(f"place must be 'inf' or a prime, got {place!r}")
    kind = data.at(p).kind
    if kind is ReductionKind.GOOD:
        return 1, CASE_GOOD
    if kind is ReductionKind.MULT_SPLIT:
        return -1, CASE_SPLIT
    if kind is ReductionKind.MULT_NONSPLIT:
        return 1, CASE_NONSPLIT
    if kind is ReductionKind.ADD_POT_MULT:
        # (-1/p): +1 iff -1 is a square mod p iff p = 1 mod 4
        return (1 if p % 4 == 1 else -1), CASE_ADD_POT_MULT
    # additive potentially good
    if p == 3:
        raise UnsupportedPlaceError(
            "additive potentially good reduction at 3 is not covered"
        )
    # Minimalizing lowers v_p(Delta) by a multiple of 12, and a p-minimal
    # model with potentially good reduction has v_p(Delta) < 12.
    v = valuation(data.inv.delta, p) % 12
    sign = -1 if (v * p // 12) % 2 else 1
    return sign, CASE_ADD_POT_GOOD


def local_root_number(E: WeierstrassModel | LocalData, place) -> int:
    """Local root number at 'inf' or a prime (model p-minimalized first)."""
    return _local_factor(local_data(E), place)[0]


def global_root_number(E: WeierstrassModel | LocalData) -> RootNumber:
    """Product of local root numbers over the infinite place and bad primes.

    Primes that become good after p-minimalization contribute +1 and are
    omitted from the ledger.
    """
    data = local_data(E)
    ledger: list[tuple[object, int, str]] = [(INFINITE_PLACE, -1, CASE_ARCHIMEDEAN)]
    value = -1
    for p in data.delta_primes:
        sign, case = _local_factor(data, p)
        if case == CASE_GOOD:
            continue
        ledger.append((p, sign, case))
        value *= sign
    return RootNumber(value, tuple(ledger))


def twist_root_number_formula(E: WeierstrassModel | LocalData, d: int) -> int:
    """jacobi(d, N) * w(E) for semistable E of odd conductor N.

    Valid for squarefree positive d = 1 mod 4 prime to N; any failed
    hypothesis raises HypothesisViolationError naming the condition.  The
    value equals the global root number of the twisted curve.
    """
    data = local_data(E)
    try:
        N = conductor(data)
    except UnsupportedReductionError as exc:  # additive at 2 or 3
        raise HypothesisViolationError(f"E is not semistable: {exc}") from exc
    for p in data.delta_primes:
        if N % (p * p) == 0:
            raise HypothesisViolationError(f"E is not semistable: additive reduction at {p}")
    if N % 2 == 0:
        raise HypothesisViolationError(f"conductor {N} is even")
    if not isinstance(d, int) or d <= 0:
        raise HypothesisViolationError("twist parameter must be a positive integer")
    if not is_squarefree(d):
        raise HypothesisViolationError(f"twist parameter {d} is not squarefree")
    if d % 4 != 1:
        raise HypothesisViolationError(f"twist parameter {d} is not 1 mod 4")
    if math.gcd(d, N) != 1:
        raise HypothesisViolationError(f"twist parameter {d} shares a factor with N = {N}")
    return jacobi(d, N) * global_root_number(data).value
