"""Hypothesis checks for Serre's mod-ell surjectivity criterion.

For an odd prime ell >= 3 the check records, exactly as the criterion is
applied to our curves: (a) j has a pole at some prime, and for every prime
q where it has one, ell does not divide |v_q(j)|, and (b) ell does not
divide the point count #E(F_q0) at an auxiliary good prime q0.  Integral j
(CM curves among them, whose mod-ell image is never surjective) fails (a).
A passing report means the criterion's hypotheses are verified;
surjectivity of the mod-ell representation then follows from Serre's
Proposition 21 (Inventiones 15, 1972), which we do not re-prove.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import WeierstrassModel
from .errors import (
    BadAuxPrimeError,
    UnsupportedPrimeError,
    UnsupportedReductionAtTwoError,
)
from .numtheory import check_int, factor, is_prime, primes_up_to
from .reduction import LocalData, ReductionKind, local_data

PASS_STATEMENT = (
    "criterion hypotheses verified; surjectivity follows by Serre's Proposition 21"
)


@dataclass(frozen=True)
class JExponentCheck:
    q: int
    v_q_of_j: int
    ok: bool


@dataclass(frozen=True)
class AuxPrimeCheck:
    q: int
    points: int
    ok: bool


@dataclass(frozen=True)
class SurjectivityReport:
    ell: int
    j_exponent_checks: tuple[JExponentCheck, ...]
    aux_check: AuxPrimeCheck
    overall: bool

    @property
    def statement(self) -> str:
        return PASS_STATEMENT if self.overall else "criterion hypotheses NOT verified"


def default_aux_prime(E: WeierstrassModel | LocalData) -> int:
    """Smallest odd prime of good reduction."""
    data = local_data(E)
    for q in primes_up_to(1000)[1:]:
        if data.at(q).kind is ReductionKind.GOOD:
            return q
    raise BadAuxPrimeError("no odd good prime below 1000")


def serre_check(
    E: WeierstrassModel | LocalData, ell: int, aux: int | None = None
) -> SurjectivityReport:
    """Run both indivisibility checks on E or its record; overall passes
    only if all do.

    aux defaults to the smallest odd good prime (7 for the conductor-15
    curve, 5 for the conductor-21 one).  ArgumentError unless ell and aux
    are ints; UnsupportedPrimeError or BadAuxPrimeError for other values.
    """
    if check_int(ell, "ell") < 3 or ell % 2 == 0 or not is_prime(ell):
        raise UnsupportedPrimeError(f"criterion requires an odd prime ell >= 3, got {ell}")
    data = local_data(E)
    if aux is None:
        aux = default_aux_prime(data)
    if not is_prime(check_int(aux, "aux")):
        raise BadAuxPrimeError(f"auxiliary prime {aux} is not prime")
    try:
        aux_data = data.at(aux)
    except UnsupportedReductionAtTwoError:
        aux_data = None
    if aux_data is None or aux_data.kind is not ReductionKind.GOOD:
        raise BadAuxPrimeError(f"{aux} is a bad prime of the curve")
    j = data.inv.j
    j_checks = []
    if j != 0:
        for q, e in factor(j.denominator).factors:
            # v_q(j) = -e at a pole of j
            j_checks.append(JExponentCheck(q, -e, e % ell != 0))
    points = aux_data.points  # on the model minimal at aux, which need not be E
    aux_check = AuxPrimeCheck(aux, points, points % ell != 0)
    overall = aux_check.ok and bool(j_checks) and all(c.ok for c in j_checks)
    return SurjectivityReport(ell, tuple(j_checks), aux_check, overall)
