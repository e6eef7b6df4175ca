"""Admissible twist tuples, character discriminants, tuple search, and the
hypothesis pipeline tying root numbers to L-value evidence.

For p in {5, 7} and the conductor-3p curve X, a tuple (d_1, ..., d_r) is
admissible when every d_i passes the twist-parameter rule against 3p
(rootnum.twist_parameter_failure: a squarefree positive integer, d_i = 1 mod
4, gcd(d_i, 3p) = 1), jacobi(d_i, 3p) = 1, and no nonempty subset product is
a perfect square (so the d_i are independent modulo squares and
Q(sqrt(d_1), ..., sqrt(d_r)) has degree 2^r).  Each sign character of that
field corresponds to the squarefree part of a subset product; the
hypothesis check computes, for all 2^r characters, the twist's global root
number (cross-checked against the Jacobi-symbol formula) and an L(1)
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import curve_by_label
from .descent import characters
from .errors import ArgumentError, CurveTableError, InvariantError, WorkBoundError
from .lseries import (
    COEFFICIENT_BUDGET,
    DEFAULT_MARGIN,
    LValueEstimate,
    VERDICT_NONZERO,
    check_margin,
    l_value_at_1,
)
from .numtheory import Factorization, check_int, check_tuple, factor, jacobi
from .reduction import conductor, local_data
from .rootnum import RootNumber, global_root_number, twist_root_number_formula
from .rootnum import twist_parameter_failure, twist_parameters

SUPPORTED_P = (5, 7)
CURVE_FOR_P = {5: "15a1", 7: "21a1"}
MAX_SEARCH_BOUND = 10**4
# Subsets of at most r candidates that search may visit; the largest
# benchmarked search (p = 7, r = 2, bound 600) visits 667.
MAX_SEARCH_WORK = 5 * 10**4

OVERALL_VERIFIED = "Verified*"
OVERALL_ROOT_OBSTRUCTION = "RootNumberObstruction"
OVERALL_INCONCLUSIVE = "InconclusiveLValue"
OVERALL_NOT_ADMISSIBLE = "NotAdmissible"

VERIFIED_NOTE = (
    "all character twists have root number +1 and nonzero L(1) evidence; "
    "the rank-0 conclusion is conditional on the analytic-rank implication"
)

@dataclass(frozen=True)
class AdmissibilityCheck:
    ok: bool
    failed_condition: str | None = None
    failed_index: int | None = None
    detail: str | None = None


@dataclass(frozen=True)
class AdmissibleTuple:
    """An admissible (d_1, ..., d_r) for p, rechecked in full by
    is_admissible on every public construction; ds is kept as a tuple.
    search alone builds its results through _proven, its echelon being
    their proof."""

    p: int
    ds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ds", check_tuple(self.ds, "the d_i"))
        check = is_admissible(self.p, self.ds)
        if not check.ok:
            raise ArgumentError(
                f"tuple {self.ds} is not admissible for p = {self.p}: "
                f"{check.failed_condition} (index {check.failed_index})"
            )

    @classmethod
    def _proven(cls, p: int, ds: tuple[int, ...]) -> "AdmissibleTuple":
        """The tuple (p, ds) without the recheck, for ds that search has
        proven admissible."""
        tup = object.__new__(cls)
        tup.__dict__.update(p=p, ds=ds)
        return tup

    @property
    def r(self) -> int:
        return len(self.ds)


def _fail(condition: str, index: int | None, detail: str | None = None) -> AdmissibilityCheck:
    return AdmissibilityCheck(False, condition, index, detail)


def _odd_exponent_mask(d: Factorization, prime_bits: dict[int, int]) -> int:
    """GF(2) vector of a Factorization d modulo squares: one bit per prime
    dividing d to an odd power, bit positions assigned in prime_bits as
    primes appear."""
    mask = 0
    for q, e in d.factors:
        if e % 2:
            mask ^= 1 << prime_bits.setdefault(q, len(prime_bits))
    return mask


def _reduce(mask: int, basis: list[int]) -> int:
    """mask reduced by an echelon basis; 0 iff mask lies in its span."""
    for row in basis:
        mask = min(mask, mask ^ row)
    return mask


def _check_p(p) -> None:
    """ArgumentError unless p is one of SUPPORTED_P."""
    # the isinstance refuses 5.0, since 5.0 in (5, 7) is true
    if not isinstance(p, int) or p not in SUPPORTED_P:
        raise ArgumentError(f"p must be one of {SUPPORTED_P}, got {p!r}")


def is_admissible(p: int, ds) -> AdmissibilityCheck:
    """Check the tuple conditions in order, naming the first failure.

    Named first: a d_i not positive or not squarefree, then one not 1 mod 4,
    then one sharing a factor with 3p.  Independence modulo squares is
    decided by the GF(2) echelon of search, each row carrying below its
    prime bits one bit per d_i it combines, so a d_i that reduces to no
    prime bits names a subset with a square product.
    """
    _check_p(p)
    ds = check_tuple(ds, "the d_i")
    if not ds:
        return _fail("empty", None, "no d_i given")
    n3p = 3 * p
    failures = []
    for i, d in enumerate(ds):
        failures.append(twist_parameter_failure(d, n3p))
        if failures[i] in ("positive", "squarefree"):
            return _fail(failures[i], i, f"d_{i+1} = {d}")
    if "mod4" in failures:
        i = failures.index("mod4")
        return _fail("mod4", i, f"d_{i+1} = {ds[i]} is {ds[i] % 4} mod 4")
    if "coprime" in failures:
        i = failures.index("coprime")
        return _fail("coprime", i, f"gcd({ds[i]}, {n3p}) = {math.gcd(ds[i], n3p)}")
    for i, d in enumerate(ds):
        if jacobi(d, n3p) != 1:
            return _fail("jacobi", i, f"({d}/{n3p}) = {jacobi(d, n3p)}")
    n = len(ds)
    prime_bits: dict[int, int] = {}
    basis: list[int] = []
    for i, d in enumerate(ds):
        reduced = _reduce(_odd_exponent_mask(factor(d), prime_bits) << n | 1 << i, basis)
        if reduced >> n == 0:
            named = ",".join(str(j + 1) for j in range(n) if reduced >> j & 1)
            return _fail("subset-square", None, f"product of d_{named} is a perfect square")
        basis.append(reduced)
    return AdmissibilityCheck(True)


def character_discriminant(tup: AdmissibleTuple, signs) -> int:
    """Squarefree part of the product of the d_i with sign -1; 1 if trivial.

    The output provably satisfies the numeric admissibility conditions
    again (multiplicativity of the Jacobi symbol); this closure is checked
    on every call, raising InvariantError.
    """
    signs = check_tuple(signs, "character", tup.r)
    if any(check_int(s, "a character entry") not in (1, -1) for s in signs):
        raise ArgumentError(f"character entries must be +1 or -1, got {signs!r}")
    return _character(tup.p, tup.ds, signs)


def _character(p: int, ds, signs) -> int:
    """character_discriminant for the admissible ds: the d_i are
    squarefree, so its primes are the symmetric difference of the prime
    sets of the d_i with sign -1.  The closure is checked on it."""
    primes: set[int] = set()
    for d, s in zip(ds, signs):
        if s == -1:
            primes.symmetric_difference_update(factor(d).primes())
    d_s = math.prod(primes)
    n3p = 3 * p
    if twist_parameter_failure(d_s, n3p) is not None or jacobi(d_s, n3p) != 1:
        raise InvariantError(f"character discriminant {d_s} of {ds} is not admissible")
    return d_s


def search(p: int, r: int, bound: int) -> list[AdmissibleTuple]:
    """All admissible r-tuples with d_1 < ... < d_r <= bound, lexicographic.

    Candidates are pruned by GF(2) independence of their prime-exponent
    vectors while recursing.  That echelon is the proof of each produced
    tuple, which is built without the is_admissible recheck; the oracles
    are the subset-square scan of tests/test_fieldsearch.py and acceptance
    criterion 8.  Each candidate's factorization is checked squarefree once,
    before recursing (ArgumentError if not).  WorkBoundError, before
    recursing, when the subsets of at most r candidates number more than
    MAX_SEARCH_WORK.
    """
    _check_p(p)
    check_int(r, "rank r", 1)
    check_int(bound, "bound", 1, MAX_SEARCH_BOUND)
    n3p = 3 * p
    singles = [factor(d) for d in twist_parameters(bound, n3p) if jacobi(d, n3p) == 1]
    work = sum(math.comb(len(singles), k) for k in range(min(r, len(singles)) + 1))
    if work > MAX_SEARCH_WORK:
        raise WorkBoundError(
            f"{len(singles)} candidates give {work} subsets of at most {r}, "
            f"above {MAX_SEARCH_WORK}"
        )
    for f in singles:
        if any(e > 1 for _, e in f.factors):
            raise ArgumentError(f"candidate {f.value} is not squarefree")
    prime_bits: dict[int, int] = {}
    masks = [_odd_exponent_mask(f, prime_bits) for f in singles]
    results: list[AdmissibleTuple] = []

    def extend(start: int, chosen: list[int], basis: list[int]):
        if len(chosen) == r:
            results.append(AdmissibleTuple._proven(p, tuple(chosen)))
            return
        for idx in range(start, len(singles)):
            reduced = _reduce(masks[idx], basis)
            if reduced == 0:
                continue  # some subset product would be a square
            chosen.append(singles[idx].value)
            basis.append(reduced)
            extend(idx + 1, chosen, basis)
            basis.pop()
            chosen.pop()

    extend(0, [], [])
    return results


@dataclass(frozen=True)
class CharacterResult:
    signs: tuple[int, ...]
    discriminant: int
    root_number: RootNumber
    formula_sign: int
    lvalue: LValueEstimate
    retried: bool


@dataclass(frozen=True)
class HypothesisReport:
    p: int
    ds: tuple[int, ...]
    admissibility: AdmissibilityCheck
    per_character: tuple[CharacterResult, ...]
    overall: str
    unramified_at_6p: bool
    note: str


def check_hypothesis(p: int, ds, margin_factor: float = DEFAULT_MARGIN) -> HypothesisReport:
    """Run the full per-character pipeline for the tuple (d_1, ..., d_r).

    For each of the 2^r characters: the twist discriminant, the twisted
    curve, its global root number as a local product (cross-checked against
    the Jacobi-symbol formula, exactly), and an L(1) estimate; an
    inconclusive estimate is retried once with four times the terms.  One
    LocalData record of each twist, made and kept by the base curve's
    record, which lasts for the process, serves its root number, its
    estimate and the retry; its L-value sums are remembered on it, so a
    character met again, in this tuple or a later one, is not summed
    again.  Character evaluations are independent pure computations
    aggregated in a fixed order.

    margin_factor is checked first, admissible tuple or not (MarginError
    below 1 or not finite).  The d_i are taken as given: a value that is
    not a positive int fails admissibility, and ds that is not iterable
    raises ArgumentError.
    """
    check_margin(margin_factor)
    ds = check_tuple(ds, "the d_i")
    adm = is_admissible(p, ds)
    if not adm.ok:
        return HypothesisReport(
            p,
            ds,
            adm,
            (),
            OVERALL_NOT_ADMISSIBLE,
            False,
            f"admissibility failed: {adm.failed_condition} ({adm.detail})",
        )
    X = local_data(curve_by_label(CURVE_FOR_P[p]))
    N = conductor(X)
    if N != 3 * p:
        raise CurveTableError(f"table curve {CURVE_FOR_P[p]} has conductor {N}, expected {3 * p}")
    per: list[CharacterResult] = []
    for signs in characters(len(ds)):
        d_s = _character(p, ds, signs)
        twist = X.twist(d_s)
        direct = global_root_number(twist)
        formula = twist_root_number_formula(X, d_s)
        if direct.value != formula:
            raise InvariantError(
                f"twist formula sign {formula} disagrees with local product "
                f"{direct.value} at d = {d_s}"
            )
        estimate = l_value_at_1(twist, margin_factor=margin_factor)
        retried = False
        if estimate.verdict != VERDICT_NONZERO:
            retried = True
            estimate = l_value_at_1(
                twist,
                terms=min(4 * estimate.terms_used, COEFFICIENT_BUDGET),
                margin_factor=margin_factor,
            )
        per.append(CharacterResult(signs, d_s, direct, formula, estimate, retried))
    roots_ok = all(c.root_number.value == 1 for c in per)
    l_ok = all(c.lvalue.verdict == VERDICT_NONZERO for c in per)
    if roots_ok and l_ok:
        overall = OVERALL_VERIFIED
        note = VERIFIED_NOTE
    elif not roots_ok:
        overall = OVERALL_ROOT_OBSTRUCTION
        note = "some character twist has root number -1"
    else:
        overall = OVERALL_INCONCLUSIVE
        note = "every root number is +1 but some L(1) estimate stayed inconclusive"
    return HypothesisReport(p, ds, adm, tuple(per), overall, True, note)
