"""a_p at good primes by Shanks-Mestre baby-step giant-step, against the
point count as its oracle.

_trace_bsgs answers only when its points leave one group order in the
Hasse interval, and #E lies in every point's set of orders, so a wrong
answer can only come from a set of orders that misses #E.  ReductionData's
Hasse check cannot see that; these oracles can.  The curves include j = 0,
j = 1728 and full rational 2-torsion, so that points of small order occur,
among them baby steps at the point at infinity and at y = 0.
"""

import numpy as np
import pytest

from twistgate import reduction
from twistgate.curve import WeierstrassModel, curve_by_label
from twistgate.errors import InvariantError, PrimeTooLargeError
from twistgate.numtheory import is_prime, primes_up_to
from twistgate.reduction import (
    BSGS_FROM,
    LocalData,
    ReductionData,
    ReductionKind,
    _trace_bsgs,
    classify,
    count_points,
)

ORACLE_CURVES = {
    "15a1": curve_by_label("15a1"),
    "21a1": curve_by_label("21a1"),
    "y^2 = x^3 + 1": WeierstrassModel(0, 0, 0, 0, 1),
    "y^2 = x^3 - x": WeierstrassModel(0, 0, 0, -1, 0),
    "y^2 = (x - 1)(x - 2)(x + 3)": WeierstrassModel(0, 0, 0, -7, 6),
}
# three curves of the benchmark's lvalue-fresh pool
FRESH_CURVES = [
    WeierstrassModel(0, -1, 1, -29, -30),
    WeierstrassModel(1, 0, 1, -26, -15),
    WeierstrassModel(0, 1, 1, 24, -11),
]
# Mestre: above this, E or its twist has a point that decides #E
MESTRE_BOUND = 229


def largest_prime_below(n):
    while not is_prime(n):
        n -= 1
    return n


@pytest.mark.parametrize("name", ORACLE_CURVES)
def test_bsgs_matches_the_point_count_at_every_good_prime(name):
    record = LocalData(ORACLE_CURVES[name])
    undecided = []
    for p in primes_up_to(20_000):
        if p < 5 or record.inv.delta % p == 0:
            continue
        data = _trace_bsgs(record.inv, p)
        if data is None:
            undecided.append(p)
        else:
            assert data.points == count_points(record, p), p
    assert all(p <= MESTRE_BOUND for p in undecided), undecided


@pytest.mark.parametrize("E", FRESH_CURVES, ids=str)
def test_bsgs_matches_the_point_count_at_sampled_primes_up_to_a_million(E):
    record = LocalData(E)
    primes = [largest_prime_below(25_000 * k) for k in range(1, 41)]
    assert primes[-1] == 999_983
    for p in primes:
        if record.inv.delta % p:
            data = _trace_bsgs(record.inv, p)
            points = count_points(record, p)
            assert data is not None and data.points == points, p
            counted = ReductionData(p, ReductionKind.GOOD, points, p + 1 - points)
            assert classify(E, p) == counted and record.at(p) == counted, p


def test_the_table_uses_bsgs_from_the_crossover_on(monkeypatch):
    E = FRESH_CURVES[0]
    counted = []
    real = reduction.count_points
    monkeypatch.setattr(reduction, "count_points", lambda E, p: counted.append(p) or real(E, p))
    record = LocalData(E)
    record.traces_up_to(3000)
    good = [p for p in primes_up_to(3000) if p > 2 and record.inv.delta % p]
    assert counted == [p for p in good if p < BSGS_FROM]


def test_forced_fallback_leaves_the_table_unchanged(monkeypatch):
    E = FRESH_CURVES[0]
    table = LocalData(E).traces_up_to(3000).copy()
    asked = []
    monkeypatch.setattr(reduction, "_trace_bsgs", lambda inv, p: asked.append(p))
    counted = []
    real = reduction.count_points
    monkeypatch.setattr(reduction, "count_points", lambda E, p: counted.append(p) or real(E, p))
    fallback = LocalData(E).traces_up_to(3000)
    assert asked and all(p >= BSGS_FROM for p in asked)
    assert counted[-len(asked):] == asked
    assert np.array_equal(fallback, table)


def test_forced_fallback_above_the_enumeration_bound_still_refuses(monkeypatch):
    monkeypatch.setattr(reduction, "_trace_bsgs", lambda inv, p: None)
    with pytest.raises(PrimeTooLargeError):
        classify(curve_by_label("15a1"), 1000003)


def test_orders_that_miss_every_candidate_are_an_internal_error(monkeypatch):
    monkeypatch.setattr(reduction, "_hasse_orders", lambda P, a, p, H: set())
    with pytest.raises(InvariantError):
        _trace_bsgs(LocalData(curve_by_label("15a1")).inv, 1009)


def test_j_zero_starts_past_the_point_of_order_three(monkeypatch):
    # on y^2 = x^3 + B, x0 = 0 gives a point of order 3, which never decides
    calls = []
    real = reduction._hasse_orders
    monkeypatch.setattr(
        reduction, "_hasse_orders", lambda P, a, p, H: calls.append(p) or real(P, a, p, H)
    )
    record = LocalData(ORACLE_CURVES["y^2 = x^3 + 1"])
    good = [p for p in primes_up_to(20_000) if p >= BSGS_FROM and record.inv.delta % p]
    assert len(good) == 2212
    for p in good:
        assert _trace_bsgs(record.inv, p) is not None, p
    assert len(calls) < 1.5 * len(good)
