"""a_p at good primes by Shanks-Mestre baby-step giant-step, against the
point count as its oracle, and the numpy lanes that fill a_p tables by the
same method, against _trace_bsgs and the point count as theirs.

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
from twistgate.curve import WeierstrassModel, curve_by_label, quadratic_twist
from twistgate.errors import InvariantError, PrimeTooLargeError
from twistgate.numtheory import is_prime, primes_up_to
from twistgate.reduction import (
    BSGS_FROM,
    LocalData,
    ReductionData,
    ReductionKind,
    _lane_traces,
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
# the lanes' oracle curves: the above, twists of 15a1, and a curve on which
# a y = 0 baby step matching one sign only drops #E from the candidates
LANE_CURVES = {
    **ORACLE_CURVES,
    **{str(E): E for E in FRESH_CURVES},
    "15a1^-11": quadratic_twist(curve_by_label("15a1"), -11),
    "15a1^13": quadratic_twist(curve_by_label("15a1"), 13),
    "[1,1,1,18,4]": WeierstrassModel(1, 1, 1, 18, 4),
}


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


def undecided_lanes(inv, primes):
    """_lane_traces leaving every lane undecided."""
    return np.zeros(len(primes), dtype=np.int64), np.zeros(len(primes), dtype=bool)


def spy(monkeypatch, name):
    """The primes each call of reduction.<name>(E, p) is given, in order."""
    calls = []
    real = getattr(reduction, name)
    monkeypatch.setattr(reduction, name, lambda E, p: calls.append(p) or real(E, p))
    return calls


def test_the_table_uses_bsgs_from_the_crossover_on(monkeypatch):
    E = FRESH_CURVES[0]
    monkeypatch.setattr(reduction, "_lane_traces", undecided_lanes)
    reduced = spy(monkeypatch, "_reduction")
    counted = spy(monkeypatch, "count_points")
    record = LocalData(E)
    record.traces_up_to(3000)
    good = [p for p in primes_up_to(3000) if p > 2 and record.inv.delta % p]
    assert reduced == good
    assert counted == [p for p in good if p < BSGS_FROM]


def test_forced_fallback_leaves_the_table_unchanged(monkeypatch):
    E = FRESH_CURVES[0]
    table = LocalData(E).traces_up_to(3000).copy()
    monkeypatch.setattr(reduction, "_lane_traces", undecided_lanes)
    asked = []
    monkeypatch.setattr(reduction, "_trace_bsgs", lambda inv, p: asked.append(p))
    counted = spy(monkeypatch, "count_points")
    fallback = LocalData(E).traces_up_to(3000)
    good = [p for p in primes_up_to(3000) if p > 2 and LocalData(E).inv.delta % p]
    assert asked == [p for p in good if p >= BSGS_FROM]
    assert counted == good
    assert np.array_equal(fallback, table)


def test_the_lanes_decide_most_of_the_table(monkeypatch):
    reduced = spy(monkeypatch, "_reduction")
    record = LocalData(FRESH_CURVES[0])
    record.traces_up_to(20_000)
    lanes = [p for p in primes_up_to(20_000) if p >= BSGS_FROM and record.inv.delta % p]
    undecided = [p for p in reduced if p >= BSGS_FROM]
    assert len(undecided) < 0.1 * len(lanes)


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


def lane_oracle(E, primes, monkeypatch):
    """The good primes among primes, and (p, lane a_p, _trace_bsgs a_p,
    point count, orders of _trace_bsgs's first point) wherever a decided
    lane differs from _trace_bsgs or the point count, or a lane is left
    undecided although that first point leaves one order, or decided
    although it leaves more."""
    inv = LocalData(E).inv
    good = [p for p in primes if inv.delta % p]
    a_p, decided = _lane_traces(inv, good)
    sizes = []
    real = reduction._hasse_orders

    def orders(P, a, p, H):
        found = real(P, a, p, H)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(reduction, "_hasse_orders", orders)
    wrong = []
    for p, lane, ok in zip(good, a_p.tolist(), decided.tolist()):
        sizes.clear()
        data = _trace_bsgs(inv, p)
        if ok != (sizes[0] == 1) or (ok and not lane == data.a_p == p + 1 - count_points(E, p)):
            wrong.append((p, lane if ok else None, data and data.a_p, count_points(E, p), sizes[0]))
    return good, wrong


@pytest.mark.parametrize("name", LANE_CURVES)
def test_lanes_match_bsgs_and_the_point_count_at_every_good_prime(name, monkeypatch):
    E = LANE_CURVES[name]
    _, wrong = lane_oracle(E, [p for p in primes_up_to(20_000) if p >= BSGS_FROM], monkeypatch)
    assert wrong == []
    # the table takes the lanes' decisions and _reduction's for the rest
    record = LocalData(E)
    table = record.traces_up_to(20_000)
    odd = [p for p in primes_up_to(20_000)[1:] if record.inv.delta % p]
    assert [int(table[p]) for p in odd] == [p + 1 - count_points(E, p) for p in odd]


@pytest.mark.parametrize("E", FRESH_CURVES, ids=str)
def test_lanes_match_bsgs_at_sampled_primes_up_to_a_million_across_batches(E, monkeypatch):
    monkeypatch.setattr(reduction, "BSGS_LANES", 7)
    primes = [largest_prime_below(25_000 * k) for k in range(1, 41)]
    good, wrong = lane_oracle(E, primes, monkeypatch)
    assert len(good) > 5 * 7 and wrong == []


def test_lanes_at_the_largest_prime_they_hold():
    # 2^31 - 1: every product of two residues is within a factor 4 of 2^63;
    # in one batch with it, the giant steps of the small primes start at O
    p = 2**31 - 1
    assert is_prime(p)
    for E in [curve_by_label("15a1"), *FRESH_CURVES]:
        inv = LocalData(E).inv
        small = [q for q in primes_up_to(300)[2:] if inv.delta % q]
        a_p, decided = _lane_traces(inv, [*small, p])
        assert decided[-1] and a_p[-1] == _trace_bsgs(inv, p).a_p
        assert decided[:-1].sum() > len(small) / 2
        for q, a, ok in zip(small, a_p.tolist(), decided.tolist()):
            assert not ok or a == q + 1 - count_points(E, q), q


def test_lanes_refuse_a_prime_from_2_to_the_31_on():
    inv = LocalData(curve_by_label("15a1")).inv
    p = 2**31 + 11
    assert is_prime(p)
    with pytest.raises(PrimeTooLargeError):
        _lane_traces(inv, [1009, p])


def test_an_empty_candidate_set_in_a_lane_is_an_internal_error(monkeypatch):
    no_orders = lambda P, a, p, H: (np.zeros(len(p), dtype=np.int64), p + 1, p + 1)
    monkeypatch.setattr(reduction, "_lane_orders", no_orders)
    with pytest.raises(InvariantError):
        _lane_traces(LocalData(curve_by_label("15a1")).inv, [1009, 1013])
    with pytest.raises(InvariantError):
        LocalData(curve_by_label("15a1")).traces_up_to(2000)
