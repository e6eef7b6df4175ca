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

import math
import tracemalloc

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
    _lane_inverses,
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


def hasse_interval(p):
    """Every N with |p + 1 - N| <= 2 sqrt(p)."""
    H = math.isqrt(4 * p)
    return set(range(p + 1 - H, p + 2 + H))


def undecided_lanes(inv, primes):
    """_lane_traces leaving every lane undecided, with the whole Hasse
    interval as its candidates."""
    stragglers = {p: hasse_interval(p) for p in np.asarray(primes).tolist()}
    return np.zeros(len(primes), dtype=np.int64), stragglers


def spy(monkeypatch, name):
    """The primes each call of reduction.<name>(E, p, ...) is given, in
    order."""
    calls = []
    real = getattr(reduction, name)
    monkeypatch.setattr(reduction, name, lambda E, p, *rest: calls.append(p) or real(E, p, *rest))
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
    monkeypatch.setattr(
        reduction, "_trace_bsgs", lambda inv, p, candidates=None: asked.append(p)
    )
    counted = spy(monkeypatch, "count_points")
    fallback = LocalData(E).traces_up_to(3000)
    good = [p for p in primes_up_to(3000) if p > 2 and LocalData(E).inv.delta % p]
    assert asked == [p for p in good if p >= BSGS_FROM]
    assert counted == good
    assert np.array_equal(fallback, table)


def test_the_lanes_decide_most_of_the_table(monkeypatch):
    reduced = []
    real = reduction._reduction
    monkeypatch.setattr(
        reduction,
        "_reduction",
        lambda E, p, candidates=None: reduced.append((p, candidates)) or real(E, p, candidates),
    )
    record = LocalData(FRESH_CURVES[0])
    record.traces_up_to(20_000)
    lanes = [p for p in primes_up_to(20_000) if p >= 5 and record.inv.delta % p]
    undecided = [(p, c) for p, c in reduced if p >= 5]
    assert 0 < len(undecided) < 0.1 * len(lanes)
    # every straggler reaches _reduction with the candidates its lane left
    assert all(c is not None and len(c) > 1 for _, c in undecided)


def test_a_table_grown_by_a_few_primes_fills_them_in_lanes(monkeypatch):
    E = FRESH_CURVES[0]
    record = LocalData(E)
    record.traces_up_to(2000)
    calls = []
    real = reduction._lane_traces
    monkeypatch.setattr(
        reduction, "_lane_traces", lambda inv, primes: calls.append(list(primes)) or real(inv, primes)
    )
    table = record.traces_up_to(2100)
    new = [p for p in primes_up_to(2100) if p > 2000 and record.inv.delta % p]
    assert calls == [new] and 10 <= len(new) < 64
    assert [int(table[p]) for p in new] == [p + 1 - count_points(E, p) for p in new]
    # no prime lies in (2100, 2110]: the lanes take none and the table grows
    assert len(record.traces_up_to(2110)) == 2111 and calls == [new, []]


@pytest.mark.parametrize("p", [229, 1009])
def test_a_point_count_outside_the_lanes_candidates_is_an_internal_error(p, monkeypatch):
    # a straggler is point-counted below BSGS_FROM and wherever _trace_bsgs
    # does not decide, and its count must lie among the candidates its lane
    # proved
    E = curve_by_label("15a1")
    points = count_points(E, p)
    real = reduction._lane_traces
    monkeypatch.setattr(reduction, "_trace_bsgs", lambda inv, q, candidates=None: None)

    def wrong_candidates(inv, primes):
        a_p, stragglers = real(inv, primes)
        stragglers[p] = hasse_interval(p) - {points}
        return a_p, stragglers

    monkeypatch.setattr(reduction, "_lane_traces", wrong_candidates)
    with pytest.raises(InvariantError):
        LocalData(E).traces_up_to(1100)


def test_forced_fallback_above_the_enumeration_bound_still_refuses(monkeypatch):
    monkeypatch.setattr(reduction, "_trace_bsgs", lambda inv, p, candidates=None: None)
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
    a_p, stragglers = _lane_traces(inv, good)
    decided = [p not in stragglers for p in good]
    sizes = []
    real = reduction._hasse_orders

    def orders(P, a, p, H):
        found = real(P, a, p, H)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(reduction, "_hasse_orders", orders)
    wrong = []
    for p, lane, ok in zip(good, a_p.tolist(), decided):
        sizes.clear()
        data = _trace_bsgs(inv, p)
        if ok != (sizes[0] == 1) or (ok and not lane == data.a_p == p + 1 - count_points(E, p)):
            wrong.append((p, lane if ok else None, data and data.a_p, count_points(E, p), sizes[0]))
    return good, wrong


@pytest.mark.parametrize("name", LANE_CURVES)
def test_lanes_match_bsgs_and_the_point_count_at_every_good_prime(name, monkeypatch):
    E = LANE_CURVES[name]
    _, wrong = lane_oracle(E, [p for p in primes_up_to(20_000) if p >= 5], monkeypatch)
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
        a_p, stragglers = _lane_traces(inv, [*small, p])
        assert p not in stragglers and a_p[-1] == _trace_bsgs(inv, p).a_p
        assert len(stragglers) < len(small) / 2
        for q, a in zip(small, a_p.tolist()):
            points = count_points(E, q)
            assert points in stragglers[q] if q in stragglers else a == q + 1 - points, q


def test_a_full_batch_of_lanes_near_a_million_stays_small_in_memory():
    # the batch matches its giant and baby steps in one comparison of
    # steps x (m + 1) x lanes bytes
    inv = LocalData(curve_by_label("15a1")).inv
    primes = primes_up_to(10**6)[-reduction.BSGS_LANES :]
    assert len(primes) == 1024 and all(inv.delta % p for p in primes)
    tracemalloc.start()
    try:
        _lane_traces(inv, primes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


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


def first_point(inv, p):
    """_trace_bsgs's first point P on E_t, and the values of #E its orders
    in the Hasse interval leave (_hasse_orders, N -> 2p + 2 - N when t is
    not a square mod p)."""
    A, B = -27 * inv.c4 % p, -54 * inv.c6 % p
    x0 = 1 if A == 0 else 0
    while not (t := (x0**3 + A * x0 + B) % p):
        x0 += 1
    P = (t * x0 % p, t * t % p)
    orders = reduction._hasse_orders(P, A * t * t % p, p, math.isqrt(4 * p))
    square = pow(t, (p - 1) // 2, p) == 1
    return P, orders if square else {2 * p + 2 - n for n in orders}


@pytest.mark.parametrize("name", LANE_CURVES)
def test_stragglers_hand_on_the_first_points_orders(name, monkeypatch):
    E = LANE_CURVES[name]
    inv = LocalData(E).inv
    good = [p for p in primes_up_to(20_000) if p >= BSGS_FROM and inv.delta % p]
    _, stragglers = _lane_traces(inv, good)
    assert stragglers
    firsts = []
    real = reduction._hasse_orders
    monkeypatch.setattr(
        reduction, "_hasse_orders", lambda P, a, p, H: firsts.append(P) or real(P, a, p, H)
    )
    wrong = []
    for p, candidates in stragglers.items():
        firsts.clear()
        _trace_bsgs(inv, p)
        P, first = first_point(inv, p)
        if firsts[0] != P or candidates != first or count_points(E, p) not in candidates:
            wrong.append((p, sorted(candidates), sorted(first)))
    assert wrong == []


def test_lane_inverses_match_pow_entry_by_entry():
    primes = np.array([5, 7, 233, 1009, 999_983, 2**31 - 1], dtype=np.int64)
    rng = np.random.default_rng(27)
    z = rng.integers(0, primes, size=(9, len(primes)))
    z[rng.random(z.shape) < 0.2] = 0
    # residues near 2^31 - 1 make every product of two near 2^62
    z[:3, -1] = [2**31 - 2, 2**31 - 3, 2**30 + 1]
    z[:, 0] = 0
    inverses = _lane_inverses(z, primes)
    assert inverses.dtype == np.int64
    for (i, lane), value in np.ndenumerate(z):
        p = int(primes[lane])
        expected = 0 if value == 0 else pow(int(value), -1, p)
        assert inverses[i, lane] == expected, (i, p, int(value))


@pytest.mark.parametrize("E", [curve_by_label("15a1"), FRESH_CURVES[0]], ids=str)
def test_a_straggler_never_repeats_the_lanes_first_point(E, monkeypatch):
    inv = LocalData(E).inv
    good = [p for p in primes_up_to(20_000) if p >= BSGS_FROM and inv.delta % p]
    _, stragglers = _lane_traces(inv, good)
    assert stragglers
    calls = []
    real = reduction._hasse_orders
    monkeypatch.setattr(
        reduction, "_hasse_orders", lambda P, a, p, H: calls.append(p) or real(P, a, p, H)
    )
    for p, candidates in stragglers.items():
        calls.clear()
        scratch = _trace_bsgs(inv, p)
        from_scratch = len(calls)
        calls.clear()
        assert _trace_bsgs(inv, p, candidates) == scratch, p
        assert len(calls) == from_scratch - 1, p


def test_candidates_disjoint_from_the_next_points_orders_are_an_internal_error(monkeypatch):
    # p + 1 is its own image under N -> 2p + 2 - N, so every point's orders
    # are {p + 1} whether or not it lies on the twist
    monkeypatch.setattr(reduction, "_hasse_orders", lambda P, a, p, H: {p + 1})
    inv = LocalData(curve_by_label("15a1")).inv
    assert _trace_bsgs(inv, 1009, {1009, 1010}).points == 1010
    with pytest.raises(InvariantError):
        _trace_bsgs(inv, 1009, {1009, 1011})
