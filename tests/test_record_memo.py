"""A record decides its conductor and global root number once and remembers
them: LocalData.conductor, and _root_number, which global_root_number alone
writes once the value is complete.  The formula sign of each twist reads
the base curve's remembered N and w, so a check repeated in one process
computes no local factor again, while a raise leaves nothing behind.
"""

import json

import pytest

from twistgate import fieldsearch, numtheory, reduction, rootnum
from twistgate.cli import run
from twistgate.curve import WeierstrassModel, curve_by_label
from twistgate.errors import (
    InvariantError,
    UnsupportedPlaceError,
    UnsupportedReductionAtTwoError,
    UnsupportedReductionError,
)
from twistgate.fieldsearch import check_hypothesis, search
from twistgate.reduction import LocalData, conductor, local_data
from twistgate.rootnum import global_root_number, twist_root_number_formula, twist_sweep

# 37a1: its twist by 21 has additive, potentially good reduction at 3
E37 = WeierstrassModel(0, 0, 1, -1, 0)


@pytest.fixture
def fresh_table(monkeypatch):
    """A new record per table curve for this test only."""
    monkeypatch.setattr(reduction, "_TABLE_CURVES", {})


@pytest.fixture
def local_factors(monkeypatch):
    """The places at which rootnum._local_factor is called."""
    places = []
    real = rootnum._local_factor
    monkeypatch.setattr(
        rootnum, "_local_factor", lambda data, place: places.append(place) or real(data, place)
    )
    return places


def test_a_repeated_hypothesis_check_decides_no_local_factor(fresh_table, local_factors):
    first = check_hypothesis(5, (17, 61))
    assert len(local_factors) > 0
    local_factors.clear()
    assert check_hypothesis(5, (17, 61)) == first
    assert local_factors == []


def test_a_repeated_sweep_decides_no_local_factor(fresh_table, local_factors):
    first = twist_sweep(curve_by_label("15a1"), 200)
    assert first[0] == 15 and len(first[1]) == 24
    assert len(local_factors) > 0
    local_factors.clear()
    assert twist_sweep(curve_by_label("15a1"), 200) == first
    assert local_factors == []


def test_a_repeated_twisted_root_number_decides_no_local_factor(
    fresh_table, local_factors, capsys
):
    argv = ["root-number", "--label", "15a1", "--twist", "13", "--json"]
    run(argv)
    first = json.loads(capsys.readouterr().out)
    assert len(local_factors) > 0
    local_factors.clear()
    run(argv)
    assert json.loads(capsys.readouterr().out) == first
    assert local_factors == []


@pytest.fixture
def trial_divisions(monkeypatch):
    """The values numtheory.factor divides out, which are the ones it does
    not keep or has not met before."""
    calls = []
    real = numtheory._trial_division
    monkeypatch.setattr(numtheory, "_trial_division", lambda n: calls.append(n) or real(n))
    return calls


def test_warm_operations_factor_only_what_they_were_given(fresh_table, trial_divisions, capsys):
    # factor keeps each factorization of n <= 10^4: a warm search, sweep,
    # hypothesis check and twisted root number divide nothing out
    for run_op in (
        lambda: search(7, 2, 600),
        lambda: twist_sweep(curve_by_label("15a1"), 2000),
        lambda: run(["root-number", "--label", "15a1", "--twist", "13", "--json"]),
        lambda: check_hypothesis(5, (17, 61)),
    ):
        first = run_op()
        trial_divisions.clear()
        assert run_op() == first
        assert trial_divisions == [], trial_divisions
    assert len(first.per_character) == 4


def test_n_and_w_are_read_from_the_record(fresh_table, monkeypatch):
    X = local_data(curve_by_label("15a1"))
    assert conductor(X) == 15
    assert vars(X)["conductor"] == 15
    assert global_root_number(X).value == 1

    def refused(self, p):
        raise AssertionError(f"reduction data read again at {p}")

    monkeypatch.setattr(LocalData, "at", refused)
    assert conductor(X) == conductor(curve_by_label("15a1")) == 15
    assert global_root_number(X).value == global_root_number(curve_by_label("15a1")).value == 1
    assert twist_root_number_formula(X, 13) == -1


def test_the_root_number_is_remembered_on_the_record():
    record = LocalData(curve_by_label("21a1"))
    assert record._root_number is None
    rn = global_root_number(record)
    assert record._root_number is rn
    assert global_root_number(record) is rn
    # 21a1's shared table record decides the same value on its own
    assert global_root_number(record.model) == rn


def test_an_unsupported_place_leaves_nothing_remembered():
    twist = LocalData(E37).twist(21)
    for _ in range(2):
        with pytest.raises(UnsupportedPlaceError, match="at 3"):
            global_root_number(twist)
        assert twist._root_number is None
    for _ in range(2):
        with pytest.raises(UnsupportedReductionError, match="additive reduction at 3"):
            conductor(twist)
        assert "conductor" not in vars(twist)


def test_an_unsupported_reduction_at_2_leaves_nothing_remembered():
    record = LocalData(WeierstrassModel(0, 0, 0, -1, 0))  # additive at 2
    for _ in range(2):
        with pytest.raises(UnsupportedReductionAtTwoError):
            conductor(record)
        with pytest.raises(UnsupportedReductionAtTwoError):
            global_root_number(record)
    assert "conductor" not in vars(record)
    assert record._root_number is None


def test_an_interrupted_ledger_leaves_nothing_remembered(monkeypatch):
    record = LocalData(curve_by_label("15a1"))
    real = rootnum._local_factor

    def interrupted(data, place):
        if place == 5:
            raise TimeoutError("interrupted")
        return real(data, place)

    monkeypatch.setattr(rootnum, "_local_factor", interrupted)
    with pytest.raises(TimeoutError):
        global_root_number(record)
    assert record._root_number is None
    monkeypatch.setattr(rootnum, "_local_factor", real)
    assert global_root_number(record).local_factors == (
        ("inf", -1, "archimedean"),
        (3, 1, "nonsplit-mult"),
        (5, -1, "split-mult"),
    )


def test_a_broken_formula_is_still_caught_once_remembered(monkeypatch):
    # warm the records first: the remembered N and w must hide no fault (the
    # sweep's counterpart is in test_rootnum and test_cli)
    check_hypothesis(5, (17, 61))
    real = twist_root_number_formula
    monkeypatch.setattr(
        fieldsearch, "twist_root_number_formula", lambda E, d: -real(E, d)
    )
    with pytest.raises(InvariantError, match="disagrees"):
        check_hypothesis(5, (17, 61))
