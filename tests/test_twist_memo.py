"""X.twist(d) keeps one record per d on X, and l_value_at_1 keeps the
(value, tail bound, terms summed) of each (terms, t) on the record.  The
curves of the curve table have one record per process, so their twists
and sums last for the process.

The oracle is a bare LocalData of quadratic_twist(model, d): it has no
base, counts its own points and sums its own series.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from twistgate import lseries, reduction
from twistgate.cli import run
from twistgate.curve import curve_by_label, quadratic_twist
from twistgate.errors import ArgumentError, TermBudgetError
from twistgate.fieldsearch import check_hypothesis
from twistgate.lseries import COEFFICIENT_BUDGET, l_value_at_1
from twistgate.reduction import LocalData, local_data

SRC = Path(__file__).resolve().parent.parent / "src"
# the CLI in a fresh process, with twistgate imported from the first argument
CLI_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv.pop(1))\n"
    "from twistgate.cli import main; sys.exit(main())\n"
)

# 17 and 1037 = 17 * 61 are characters of (17, 61); 181 (15a1) and 109
# (21a1) are retried at four times their terms in the hypothesis-sweep pool
MEMO_D = {"15a1": (17, 1037, 181), "21a1": (17, 109)}


@pytest.fixture
def fresh_table(monkeypatch):
    """A new record per table curve for this test only."""
    monkeypatch.setattr(reduction, "_TABLE_CURVES", {})


@pytest.mark.parametrize("label", MEMO_D)
def test_one_twist_record_per_d(fresh_table, label):
    X = local_data(curve_by_label(label))
    assert X.twist(1) is X
    for d in MEMO_D[label]:
        assert X.twist(d) is X.twist(d)
        assert X.twist(d)._base == (X, d)
    assert sorted(X._twists) == sorted({1, *MEMO_D[label]})
    assert local_data(curve_by_label(label)).twist(17) is X.twist(17)


@pytest.mark.parametrize("label, d", [(lb, d) for lb, ds in MEMO_D.items() for d in ds])
def test_remembered_estimates_equal_a_bare_twist(fresh_table, label, d):
    X = local_data(curve_by_label(label))
    bare = LocalData(quadratic_twist(X.model, d))
    M = l_value_at_1(bare).terms_used
    for kwargs in ({}, {"terms": 4 * M}, {"t": 1.2}):
        want = l_value_at_1(LocalData(bare.model), **kwargs)
        cold = l_value_at_1(X.twist(d), **kwargs)
        assert l_value_at_1(X.twist(d), **kwargs) == cold == want, kwargs
    assert sorted(X.twist(d)._sums) == [(M, 1.0), (M, 1.2), (4 * M, 1.0)]


def test_verdict_is_taken_from_each_calls_margin(fresh_table, capsys):
    argv = ["lvalue", "--label", "15a1", "--twist", "17", "--json"]
    margins = ("10", "1e40")
    in_process = []
    for margin in margins:
        run(argv + ["--margin", margin])
        in_process.append(json.loads(capsys.readouterr().out))
    fresh = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", CLI_SCRIPT, str(SRC), *argv, "--margin", margin],
                capture_output=True,
                text=True,
                timeout=120,
            ).stdout
        )
        for margin in margins
    ]
    assert in_process == fresh
    verdicts = [doc["payload"]["verdict"] for doc in in_process]
    assert verdicts == ["NonzeroEvidence", "Inconclusive"]


def test_a_repeated_tuple_sums_nothing(fresh_table, monkeypatch):
    first = check_hypothesis(5, (17, 61))
    calls = []
    real = lseries.dirichlet_coefficients
    monkeypatch.setattr(
        lseries, "dirichlet_coefficients", lambda E, M: calls.append(M) or real(E, M)
    )
    assert check_hypothesis(5, (17, 61)) == first
    assert calls == []


def test_the_retry_reads_the_same_memo(fresh_table):
    # 181 is inconclusive at its default terms and retried at four times them
    report = check_hypothesis(5, (181,))
    _, retried = report.per_character
    assert retried.retried
    twist = local_data(curve_by_label("15a1")).twist(181)
    M = retried.lvalue.terms_used
    assert sorted(twist._sums) == [(M // 4, 1.0), (M, 1.0)]


def test_a_failed_evaluation_leaves_no_entry(monkeypatch):
    record = LocalData(curve_by_label("15a1")).twist(17)
    with pytest.raises(TermBudgetError):
        l_value_at_1(record, terms=COEFFICIENT_BUDGET + 1)
    with pytest.raises(ArgumentError):
        l_value_at_1(record, t=1e-45)

    def interrupted(coeffs, Q, B):
        raise TimeoutError("interrupted")

    monkeypatch.setattr(lseries, "_scaled_sum", interrupted)
    with pytest.raises(TimeoutError):
        l_value_at_1(record)
    assert record._sums == {}
