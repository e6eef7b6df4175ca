"""The paper's r = 3 fields at p = 7: every admissible triple with
d_i <= 200, run through check_hypothesis in one process.

census_p7_r3.json pins, for each of search(7, 3, 200)'s triples in order,
the overall verdict and the discriminants whose estimate stayed
inconclusive, or the error that ended the triple.  The table was made at
c3e2548, before twist records and their L-value sums were remembered, with
one fresh `twistgate check-hypothesis --p 7 --d d1,d2,d3 --json` process per
triple.  Here the triples share 21a1's record, so the 320 characters'
44 discriminants are summed once each and read back in later triples.
"""

import json
from pathlib import Path

from test_cli import time_limit

from twistgate import reduction
from twistgate.errors import TermBudgetError
from twistgate.fieldsearch import check_hypothesis, search
from twistgate.lseries import VERDICT_NONZERO

TABLE = Path(__file__).resolve().parent / "census_p7_r3.json"


def census_entry(ds):
    try:
        report = check_hypothesis(7, ds)
    except TermBudgetError:
        return {"ds": list(ds), "outcome": "TermBudgetError", "inconclusive": []}
    inconclusive = [
        c.discriminant for c in report.per_character if c.lvalue.verdict != VERDICT_NONZERO
    ]
    return {"ds": list(ds), "outcome": report.overall, "inconclusive": inconclusive}


def test_census_p7_r3_matches_the_pinned_table(monkeypatch):
    # a fresh 21a1 record: the census starts cold whatever ran before it
    monkeypatch.setattr(reduction, "_TABLE_CURVES", {})
    pinned = json.loads(TABLE.read_text())
    with time_limit(120):
        census = [census_entry(t.ds) for t in search(7, 3, 200)]
    assert census == pinned
    outcomes = [entry["outcome"] for entry in census]
    assert len(census) == 163
    assert outcomes.count("Verified*") == 22
    assert outcomes.count("InconclusiveLValue") == 18
    assert outcomes.count("TermBudgetError") == 123
