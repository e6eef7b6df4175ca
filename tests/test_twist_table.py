"""Twists of the curve-table curves take a_p from their base curve's
per-process table: a_p(X^d) = (d/p) a_p(X) at the odd primes p not dividing
Delta(X^d) Delta(X); 2 and the other primes are decided on the model.

The oracle is a point count on the twisted model itself.  The same oracle
runs again under ``python -O``, together with two injected faults, to show
that the derivation's exact checks are raises, not asserts, and a third
fault in the character closure of the hypothesis pipeline.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from twistgate import fieldsearch, reduction
from twistgate.curve import WeierstrassModel, curve_by_label, invariants, quadratic_twist
from twistgate.errors import InvariantError, TwistDerivationError
from twistgate.fieldsearch import AdmissibleTuple, character_discriminant, check_hypothesis
from twistgate.lseries import dirichlet_coefficients, l_value_at_1
from twistgate.numtheory import jacobi, primes_up_to
from twistgate.reduction import LocalData, count_points

# d = 1 mod 4 keeps every twist minimal at 2 and 3 (d = -1 or 2 would be
# additive at 2, which raises).
ORACLE_D = (1, 13, -7, -11, 1037)


def scale_model(E, u):
    return WeierstrassModel(E.a1 * u, E.a2 * u**2, E.a3 * u**3, E.a4 * u**4, E.a6 * u**6)


def oracle_models():
    """Both table curves twisted by ORACLE_D, and one twist each scaled by
    u = 5, so that the model is not minimal at 5."""
    models = []
    for label, d in (("15a1", 13), ("21a1", -11)):
        X = curve_by_label(label)
        models += [quadratic_twist(X, t) for t in ORACLE_D]
        models.append(scale_model(quadratic_twist(X, d), 5))
    return models


def oracle_mismatches(M=2000):
    """(model, p) wherever dirichlet_coefficients(E, M) differs from
    p + 1 - #E(F_p) counted on E at odd p not dividing Delta(E), or from
    LocalData(E).at(p) at the other primes."""
    bad = []
    for E in oracle_models():
        a = dirichlet_coefficients(E, M)
        data = LocalData(E)
        for p in primes_up_to(M):
            if p != 2 and data.inv.delta % p:
                want = p + 1 - count_points(E, p)
            else:
                want = data.at(p).a_p
            if a[p] != want:
                bad.append((str(E), p))
    return bad


def injected_faults_caught():
    """Names of the two exact checks that raise TwistDerivationError when
    fed a wrong answer."""
    caught = []
    e15, e21 = curve_by_label("15a1"), curve_by_label("21a1")
    try:
        reduction._twist_parameter(invariants(e15), invariants(e21))
    except TwistDerivationError:
        caught.append("twist-parameter")
    # 13 * 7 in place of 13: (91/7) = 0 at the good prime 7
    twist = quadratic_twist(e15, 13)
    recover = reduction._twist_parameter
    reduction._twist_parameter = lambda inv, base: 7 * recover(inv, base)
    try:
        dirichlet_coefficients(twist, 100)
    except TwistDerivationError:
        caught.append("legendre-zero")
    finally:
        reduction._twist_parameter = recover
    return caught


def closure_fault_caught():
    """The name of the character-closure check, if it raises InvariantError
    for a discriminant of 3 mod 4."""
    squarefree_part = fieldsearch.squarefree_part
    fieldsearch.squarefree_part = lambda n: 3 * squarefree_part(n)
    try:
        character_discriminant(AdmissibleTuple(5, (17,)), (-1,))
    except InvariantError:
        return "character-closure"
    finally:
        fieldsearch.squarefree_part = squarefree_part
    return "none"


def test_derived_coefficients_match_point_counts_on_the_twist():
    assert len(oracle_models()) == 12
    assert oracle_mismatches() == []


def test_table_curve_not_minimal_at_a_prime(monkeypatch, tmp_path):
    # 15a1 scaled by 11 is bad at 11, where 15a1 is good with a_11 = -4:
    # a_11 must be read from the model, not from the table
    e15 = curve_by_label("15a1")
    want = dirichlet_coefficients(e15, 300)
    assert want[11] == -4
    path = tmp_path / "curves.tsv"
    path.write_text("s15\t" + "\t".join(map(str, scale_model(e15, 11).ainvs())) + "\n")
    monkeypatch.setenv("TWISTGATE_CURVES", str(path))
    assert dirichlet_coefficients(e15, 300) == want


def test_derivation_checks_survive_optimized_mode():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import test_twist_table as t\n"
        "print(__debug__, len(t.oracle_mismatches(500)), *t.injected_faults_caught(),\n"
        "      t.closure_fault_caught())\n"
    )
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, str(here.parent / "src"), str(here)],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.split() == [
        "False", "0", "twist-parameter", "legendre-zero", "character-closure"
    ]


def test_vectorized_legendre_symbols_match_jacobi():
    ps = np.array(primes_up_to(3000)[1:], dtype=np.int64)
    for d in (1, -1, 2, 13, -7, 1037, 3 * 5 * 7, 10**40 + 7, -(10**25) - 1):
        chi = reduction._legendre(reduction._residues(d, ps), ps)
        assert chi.tolist() == [jacobi(d, int(p)) for p in ps], d


def test_cold_and_warm_runs_agree_in_either_order(monkeypatch):
    # (17, 61) has the character d = 1037, which sums 40 163 terms; (17,)
    # stays at 1 000
    monkeypatch.setattr(reduction, "_TABLE_CURVES", {})
    large = check_hypothesis(5, (17, 61))
    small = check_hypothesis(5, (17,))
    assert check_hypothesis(5, (17, 61)) == large
    monkeypatch.setattr(reduction, "_TABLE_CURVES", {})
    assert check_hypothesis(5, (17,)) == small
    assert check_hypothesis(5, (17, 61)) == large


def _table_state():
    return {
        model: (record._a_p.tolist(), dict(record._decided))
        for model, record in reduction._TABLE_CURVES.items()
    }


def test_twist_counts_points_only_at_2(monkeypatch):
    twist = quadratic_twist(curve_by_label("21a1"), 1037)
    dirichlet_coefficients(twist, 3000)  # the table now reaches 3000
    counted = []
    real = reduction.count_points
    monkeypatch.setattr(
        reduction, "count_points", lambda E, p: counted.append(p) or real(E, p)
    )
    dirichlet_coefficients(twist, 3000)
    assert sorted(set(counted)) == [2]


def test_curve_of_no_table_j_leaves_the_tables_untouched():
    E = WeierstrassModel(0, -1, 1, -29, -30)
    table_js = {invariants(curve_by_label(label)).j for label in ("15a1", "21a1")}
    assert invariants(E).j not in table_js
    for label in ("15a1", "21a1"):
        dirichlet_coefficients(curve_by_label(label), 100)
    before = _table_state()
    l_value_at_1(E)
    assert _table_state() == before


def test_fresh_record_keeps_good_primes_in_its_table_only(monkeypatch):
    E = WeierstrassModel(0, -1, 1, -29, -30)
    data = LocalData(E)
    first = dirichlet_coefficients(data, 2000)
    bad = [p for p in data.delta_primes if p <= 2000]
    assert sorted(data._decided) == sorted({2, *bad})
    counted = []
    real = reduction.count_points
    monkeypatch.setattr(
        reduction, "count_points", lambda E, p: counted.append(p) or real(E, p)
    )
    assert dirichlet_coefficients(data, 1000) == first[:1001]
    assert counted == []
