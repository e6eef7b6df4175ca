"""A twist record made by X.twist(d) takes a_p from its base record's
table: a_p(X^d) = (d/p) a_p(X) at the odd primes p not dividing
Delta(X^d); 2 and the other primes are decided on the twist.

The oracle is a point count on the twisted model itself.  The same oracle
runs again under ``python -O``, together with an injected fault, to show
that the derivation's exact check is a raise, not an assert, and a second
fault in the character closure of the hypothesis pipeline.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twistgate import fieldsearch, reduction
from twistgate.curve import WeierstrassModel, curve_by_label, invariants, quadratic_twist
from twistgate.errors import InvariantError
from twistgate.fieldsearch import AdmissibleTuple, character_discriminant, check_hypothesis
from twistgate.lseries import dirichlet_coefficients, l_value_at_1
from twistgate.numtheory import factor, jacobi, primes_up_to
from twistgate.reduction import (
    LocalData,
    ReductionKind,
    classify,
    conductor,
    count_points,
    local_data,
)
from twistgate.rootnum import twist_parameters

# d = 1 mod 4 keeps every twist minimal at 2 and 3 (d = -1 or 2 would be
# additive at 2, which raises).
ORACLE_D = (1, 13, -7, -11, 1037)
ROOT = Path(__file__).resolve().parents[1]


def scale_model(E, u):
    return WeierstrassModel(E.a1 * u, E.a2 * u**2, E.a3 * u**3, E.a4 * u**4, E.a6 * u**6)


def oracle_models():
    """The records of both table curves twisted by ORACLE_D, and one twist
    each of the curve scaled by u, a base record that is not minimal at u
    (15a1 is good at 11, 21a1 at 5)."""
    models = []
    for label, d, u in (("15a1", 13, 11), ("21a1", -11, 5)):
        X = local_data(curve_by_label(label))
        models += [X.twist(t) for t in ORACLE_D]
        models.append(LocalData(scale_model(X.model, u)).twist(d))
    return models


def oracle_mismatches(M=2000):
    """(model, p) wherever the coefficients of an oracle record differ from
    p + 1 - #E(F_p) counted on its model E at odd p not dividing Delta(E),
    or from LocalData(E).at(p) at the other primes."""
    bad = []
    for record in oracle_models():
        a = dirichlet_coefficients(record, M)
        E = record.model
        data = LocalData(E)
        for p in primes_up_to(M):
            if p != 2 and data.inv.delta % p:
                want = p + 1 - count_points(E, p)
            else:
                want = data.at(p).a_p
            if a[p] != want:
                bad.append((str(E), p))
    return bad


def legendre_fault_caught():
    """The name of the derivation's exact check, if it raises
    InvariantError for a twist record linked to a wrong d."""
    twist = local_data(curve_by_label("15a1")).twist(13)
    base, d = twist._base
    # 13 * 7 in place of 13: (91/7) = 0 at the good prime 7
    object.__setattr__(twist, "_base", (base, 7 * d))
    try:
        dirichlet_coefficients(twist, 100)
    except InvariantError:
        return "legendre-zero"
    return "none"


def closure_fault_caught():
    """The name of the character-closure check, if it raises InvariantError
    for a discriminant of 3 mod 4: fieldsearch reads 51 = 3 * 17 as the
    factorization of 17, from which the characters of (17,) are derived."""
    tup = AdmissibleTuple(5, (17,))
    real = fieldsearch.factor
    fieldsearch.factor = lambda n: real(3 * n if n == 17 else n)
    try:
        character_discriminant(tup, (-1,))
    except InvariantError:
        return "character-closure"
    finally:
        fieldsearch.factor = real
    return "none"


def test_derived_coefficients_match_point_counts_on_the_twist():
    records = oracle_models()
    assert len(records) == 12
    # all but the two twists by 1, which are the table records themselves
    assert sum(r._base is not None for r in records) == 10
    assert oracle_mismatches() == []


def test_twist_of_a_base_not_minimal_at_a_prime():
    # 15a1 scaled by 11 is bad at 11, where 15a1 is good with a_11 = -4:
    # a_11 of its twist must be read from the twist, not from the table
    e15 = local_data(curve_by_label("15a1"))
    base = LocalData(scale_model(e15.model, 11))
    assert 11 in base.delta_primes
    twist = base.twist(13)
    a = dirichlet_coefficients(twist, 300)
    assert base._a_p[11] == 0
    assert a[11] == jacobi(13, 11) * -4
    assert a == dirichlet_coefficients(e15.twist(13), 300)


def test_twist_links_to_its_base():
    X = local_data(curve_by_label("21a1"))
    assert X.twist(1) is X
    twist = X.twist(-11)
    assert twist._base == (X, -11)
    assert twist.model == quadratic_twist(X.model, -11)
    assert twist.twist(1) is twist
    assert twist.twist(13)._base == (twist, 13)
    # the link is made by twist() only
    assert X._base is None and LocalData(twist.model)._base is None
    with pytest.raises(TypeError):
        LocalData(twist.model, _base=(X, -11))


def test_records_compare_and_hash_by_identity():
    # a record is a holder of caches: two records of one model are two
    # caches, equal in what they compute but not to each other
    model = curve_by_label("15a1")
    assert LocalData(model) != LocalData(model)
    assert len({LocalData(model), LocalData(model)}) == 2
    X = LocalData(model)
    assert X.twist(13) is X.twist(13)
    fresh = LocalData(X.twist(13).model)
    assert X.twist(13) != fresh
    a_p, bad = X.twist(13).traces(2000)
    fresh_a_p, fresh_bad = fresh.traces(2000)
    assert np.array_equal(a_p, fresh_a_p) and bad == fresh_bad


@pytest.mark.parametrize("M", [1, 2000])
def test_traces_hold_a_p_at_the_primes_and_name_the_bad_ones(M):
    X = local_data(curve_by_label("15a1"))
    records = [
        X,
        local_data(curve_by_label("21a1")),
        X.twist(13),
        LocalData(WeierstrassModel(0, -1, 1, -29, -30)),
    ]
    primes = primes_up_to(M)
    for record in records:
        # dirichlet_coefficients fills its own array, not the record's
        dirichlet_coefficients(record, M)
        a_p, bad = record.traces(M)
        assert a_p.dtype == np.int64 and len(a_p) == M + 1
        not_prime = np.ones(M + 1, dtype=bool)
        not_prime[primes] = False
        assert not a_p[not_prime].any(), str(record.model)
        assert bad == tuple(
            p for p in primes if classify(record, p).kind is not ReductionKind.GOOD
        )


def test_base_discriminant_divides_the_twist_discriminant():
    # why LocalData.traces reads from at(p) only the primes of Delta(X^d)
    for label in ("15a1", "21a1"):
        X = local_data(curve_by_label(label))
        for d in ORACLE_D:
            assert X.twist(d).inv.delta % X.inv.delta == 0


def pool_twists(label):
    """The d of the benchmark pools' twists of label: its sweeps to 2000 and
    its root-number --twist operations."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ds = set(twist_parameters(2000, conductor(curve_by_label(label))))
    for op in reference["workloads"]["exact-mix"]["pool"]:
        argv = op["argv"]
        if "--twist" in argv and argv[argv.index("--label") + 1] == label:
            ds.add(int(argv[argv.index("--twist") + 1]))
    return sorted(ds)


@pytest.mark.parametrize("label", ["15a1", "21a1"])
def test_twist_delta_primes_match_factor(label):
    # factor is the oracle of the candidate set; 7 and 3 take
    # quadratic_twist's fallback, u = 6 and u = 2, and 2 divides Delta(X^7)
    # but not Delta(X)
    X = LocalData(curve_by_label(label))
    ds = pool_twists(label)
    assert len(ds) > 250
    for d in (*ORACLE_D, 7, 3, *ds):
        twist = X.twist(d)
        if twist is not X:
            assert "delta_primes" in vars(twist), d  # set by twist()
        assert twist.delta_primes == factor(abs(twist.inv.delta)).primes(), d
    inv = X.twist(7).inv
    assert inv.c4 == 6**4 * 7**2 * X.inv.c4 and 2 in X.twist(7).delta_primes
    assert 2 not in X.delta_primes


def test_a_twist_delta_with_an_uncertified_prime_is_an_internal_error():
    # a base record that has lost the prime 5 of Delta(15a1) leaves 5 in the
    # cofactor of Delta(X^13)
    X = LocalData(curve_by_label("15a1"))
    object.__setattr__(X, "delta_primes", (3,))
    with pytest.raises(InvariantError, match="prime factor outside"):
        X.twist(13)


def test_derivation_checks_survive_optimized_mode():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import test_twist_table as t\n"
        "print(__debug__, len(t.oracle_mismatches(500)), t.legendre_fault_caught(),\n"
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
    assert out.stdout.split() == ["False", "0", "legendre-zero", "character-closure"]


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
    # a fresh 21a1 record, so that its twist by 1037 is new and decides its
    # own primes under the spy
    monkeypatch.setattr(reduction, "_TABLE_CURVES", {})
    X = local_data(curve_by_label("21a1"))
    dirichlet_coefficients(X.twist(13), 3000)  # the table now reaches 3000
    assert 1037 not in X._twists
    counted = []
    real = reduction.count_points
    monkeypatch.setattr(
        reduction, "count_points", lambda E, p: counted.append(p) or real(E, p)
    )
    dirichlet_coefficients(X.twist(1037), 3000)
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
