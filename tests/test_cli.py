import contextlib
import decimal
import json
import math
import random
import signal
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from mpmath import mp, mpf

from twistgate import (
    curve_by_label,
    descent,
    fieldsearch,
    l_value_at_1,
    quadratic_twist,
    reduction,
    rootnum,
)
from twistgate.cli import (
    STATUS_CHECK_FAILED,
    STATUS_INTERNAL,
    STATUS_OK,
    STATUS_UNSUPPORTED,
    _significant,
    build_parser,
    main,
    run,
)
from twistgate.curve import invariants

RESULT_SCHEMA = {
    "type": "object",
    "required": ["status", "command", "payload"],
    "properties": {
        "status": {"enum": ["ok", "check-failed", "unsupported-input"]},
        "command": {"type": "string"},
        "payload": {"type": "object"},
    },
}


# a good prime of 15a1 above POINT_COUNT_BOUND, and #15a1(F_p) there
AUX_ABOVE_THE_BOUND = 1000003
POINTS_ABOVE_THE_BOUND = 998280
# a good prime of 15a1 above reduction.BSGS_BOUND = 10^18
PRIME_ABOVE_THE_BSGS_BOUND = 10**18 + 3


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this (the main) thread after whole seconds, so
    that a call that hangs fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_json(capsys, argv):
    result = run(argv + ["--json"])
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    try:
        import jsonschema

        jsonschema.validate(document, RESULT_SCHEMA)
    except ImportError:
        assert set(RESULT_SCHEMA["required"]) <= set(document)
    return result, document


class TestCurveInfo:
    def test_text_output(self, capsys):
        result = run(["curve-info", "--label", "15a1"])
        out = capsys.readouterr().out
        assert result.status == STATUS_OK
        assert result.exit_code == 0
        assert "Delta = 50625" in out
        assert "111284641/50625" in out

    def test_json_roundtrip(self, capsys):
        result, doc = run_json(capsys, ["curve-info", "--label", "15a1"])
        assert result.status == STATUS_OK
        assert doc["payload"]["delta"] == 50625
        assert doc["payload"]["j"] == "111284641/50625"
        assert doc["payload"]["delta_factored"] == "3^4 * 5^4"

    def test_explicit_coefficients(self, capsys):
        result, doc = run_json(capsys, ["curve-info", "--curve", "1,0,0,-4,-1"])
        assert doc["payload"]["delta"] == 3969

    def test_unreadable_curve_table(self, capsys, monkeypatch, tmp_path):
        # every operation reads the table, to share its curves' local data
        monkeypatch.setenv("TWISTGATE_CURVES", str(tmp_path / "missing.tsv"))
        result, doc = run_json(capsys, ["root-number", "--curve", "1,0,0,-4,-1"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert "missing.tsv" in doc["payload"]["error"]

    def test_unknown_label(self, capsys):
        result = run(["curve-info", "--label", "99z9"])
        assert result.status == STATUS_UNSUPPORTED
        assert result.exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_error_payload_names_the_error_type(self, capsys):
        result, doc = run_json(capsys, ["curve-info", "--label", "99z9"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "CurveTableError"

    def test_a_cofactor_below_psi_13_is_proven_prime(self, capsys):
        # Delta = -2^4 * 2700000001620000000247, a cofactor above 3e18
        result, doc = run_json(capsys, ["curve-info", "--curve", "0,0,0,1,10000000003"])
        assert (result.exit_code, doc["status"]) == (0, STATUS_OK)
        assert doc["payload"]["delta_factored"] == "-2^4 * 2700000001620000000247"


class TestReduction:
    def test_split_at_5(self, capsys):
        result, doc = run_json(capsys, ["reduction", "--p", "5", "--label", "15a1"])
        assert doc["payload"]["kind"] == "mult-split"
        assert doc["payload"]["points"] == 5

    def test_p2_answers(self, capsys):
        result, doc = run_json(capsys, ["reduction", "--p", "2", "--label", "15a1"])
        assert (result.exit_code, doc["status"]) == (0, STATUS_OK)
        payload = doc["payload"]
        assert (payload["kind"], payload["points"], payload["a_p"]) == ("good", 4, -1)
        _, doc = run_json(capsys, ["reduction", "--p", "2", "--curve", "1,0,0,0,2"])
        assert doc["payload"]["kind"] == "mult-split"
        result, doc = run_json(capsys, ["reduction", "--p", "2", "--curve", "0,0,0,-1,0"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "UnsupportedReductionAtTwoError"

    def test_composite_p_is_unsupported_input(self, capsys):
        result, doc = run_json(capsys, ["reduction", "--p", "4", "--label", "15a1"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert "prime" in doc["payload"]["error"]

    # 2^31 + 11 is above the range of the a_p lanes, where _trace_bsgs alone
    # decides
    @pytest.mark.parametrize(
        "p, a_p", [(AUX_ABOVE_THE_BOUND, 1724), (2**31 + 11, -53700)], ids=["1000003", "2^31+11"]
    )
    def test_a_good_prime_above_the_enumeration_bound(self, capsys, p, a_p):
        # baby-step giant-step decides; a point count would refuse p > 10^6
        result, doc = run_json(capsys, ["reduction", "--label", "15a1", "--p", str(p)])
        assert (result.exit_code, doc["status"]) == (0, STATUS_OK)
        payload = doc["payload"]
        assert payload["kind"] == "good"
        assert payload["a_p"] ** 2 <= 4 * p
        assert (payload["points"], payload["a_p"]) == (p + 1 - a_p, a_p)
        # checked apart from baby-step giant-step: #E kills 20 random points
        # of 15a1's short form y^2 = x^3 + A x + B
        n = payload["points"]
        inv = invariants(curve_by_label("15a1"))
        A, B = -27 * inv.c4 % p, -54 * inv.c6 % p
        assert p % 4 == 3
        rng = random.Random(5)
        points = 0
        while points < 20:
            x = rng.randrange(p)
            f = (x * x * x + A * x + B) % p
            if pow(f, (p - 1) // 2, p) == 1:
                y = pow(f, (p + 1) // 4, p)
                assert y * y % p == f
                assert reduction._ec_mul(n, (x, y), A, p) is None, x
                points += 1

    def test_a_good_prime_above_the_bsgs_bound_is_unsupported_input(self, capsys):
        argv = ["reduction", "--label", "15a1", "--p", str(PRIME_ABOVE_THE_BSGS_BOUND)]
        with time_limit(3):
            result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "PrimeTooLargeError"


class TestRootNumber:
    def test_ledger(self, capsys):
        result, doc = run_json(capsys, ["root-number", "--label", "15a1"])
        assert doc["payload"]["value"] == 1
        places = {f["place"]: (f["sign"], f["case"]) for f in doc["payload"]["local_factors"]}
        assert places["inf"] == (-1, "archimedean")
        assert places["3"] == (1, "nonsplit-mult")
        assert places["5"] == (-1, "split-mult")

    def test_twist_13_prints_minus_one(self, capsys):
        result = run(["root-number", "--label", "15a1", "--twist", "13"])
        out = capsys.readouterr().out
        assert result.status == STATUS_OK
        assert "-1" in out
        assert "agrees" in out

    def test_invalid_twist_rejected(self, capsys):
        result = run(["root-number", "--label", "15a1", "--twist", "7"])
        assert result.exit_code == 2

    def test_twist_reads_the_formula_terms_from_the_curve_record(self, capsys):
        # 37a1 has w = -1, so the printed (5/37) = -1 is not the formula sign
        _, doc = run_json(capsys, ["root-number", "--curve", "0,0,1,-1,0", "--twist", "5"])
        payload = dict(doc["payload"], curve=None)
        assert payload == {
            "curve": None,
            "twist": 5,
            "conductor": 37,
            "jacobi_symbol": -1,
            "base_root_number": -1,
            "formula_sign": 1,
            "direct_sign": 1,
            "agree": True,
        }
        run(["root-number", "--curve", "0,0,1,-1,0", "--twist", "5"])
        assert "w(E^(5)) = (5/37) * w(E) = -1 * -1 = +1" in capsys.readouterr().out

    def test_additive_at_2_names_its_own_error_type(self, capsys):
        result, doc = run_json(capsys, ["root-number", "--curve", "0,0,0,-1,0"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "UnsupportedReductionAtTwoError"


@pytest.mark.parametrize("d", [-11, -1, 2, 3, 13, 17])
@pytest.mark.parametrize("label", ["15a1", "21a1"])
def test_twist_option_matches_the_bare_twisted_model(capsys, label, d):
    # d = -1, 2 and 3 take quadratic_twist's short-form fallback
    bare = ",".join(map(str, quadratic_twist(curve_by_label(label), d).ainvs()))
    for p in (3, 5, 7, 11, 13, 17):
        _, twisted = run_json(capsys, ["reduction", "--label", label, f"--twist={d}", "--p", str(p)])
        _, direct = run_json(capsys, ["reduction", "--curve", bare, "--p", str(p)])
        twisted["payload"].pop("curve", None)
        direct["payload"].pop("curve", None)
        assert twisted == direct, p
    _, twisted = run_json(capsys, ["root-number", "--label", label, f"--twist={d}"])
    _, direct = run_json(capsys, ["root-number", "--curve", bare])
    if d in (13, 17):
        assert twisted["status"] == STATUS_OK
        assert twisted["payload"]["direct_sign"] == direct["payload"]["value"]
    else:
        # the twist formula rejects d before the twist is built
        assert twisted["payload"]["error_type"] == "HypothesisViolationError"


class TestTwistRootCheck:
    def test_small_sweep(self, capsys):
        result, doc = run_json(capsys, ["twist-root-check", "--dmax", "60", "--label", "15a1"])
        assert result.status == STATUS_OK
        assert doc["payload"]["mismatches"] == []
        # of the d = 1 mod 4 up to 60, those prime to 15 and squarefree
        assert doc["payload"]["instances"] == len([1, 13, 17, 29, 37, 41, 53])

    @pytest.mark.parametrize("dmax", ["0", "-5"])
    def test_an_empty_sweep_is_refused(self, capsys, dmax):
        result, doc = run_json(capsys, ["twist-root-check", "--label", "15a1", "--dmax", dmax])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "ArgumentError"
        assert "at least 1" in doc["payload"]["error"]

    def test_a_wrong_formula_record_is_caught_by_the_direct_path(self, capsys, monkeypatch):
        # the direct root number reads the twist's own model, not the formula
        formula = rootnum.twist_root_number_formula
        monkeypatch.setattr(
            rootnum,
            "twist_root_number_formula",
            lambda E, d: -formula(E, d),
        )
        result, doc = run_json(capsys, ["twist-root-check", "--label", "15a1", "--dmax", "60"])
        assert (result.exit_code, doc["status"]) == (1, STATUS_CHECK_FAILED)
        assert len(doc["payload"]["mismatches"]) == doc["payload"]["instances"] == 7

    def test_the_twist_that_stops_a_sweep_is_named(self, capsys):
        # 37a1: X^21 has additive, potentially good reduction at 3
        argv = ["twist-root-check", "--curve", "0,0,1,-1,0", "--dmax", "21"]
        result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "UnsupportedPlaceError"
        assert doc["payload"]["error"].startswith("d = 21: ")


class TestLValue:
    def test_15a1(self, capsys):
        result, doc = run_json(capsys, ["lvalue", "--label", "15a1"])
        assert doc["payload"]["verdict"] == "NonzeroEvidence"
        assert doc["payload"]["value"].startswith("0.350150760583")
        assert "evidence" in doc["payload"]["note"]

    def test_twist_and_terms(self, capsys):
        result, doc = run_json(
            capsys, ["lvalue", "--label", "15a1", "--twist", "17", "--terms", "1500"]
        )
        assert doc["payload"]["conductor"] == 4335
        assert doc["payload"]["terms_used"] == 1500

    def test_twist_option_and_twisted_coefficients_agree(self, capsys):
        # the first reads 15a1's a_p table, the second counts its own points
        twist = quadratic_twist(curve_by_label("15a1"), 17)
        coefficients = ",".join(map(str, twist.ainvs()))
        _, derived = run_json(capsys, ["lvalue", "--label", "15a1", "--twist", "17"])
        _, counted = run_json(capsys, ["lvalue", "--curve", coefficients])
        assert derived["payload"].pop("curve") == "15a1 twisted by 17"
        assert counted["payload"].pop("curve") == str(twist)
        assert derived == counted

    def test_a_fresh_series_of_338003_terms_ends_in_seconds(self, capsys):
        # its a_p table reaches 338 003: one point count per good prime took
        # minutes there, one baby-step giant-step takes seconds
        argv = ["lvalue", "--curve=-11,1,-9,2,-11", "--twist=-11"]
        with time_limit(30):
            result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (0, STATUS_OK)
        assert doc["payload"]["terms_used"] == 338_003
        assert doc["payload"]["value"] == "5.6636275927823942785587512351"

    def test_zero_terms_is_unsupported_input(self, capsys):
        result, doc = run_json(capsys, ["lvalue", "--label", "15a1", "--terms", "0"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "ArgumentError"
        assert "terms" in doc["payload"]["error"]

    @pytest.mark.parametrize("margin", ["-1", "0", "0.5", "nan"])
    def test_margin_below_one_is_unsupported_input(self, capsys, margin):
        # 15a1 twisted by 13 has root number -1: L(E,1) = 0
        result, doc = run_json(
            capsys, ["lvalue", "--label", "15a1", "--twist", "13", "--margin", margin]
        )
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert "margin" in doc["payload"]["error"]

    def test_forced_zero_sums_no_terms(self, capsys):
        result, doc = run_json(capsys, ["lvalue", "--label", "15a1", "--twist", "13"])
        payload = doc["payload"]
        assert (payload["root_number"], payload["verdict"]) == (-1, "Inconclusive")
        assert (payload["terms_used"], payload["terms_summed"]) == (1000, 0)

    def test_printed_digits_are_true_digits(self, capsys):
        result, doc = run_json(capsys, ["lvalue", "--label", "15a1"])
        exact = l_value_at_1(curve_by_label("15a1")).value
        with mp.workdps(50):
            assert abs(mpf(doc["payload"]["value"]) - exact) < mpf(10) ** -28


class TestSerreCheck:
    def test_pass(self, capsys):
        result, doc = run_json(capsys, ["serre-check", "--ell", "5", "--label", "15a1"])
        assert result.status == STATUS_OK
        assert doc["payload"]["overall"] is True
        assert doc["payload"]["aux_prime"]["q"] == 7
        assert doc["payload"]["aux_prime"]["points"] == 8

    def test_failing_curve_exits_1(self, capsys):
        result = run(["serre-check", "--ell", "3", "--curve", "1,0,0,0,8"])
        assert result.status == STATUS_CHECK_FAILED
        assert result.exit_code == 1

    @pytest.mark.parametrize("curve", ["0,0,0,-1,0", "0,0,1,0,0"], ids=["j=1728", "j=0"])
    def test_integral_j_is_not_verified(self, capsys, curve):
        # CM curves: j has no pole, so check (a) has no prime to run on,
        # and a CM curve's mod-ell image is never surjective
        result, doc = run_json(capsys, ["serre-check", "--ell", "5", "--curve", curve])
        assert (result.exit_code, doc["status"]) == (1, STATUS_CHECK_FAILED)
        assert doc["payload"]["j_exponent_checks"] == []
        assert doc["payload"]["aux_prime"]["ok"] is True
        assert doc["payload"]["statement"] == "criterion hypotheses NOT verified"

    def test_ell_2_unsupported(self, capsys):
        result = run(["serre-check", "--ell", "2", "--label", "15a1"])
        assert result.exit_code == 2

    def test_strong_pseudoprime_to_twelve_bases_is_not_a_prime_ell(self, capsys):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to 2..37
        psi12 = 318665857834031151167461
        result, doc = run_json(capsys, ["serre-check", "--label", "15a1", "--ell", str(psi12)])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "UnsupportedPrimeError"

    def test_aux_count_uses_the_minimal_model(self, capsys):
        # 15a1 scaled by u = 11 is not minimal at 11, but its minimal model
        # has good reduction there; the count must be that of 15a1 over F_11
        argv = ["serre-check", "--ell", "3", "--aux", "11"]
        _, scaled = run_json(capsys, argv + ["--curve", "11,121,1331,-146410,-17715610"])
        _, table = run_json(capsys, argv + ["--label", "15a1"])
        assert scaled["status"] == table["status"] == STATUS_OK
        assert scaled["payload"]["aux_prime"] == table["payload"]["aux_prime"]
        assert table["payload"]["aux_prime"]["points"] == 16

    def test_aux_above_the_enumeration_bound(self, capsys):
        argv = ["serre-check", "--label", "15a1", "--ell", "7", "--aux", str(AUX_ABOVE_THE_BOUND)]
        result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (0, STATUS_OK)
        assert doc["payload"]["aux_prime"]["points"] == POINTS_ABOVE_THE_BOUND

    def test_aux_above_the_bsgs_bound_is_unsupported_input(self, capsys):
        aux = str(PRIME_ABOVE_THE_BSGS_BOUND)
        argv = ["serre-check", "--label", "15a1", "--ell", "7", "--aux", aux]
        with time_limit(3):
            result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "PrimeTooLargeError"


class TestSearch:
    def test_search(self, capsys):
        result, doc = run_json(capsys, ["search", "--p", "5", "--r", "2", "--bound", "100"])
        assert [17, 61] in doc["payload"]["tuples"]
        assert doc["payload"]["count"] == 6

    def test_bound_beyond_the_limit_is_unsupported_input(self, capsys):
        result, doc = run_json(capsys, ["search", "--p", "5", "--r", "1", "--bound", "20000"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "ArgumentError"
        assert "bound" in doc["payload"]["error"]


class TestWorkBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["twist-root-check", "--label", "15a1", "--dmax", "1000000"],
            # 622 candidates below 10 000 give C(622, 3), about 4 * 10^7, triples
            ["search", "--p", "5", "--r", "3", "--bound", "10000"],
        ],
        ids=["twist-root-check", "search"],
    )
    def test_a_former_hang_is_unsupported_input_at_once(self, capsys, argv):
        start = time.perf_counter()
        with time_limit(20):
            result, doc = run_json(capsys, argv)
        assert time.perf_counter() - start < 3.0
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "WorkBoundError"


class TestCheckHypothesis:
    def test_verified(self, capsys):
        result, doc = run_json(capsys, ["check-hypothesis", "--p", "5", "--d", "17"])
        assert result.status == STATUS_OK
        assert result.exit_code == 0
        assert doc["payload"]["overall"] == "Verified*"
        assert len(doc["payload"]["characters"]) == 2

    @pytest.mark.parametrize("d", ["17", "13"])
    def test_margin_below_one_is_unsupported_input(self, capsys, d):
        # 13 is not admissible: the margin is rejected before that is found
        result, doc = run_json(
            capsys, ["check-hypothesis", "--p", "5", "--d", d, "--margin", "-1"]
        )
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)

    def test_non_integer_d_is_unsupported_input(self, capsys):
        result, doc = run_json(capsys, ["check-hypothesis", "--p", "5", "--d", "abc"])
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert "--d" in doc["payload"]["error"]

    def test_an_r3_field_at_p7_ends_in_seconds(self, capsys):
        # Q(sqrt 5, sqrt 17, sqrt 37): the d = 3145 character's L-value is
        # retried at 4 x 144 123 terms, reading 21a1's a_p table to 576 492,
        # and stays inconclusive
        argv = ["check-hypothesis", "--p", "7", "--d", "5,17,37"]
        with time_limit(30):
            result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (1, STATUS_CHECK_FAILED)
        assert doc["payload"]["overall"] == "InconclusiveLValue"
        characters = doc["payload"]["characters"]
        assert len(characters) == 8
        retried = [(c["discriminant"], c["terms_used"]) for c in characters if c["retried"]]
        assert retried == [(3145, 576_492)]

    def test_an_r3_field_at_p7_is_verified(self, capsys):
        # Q(sqrt 5, sqrt 17, sqrt 41): every character's L-value is nonzero
        # evidence at its first series length
        argv = ["check-hypothesis", "--p", "7", "--d", "5,17,41"]
        with time_limit(30):
            result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (0, STATUS_OK)
        assert doc["payload"]["overall"] == "Verified*"
        characters = doc["payload"]["characters"]
        assert len(characters) == 8
        assert not any(c["retried"] for c in characters)
        assert {c["verdict"] for c in characters} == {"NonzeroEvidence"}

    def test_not_admissible_exits_1(self, capsys):
        result = run(["check-hypothesis", "--p", "5", "--d", "13"])
        assert result.status == STATUS_CHECK_FAILED
        assert result.exit_code == 1

    def test_the_empty_tuple_names_its_failure(self, capsys):
        result = run(["check-hypothesis", "--p", "5", "--d", ","])
        assert result.exit_code == 1
        assert "not admissible: empty (no d_i given)" in capsys.readouterr().out


class TestDescentCheck:
    def test_lemma_sum(self, capsys):
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "sum", "--k", "2", "--n", "1", "--r", "1"]
        )
        assert result.status == STATUS_OK
        assert doc["payload"]["all_passed"] is True
        assert doc["payload"]["modules_checked"] == 2

    def test_lemma_tmw(self, capsys):
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "tmw", "--d", "17", "--height", "50"]
        )
        assert result.status == STATUS_OK
        assert doc["payload"]["points_found"] >= 4
        assert doc["payload"]["all_passed"] is True

    def test_lemma_sum_failure_is_check_failed(self, capsys, monkeypatch):
        # two copies of the trivial character cannot sum to 2 m
        monkeypatch.setattr(descent, "characters", lambda r: [(1,) * r] * 2**r)
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "sum", "--k", "2", "--n", "1", "--r", "1"]
        )
        assert (result.exit_code, doc["status"]) == (1, STATUS_CHECK_FAILED)
        assert doc["payload"]["all_passed"] is False
        assert "m=(1,): components sum to (0,), expected (2,)" in doc["payload"]["failures"]

    def test_negative_height_is_unsupported_input(self, capsys):
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "tmw", "--d", "17", "--height", "-1"]
        )
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "ArgumentError"
        assert "height" in doc["payload"]["error"]

    def test_zero_rank_module_is_unsupported_input(self, capsys):
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "sum", "--k", "2", "--n", "0", "--r", "1"]
        )
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)

    def test_missing_flags(self, capsys):
        result = run(["descent-check", "--lemma", "sum"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("r", ["3", "8"])
    def test_too_much_work_is_unsupported_input_at_once(self, capsys, r):
        start = time.perf_counter()
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "sum", "--k", "3", "--n", "2", "--r", r]
        )
        assert time.perf_counter() - start < 3.0
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "LemmaSumSizeError"

    def test_module_above_the_size_bound_is_unsupported_input(self, capsys):
        result, doc = run_json(
            capsys, ["descent-check", "--lemma", "sum", "--k", "17", "--n", "1", "--r", "0"]
        )
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert "65536 elements" in doc["payload"]["error"]


class TestInternalError:
    def test_invariant_error_is_an_internal_error(self, capsys, monkeypatch):
        # the fault test_fieldsearch injects: the formula disagrees with the
        # local product
        formula = fieldsearch.twist_root_number_formula
        monkeypatch.setattr(
            fieldsearch,
            "twist_root_number_formula",
            lambda X, d: -formula(X, d),
        )
        result = run(["check-hypothesis", "--p", "5", "--d", "17", "--json"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # exactly one document
        assert (result.status, result.exit_code) == (STATUS_INTERNAL, 3)
        assert doc["status"] == "internal-error"
        assert doc["payload"]["error_type"] == "InvariantError"
        assert "disagrees" in doc["payload"]["error"]
        assert "Traceback" not in captured.err
        assert main(["check-hypothesis", "--p", "5", "--d", "17"]) == 3

    def test_a_failed_record_self_check_is_an_internal_error(self, capsys, monkeypatch):
        # 40 points too many at p = 7 breaks the Hasse bound of ReductionData
        count_points = reduction.count_points
        monkeypatch.setattr(
            reduction, "count_points", lambda E, p: count_points(E, p) + 40 * (p == 7)
        )
        result = run(["reduction", "--label", "15a1", "--p", "7", "--json"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # exactly one document
        assert (result.status, result.exit_code) == (STATUS_INTERNAL, 3)
        assert doc["status"] == "internal-error"
        assert doc["payload"]["error_type"] == "InvariantError"
        assert "Hasse bound violated" in doc["payload"]["error"]
        assert "Traceback" not in captured.err

    def test_a_twist_linked_to_a_wrong_d_is_an_internal_error(self, capsys, monkeypatch):
        # 17 * 7 in place of 17: (119/7) = 0 at the good prime 7.  The twist
        # by 17 has root number +1, so its series needs the derived a_p.
        # 15a1's record keeps its twists for the process: a fresh one keeps
        # the corrupted twist from later tests, and sums remembered by
        # earlier tests from this one.
        monkeypatch.setattr(reduction, "_TABLE_CURVES", {})
        twist = reduction.LocalData.twist

        def wrong_d(record, d):
            made = twist(record, d)
            base, d = made._base
            object.__setattr__(made, "_base", (base, 7 * d))
            return made

        monkeypatch.setattr(reduction.LocalData, "twist", wrong_d)
        result = run(["lvalue", "--label", "15a1", "--twist", "17", "--json"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # exactly one document
        assert (result.status, result.exit_code) == (STATUS_INTERNAL, 3)
        assert doc["status"] == "internal-error"
        assert doc["payload"]["error_type"] == "InvariantError"
        assert "(119/p) = 0" in doc["payload"]["error"]
        assert "Traceback" not in captured.err


class TestArgumentRules:
    """The library decides every option value the CLI passes through; the
    CLI reports its ArgumentError like any other TwistgateError."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduction", "--label", "15a1", "--p", "4"],
            ["lvalue", "--label", "15a1", "--terms", "0"],
            ["search", "--p", "5", "--r", "0", "--bound", "10"],
            ["search", "--p", "5", "--r", "1", "--bound", "0"],
            ["descent-check", "--lemma", "sum", "--k", "0", "--n", "1", "--r", "1"],
            ["descent-check", "--lemma", "sum", "--k", "1", "--n", "1", "--r", "-1"],
            ["descent-check", "--lemma", "tmw", "--d", "17", "--height", "0"],
        ],
    )
    def test_library_rule_is_unsupported_input(self, capsys, argv):
        result, doc = run_json(capsys, argv)
        assert (result.exit_code, doc["status"]) == (2, STATUS_UNSUPPORTED)
        assert doc["payload"]["error_type"] == "ArgumentError"

    def test_an_unknown_label_is_reported_before_the_prime(self, capsys):
        result, doc = run_json(capsys, ["reduction", "--label", "nosuch", "--p", "4"])
        assert (result.exit_code, doc["payload"]["error_type"]) == (2, "CurveTableError")


class TestUsage:
    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["curve-info"])  # no curve selected
        assert excinfo.value.code == 2

    def test_main_returns_exit_code(self, capsys):
        assert main(["curve-info", "--label", "15a1"]) == 0

    def test_parser_builds(self):
        build_parser()

    def test_one_parser_serves_every_call(self, capsys):
        # a usage error in between must leave the shared parser as it was
        argv = ["root-number", "--label", "15a1", "--twist", "13"]
        first = run_json(capsys, argv)[1]
        with pytest.raises(SystemExit) as excinfo:
            run(["root-number", "--twist", "13"])  # no curve selected
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_json(capsys, argv)[1] == first
        lvalue = ["lvalue", "--label", "15a1"]
        assert run_json(capsys, lvalue + ["--margin", "20"])[1]["payload"]["margin_factor"] == 20
        assert run_json(capsys, lvalue)[1]["payload"]["margin_factor"] == 10


WIDTHS = (8, 10, 12, 25, 30)


def lowest_fixed(n):
    """The leading-digit exponent at and below which nstr prints d.ddde-XX."""
    return min(-(n // 3), -5)


def nstr_of(x, n):
    """mpmath's nstr of a Decimal, through an mpf 120 digits wide: exact for
    a Decimal made from a float, and off only beyond digit 100 otherwise."""
    with mp.workdps(120):
        return mp.nstr(mp.mpf(str(x)), n)


def scaled(i, k):
    """i 10^k as an exact Decimal, whatever the context's precision."""
    return Decimal(f"{i}E{k}")


def with_exponent(rng, e, digits=50):
    """A random Decimal of this many digits, leading digit at 10^e."""
    coefficient = rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)
    return scaled(coefficient, e - digits + 1)


class TestSignificant:
    """The CLI's formatter against mpmath's nstr, which it replaced."""

    @pytest.mark.parametrize("n", WIDTHS)
    def test_random_floats(self, n):
        # Decimal(f) and mpf(f) are both exact, so both see the same number
        rng = random.Random(n)
        for _ in range(2000):
            f = math.ldexp(rng.uniform(-1, 1), rng.randint(-130, 130))
            assert _significant(Decimal(f), n) == mp.nstr(mp.mpf(f), n), (f, n)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_random_fifty_digit_values_at_both_thresholds(self, n):
        rng = random.Random(100 + n)
        lo = lowest_fixed(n)
        for e in [lo - 1, lo, lo + 1, -1, 0, 1, n - 1, n, n + 1] * 100:
            x = with_exponent(rng, e)
            assert _significant(x, n) == nstr_of(x, n), (x, n)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_exact_ties_round_half_up(self, n):
        # D + 0.5 and (10 D + 5) 10^k are ties at n digits and exact in binary
        rng = random.Random(200 + n)
        half_up = decimal.Context(prec=100, rounding=decimal.ROUND_HALF_UP)
        for _ in range(200):
            tie = 10 * rng.randrange(10 ** (n - 1), 10**n) + 5
            for x in (scaled(tie, -1), scaled(tie, 0), scaled(tie, 3), scaled(-tie, -1)):
                got = _significant(x, n)
                assert got == nstr_of(x, n), (x, n)
                assert Decimal(got) == half_up.quantize(x, scaled(1, x.adjusted() - n + 1))
        assert _significant(Decimal("0.125"), 2) == mp.nstr(mp.mpf(0.125), 2) == "0.13"

    @pytest.mark.parametrize("n", WIDTHS)
    def test_carries_across_both_thresholds(self, n):
        # 9...95 rounds up to a power of 10, one exponent higher
        lo = lowest_fixed(n)
        for sign in (1, -1):
            # exact ties in binary, a half and integers, at the upper threshold
            tie = sign * int("9" * n + "5")
            for k in (-1, 0, 1):
                x = scaled(tie, k)
                assert _significant(x, n) == nstr_of(x, n), (x, n)
            # just above the tie elsewhere, where it is not exact in binary
            above = sign * int("9" * n + "51")
            for e in (lo - 2, lo - 1, lo, -1, 0, n - 2, n - 1):
                x = scaled(above, e - n - 1)
                assert _significant(x, n) == nstr_of(x, n), (x, n)
        assert _significant(Decimal("99999999.5"), 8) == "1.0e+8"
        assert _significant(Decimal("9999999.95"), 8) == "10000000.0"
        assert _significant(Decimal("0.0000099999999951"), 8) == "1.0e-5"
        assert _significant(Decimal("-0.000099999999951"), 8) == "-0.0001"

    def test_decimal_ties_round_half_up(self):
        # not exact in binary, so nstr's digits depend on the mpf: the
        # formatter rounds the decimal value itself
        assert _significant(Decimal("1.00000005"), 8) == "1.0000001"
        assert _significant(Decimal("-2.0000000005E-20"), 10) == "-2.000000001e-20"

    @pytest.mark.parametrize("n", WIDTHS)
    def test_zero_and_trailing_zeros(self, n):
        for zero in (Decimal(0), Decimal("-0"), Decimal("0E-50")):
            assert _significant(zero, n) == mp.nstr(mp.mpf(0), n) == "0.0"
        for x in (Decimal(3), Decimal("3.000"), Decimal("-3E-2"), Decimal("1.5E+40")):
            assert _significant(x, n) == nstr_of(x, n), (x, n)
        assert _significant(Decimal("3.000"), n) == "3.0"


NO_MPMATH_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:2]
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from twistgate import cli
documents = {}
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(argv + ["--json"])
    documents[argv[0]] = json.loads(out.getvalue())
print(json.dumps(documents))
"""

# one call of every subcommand
EVERY_SUBCOMMAND = [
    ["curve-info", "--label", "15a1"],
    ["reduction", "--label", "15a1", "--p", "2"],
    ["root-number", "--label", "15a1"],
    ["twist-root-check", "--label", "15a1", "--dmax", "50"],
    ["lvalue", "--label", "15a1"],
    ["serre-check", "--ell", "5", "--label", "15a1"],
    ["search", "--p", "5", "--r", "1", "--bound", "50"],
    ["check-hypothesis", "--p", "5", "--d", "17"],
    ["descent-check", "--lemma", "sum", "--k", "2", "--n", "1", "--r", "1"],
]


class TestWithoutMpmath:
    def test_every_subcommand_runs_with_mpmath_unimportable(self):
        assert {argv[0] for argv in EVERY_SUBCOMMAND} == set(
            build_parser()._subparsers._group_actions[0].choices
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", NO_MPMATH_SCRIPT, str(src), json.dumps(EVERY_SUBCOMMAND)],
            capture_output=True,
            text=True,
            check=True,
        )
        documents = json.loads(out.stdout)
        assert {name: doc["status"] for name, doc in documents.items()} == {
            argv[0]: STATUS_OK for argv in EVERY_SUBCOMMAND
        }
        assert documents["lvalue"]["payload"]["value"] == "0.350150760583150505795045209202"


class TestDecimalContext:
    """The library's decimal work neither reads nor changes the caller's
    context: the value has its 50 digits at a caller's 7."""

    CALLS = {
        "l_value_at_1": lambda: l_value_at_1(curve_by_label("15a1")).value,
        "l_value_at_1 at t = 1.2": lambda: l_value_at_1(curve_by_label("15a1"), t=1.2).value,
        "lvalue": lambda: run(["lvalue", "--label", "15a1", "--json"]).payload["value"],
        "check-hypothesis": lambda: run(["check-hypothesis", "--p", "5", "--d", "17"])
        .payload["characters"][0]["lvalue"],
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_precision_rounding_and_flags_are_kept(self, capsys, call):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = 7, decimal.ROUND_DOWN
            ctx.clear_flags()
            value = call()
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.rounding) == (7, decimal.ROUND_DOWN)
            assert not any(ctx.flags.values())
        capsys.readouterr()
        assert str(value).startswith("0.350150760583150505795045")
