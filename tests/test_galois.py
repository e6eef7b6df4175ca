import pytest

from twistgate.curve import WeierstrassModel
from twistgate.errors import BadAuxPrimeError, UnsupportedPrimeError
from twistgate.galois import default_aux_prime, serre_check
from twistgate.numtheory import primes_up_to


class TestSerreCheck:
    def test_15a1_ell5_aux7(self, e15):
        report = serre_check(e15, 5, 7)
        assert report.overall
        assert {(c.q, c.v_q_of_j) for c in report.j_exponent_checks} == {(3, -4), (5, -4)}
        assert report.aux_check.q == 7
        assert report.aux_check.points == 8
        assert all(c.ok for c in report.j_exponent_checks)
        assert report.aux_check.ok

    def test_21a1_ell3_aux5(self, e21):
        report = serre_check(e21, 3, 5)
        assert report.overall
        assert {(c.q, c.v_q_of_j) for c in report.j_exponent_checks} == {(3, -4), (7, -2)}
        assert report.aux_check.points == 8

    def test_ell2_unsupported(self, e15):
        with pytest.raises(UnsupportedPrimeError):
            serre_check(e15, 2, 7)

    def test_ell_must_be_prime(self, e15):
        with pytest.raises(UnsupportedPrimeError):
            serre_check(e15, 9, 7)

    def test_bad_aux_prime(self, e15):
        with pytest.raises(BadAuxPrimeError):
            serre_check(e15, 5, 3)
        with pytest.raises(BadAuxPrimeError):
            serre_check(e15, 5, 5)
        with pytest.raises(BadAuxPrimeError):
            serre_check(e15, 5, 8)

    def test_default_aux_primes_match_conventional_choices(self, e15, e21):
        assert default_aux_prime(e15) == 7
        assert default_aux_prime(e21) == 5

    def test_sweep_all_odd_ell_up_to_97(self, e15, e21):
        for model in (e15, e21):
            for ell in primes_up_to(97):
                if ell == 2:
                    continue
                assert serre_check(model, ell).overall, (model, ell)

    def test_failing_j_exponent_detected(self):
        # y^2 + xy = x^3 + 8: Delta = -2^3 * 3457, j = 1 / Delta,
        # so v_2(j) = -3 and the ell = 3 check must fail at q = 2
        model = WeierstrassModel(1, 0, 0, 0, 8)
        report = serre_check(model, 3)
        assert not report.overall
        failing = {c.q: c.ok for c in report.j_exponent_checks}
        assert failing[2] is False
        assert "NOT" in report.statement

    @pytest.mark.parametrize(
        "model", [WeierstrassModel(0, 0, 0, -1, 0), WeierstrassModel(0, 0, 1, 0, 0)],
        ids=["j=1728", "j=0"],
    )
    def test_integral_j_is_not_verified(self, model):
        # CM curves, whose mod-ell image is never surjective: j has no pole,
        # so check (a) has no prime to pass at
        for ell in (3, 5, 7, 11):
            report = serre_check(model, ell)
            assert report.j_exponent_checks == ()
            assert not report.overall, ell
            assert "NOT" in report.statement

    def test_failing_aux_count_detected(self, e15):
        # #E(F_2) = 4 for the conductor-15 curve, so ell = 2 would divide it,
        # but ell = 2 is rejected; instead use a count divisible by ell:
        # #E(F_7) = 8 and ell = 2 is out, so fabricate via a good prime with
        # count divisible by 3: #E(F_13) = 16? compute and pick dynamically
        from twistgate.reduction import ReductionKind, classify, count_points

        target = None
        for q in primes_up_to(200):
            if q < 3:
                continue
            if classify(e15, q).kind is ReductionKind.GOOD:
                if count_points(e15, q) % 3 == 0:
                    target = q
                    break
        assert target is not None
        report = serre_check(e15, 3, target)
        assert not report.aux_check.ok
        assert not report.overall
