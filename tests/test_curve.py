import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistgate.curve import (
    PINNED_J,
    WeierstrassModel,
    curve_by_label,
    invariants,
    load_curve_table,
    minimalize_at,
    model_from_c4c6,
    quadratic_twist,
    short_form,
)
from twistgate.errors import (
    ArgumentError,
    CurveTableError,
    NotSquarefreeError,
    SingularCurveError,
    UnsupportedPrimeError,
)
from twistgate.numtheory import squarefree_part, valuation


def scale_model(E, u):
    """The substitution (x, y) -> (x/u^2, y/u^3): a_i gets multiplied by u^i."""
    return WeierstrassModel(E.a1 * u, E.a2 * u**2, E.a3 * u**3, E.a4 * u**4, E.a6 * u**6)


SQUAREFREE_D = [d for d in range(-100, 101) if d and squarefree_part(d) == d]


class TestInvariants:
    def test_15a1(self, e15):
        inv = invariants(e15)
        assert inv.c4 == 481
        assert inv.delta == 50625
        assert inv.j == Fraction(111284641, 50625)
        assert inv.j == Fraction(13**3 * 37**3, 3**4 * 5**4)

    def test_21a1(self, e21):
        inv = invariants(e21)
        assert inv.c4 == 193
        assert inv.delta == 3969
        assert inv.j == Fraction(193**3, 3**4 * 7**2)

    def test_j_1728_curve(self):
        inv = invariants(WeierstrassModel(0, 0, 0, -1, 0))
        assert inv.c4 == 48
        assert inv.c6 == 0
        assert inv.delta == 64
        assert inv.j == 1728

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            invariants(WeierstrassModel(0, 0, 0, 0, 0))
        with pytest.raises(SingularCurveError):
            invariants(WeierstrassModel(0, 0, 0, -3, 2))

    def test_identities_on_random_models(self):
        rng = random.Random(1)
        done = 0
        while done < 50:
            model = WeierstrassModel(*(rng.randint(-9, 9) for _ in range(5)))
            try:
                inv = invariants(model)
            except SingularCurveError:
                continue
            done += 1
            assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta
            assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2
            assert inv.j == Fraction(inv.c4**3, inv.delta)


def test_invariants_are_computed_once_per_model(e15):
    model = WeierstrassModel(*e15.ainvs())
    inv = invariants(model)
    assert invariants(model) is inv
    # the memo is not part of the model's value
    assert model == WeierstrassModel(*e15.ainvs()) and repr(model) == repr(e15)
    assert hash(model) == hash(WeierstrassModel(*e15.ainvs()))
    singular = WeierstrassModel(0, 0, 0, 0, 0)
    for _ in range(2):
        with pytest.raises(SingularCurveError):
            invariants(singular)


class TestShortForm:
    def test_already_short(self):
        model = WeierstrassModel(0, 0, 0, -7, 11)
        assert short_form(model) == (Fraction(-7), Fraction(11))

    def test_15a1(self, e15):
        assert short_form(e15) == (Fraction(-481, 48), Fraction(-4879, 864))

    def test_j_preserved(self, e15, e21):
        for model in (e15, e21):
            A, B = short_form(model)
            # j of y^2 = x^3 + Ax + B computed directly from A, B
            j_short = Fraction(-48 * A, 1) ** 3 / (
                Fraction(-48 * A) ** 3 - Fraction(-864 * B) ** 2
            ) * 1728
            assert j_short == invariants(model).j


class TestQuadraticTwist:
    def test_trivial_twist_preserves_j(self, e15):
        assert invariants(quadratic_twist(e15, 1)).j == invariants(e15).j

    def test_twist_by_17_valuation(self, e15):
        twist = quadratic_twist(e15, 17)
        minimal = minimalize_at(twist, 17)
        assert valuation(invariants(minimal).delta, 17) == 6

    def test_not_squarefree_rejected(self, e15):
        with pytest.raises(NotSquarefreeError):
            quadratic_twist(e15, 12)
        with pytest.raises(NotSquarefreeError):
            quadratic_twist(e15, 0)

    @pytest.mark.parametrize("d", [True, False])
    def test_a_bool_is_refused(self, e15, d):
        # True would otherwise pass as d = 1 and return e15's own model
        with pytest.raises(ArgumentError, match=f"^d must be an int, got {d}$"):
            quadratic_twist(e15, d)

    @pytest.mark.parametrize("d", SQUAREFREE_D)
    def test_j_preserved_for_all_small_d(self, e15, e21, d):
        for model in (e15, e21):
            assert invariants(quadratic_twist(model, d)).j == invariants(model).j

    def test_double_twist_restores_j(self, e15):
        once = quadratic_twist(e15, 29)
        twice = quadratic_twist(once, 29)
        assert invariants(twice).j == invariants(e15).j

    def test_twist_identity_on_invariants(self, e15):
        # twist of the short model has invariants (c4 d^2, c6 d^3)
        inv = invariants(e15)
        for d in (5, 13, 17, 21):
            tw = invariants(quadratic_twist(e15, d))
            assert (tw.c4, tw.c6) == (inv.c4 * d * d, inv.c6 * d**3)

    def test_c4c6_identity_always(self, e15):
        for d in (-7, -3, 2, 6, 10, 17):
            tw = invariants(quadratic_twist(e15, d))
            assert tw.c4**3 - tw.c6**2 == 1728 * tw.delta


class TestMinimalizeAt:
    def test_idempotent_on_minimal_model(self, e15):
        assert minimalize_at(e15, 5) == e15
        assert minimalize_at(e15, 17) == e15

    def test_unscale_by_5(self, e15):
        scaled = scale_model(e15, 5)
        inv_scaled = invariants(scaled)
        assert valuation(inv_scaled.delta, 5) == 4 + 12
        minimal = minimalize_at(scaled, 5)
        inv_min = invariants(minimal)
        assert valuation(inv_min.delta, 5) == 4
        # profile untouched at the other primes
        assert valuation(inv_min.delta, 3) == 4
        assert inv_min.c4 == invariants(e15).c4
        assert inv_min.c6 == invariants(e15).c6
        # idempotent on its own output
        assert minimalize_at(minimal, 5) == minimal

    def test_changes_delta_by_twelfth_powers(self, e15):
        for u in (5, 7, 35):
            scaled = scale_model(e15, u)
            minimal = scaled
            for p in (5, 7):
                minimal = minimalize_at(minimal, p)
            diff = invariants(scaled).delta // invariants(minimal).delta
            assert diff == u**12

    def test_twist_at_dividing_prime_gives_valuation_6(self, e15):
        twist = quadratic_twist(e15, 17)
        assert valuation(invariants(minimalize_at(twist, 17)).delta, 17) == 6

    def test_2_and_3_unsupported(self, e15):
        for p in (2, 3):
            with pytest.raises(UnsupportedPrimeError):
                minimalize_at(e15, p)

    def test_nonprime_rejected(self, e15):
        with pytest.raises(ValueError):
            minimalize_at(e15, 15)


class TestModelFromC4C6:
    def test_recovers_table_curves(self, e15, e21):
        for model in (e15, e21):
            inv = invariants(model)
            assert model_from_c4c6(inv.c4, inv.c6) == model

    def test_returns_none_for_impossible_pair(self):
        # c4 = 1, c6 = 2: 1 - 4 = -3 not divisible by 1728
        assert model_from_c4c6(1, 2) is None


class TestCurveTable:
    def test_bundled_labels(self):
        table = load_curve_table()
        assert set(table) == {"15a1", "21a1"}
        assert table["15a1"] == WeierstrassModel(1, 1, 1, -10, -10)
        assert table["21a1"] == WeierstrassModel(1, 0, 0, -4, -1)

    def test_lookup_case_insensitive(self):
        assert curve_by_label("15A1") == WeierstrassModel(1, 1, 1, -10, -10)

    def test_unknown_label(self):
        with pytest.raises(CurveTableError):
            curve_by_label("11a1")

    def test_pinned_j_validation(self, tmp_path):
        # right label, wrong model: hard failure at load time
        bad = tmp_path / "curves.tsv"
        bad.write_text("15a1\t0\t0\t0\t-1\t0\n")
        with pytest.raises(CurveTableError):
            load_curve_table(str(bad))

    def test_comments_and_custom_rows(self, tmp_path):
        path = tmp_path / "curves.tsv"
        path.write_text("# comment\nmycurve\t0\t0\t0\t-1\t0\n")
        table = load_curve_table(str(path))
        assert table["mycurve"] == WeierstrassModel(0, 0, 0, -1, 0)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "curves.tsv"
        path.write_text("15a1\t1\t1\t1\t-10\n")
        with pytest.raises(CurveTableError):
            load_curve_table(str(path))

    def test_duplicate_label(self, tmp_path):
        path = tmp_path / "curves.tsv"
        path.write_text("x\t0\t0\t0\t-1\t0\nx\t0\t0\t0\t-1\t0\n")
        with pytest.raises(CurveTableError):
            load_curve_table(str(path))

    def test_pinned_values_match_known_j(self):
        assert PINNED_J["15a1"] == Fraction(111284641, 50625)

    @pytest.mark.parametrize("path", ["", "<bundled>"])
    def test_no_path_names_the_bundled_table(self, path):
        load_curve_table()
        with pytest.raises(CurveTableError):
            load_curve_table(path)

    def test_a_file_descriptor_is_refused_and_left_open(self):
        # in a child process: at fd 1 the table would be read from the
        # process's stdout and close it
        script = (
            "import sys; sys.path[:0] = sys.argv[1:2]\n"
            "from twistgate import load_curve_table\n"
            "from twistgate.errors import ArgumentError\n"
            "try:\n"
            "    load_curve_table(1)\n"
            "except ArgumentError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script, str(src)], capture_output=True, text=True, check=True
        )
        assert out.stdout == "path must be a str or an os.PathLike, got 1\n"

    def test_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "alt.tsv"
        path.write_text("zz1\t0\t0\t0\t-1\t0\n")
        monkeypatch.setenv("TWISTGATE_CURVES", str(path))
        table = load_curve_table()
        assert set(table) == {"zz1"}
