import math
from itertools import combinations

import pytest

from twistgate import fieldsearch, rootnum
from twistgate.errors import ArgumentError, InvariantError, TwistgateError, WorkBoundError
from twistgate.fieldsearch import (
    MAX_SEARCH_WORK,
    OVERALL_NOT_ADMISSIBLE,
    OVERALL_VERIFIED,
    AdmissibleTuple,
    character_discriminant,
    characters,
    check_hypothesis,
    is_admissible,
    search,
)
from twistgate.lseries import VERDICT_NONZERO
from twistgate.numtheory import jacobi


# ---------------------------------------------------------------------------
# independent brute-force oracle, written against primitive operations only


def oracle_squarefree(d):
    return d >= 1 and all(d % (q * q) for q in range(2, math.isqrt(d) + 1))


def oracle_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def oracle_single(d, p):
    """The conditions on one candidate d of search, each tested inline."""
    return (
        oracle_squarefree(d)
        and d % 4 == 1
        and math.gcd(d, 3 * p) == 1
        and oracle_legendre(d, 3) * oracle_legendre(d, p) == 1
    )


def oracle_conditions(p, ds):
    """is_admissible's numeric conditions as one loop per condition, positive
    and squarefree sharing the first: (ok, failed_condition, failed_index,
    detail) of the first failure, or None when all hold."""
    n3p = 3 * p
    for i, d in enumerate(ds):
        if not isinstance(d, int) or d <= 0:
            return False, "positive", i, f"d_{i+1} = {d}"
        if not oracle_squarefree(d):
            return False, "squarefree", i, f"d_{i+1} = {d}"
    for i, d in enumerate(ds):
        if d % 4 != 1:
            return False, "mod4", i, f"d_{i+1} = {d} is {d % 4} mod 4"
    for i, d in enumerate(ds):
        if math.gcd(d, n3p) != 1:
            return False, "coprime", i, f"gcd({d}, {n3p}) = {math.gcd(d, n3p)}"
    for i, d in enumerate(ds):
        symbol = oracle_legendre(d, 3) * oracle_legendre(d, p)
        if symbol != 1:
            return False, "jacobi", i, f"({d}/{n3p}) = {symbol}"
    return None


def square_subset(ds):
    """Indices of a nonempty subset whose product is a perfect square, or
    None: the literal scan, smallest subsets first."""
    ds = list(ds)
    for size in range(1, len(ds) + 1):
        for combo in combinations(range(len(ds)), size):
            prod = math.prod(ds[i] for i in combo)
            root = math.isqrt(prod)
            if root * root == prod:
                return combo
    return None


def exponent_vectors_independent(ds):
    """The subset test as a GF(2) rank: each positive d as the bit mask of
    the primes dividing it to an odd power (by trial division), eliminated
    against the rows found so far, keyed by their leading bit."""
    rows = {}
    for d in ds:
        mask, q = 0, 2
        while d > 1:
            while d % q == 0:
                d //= q
                mask ^= 1 << q
            q += 1
        while mask:
            top = mask.bit_length() - 1
            if top not in rows:
                rows[top] = mask
                break
            mask ^= rows[top]
        else:
            return False
    return True


def oracle_search(p, r, bound):
    singles = [d for d in range(1, bound + 1) if oracle_single(d, p)]
    out = []
    for combo in combinations(singles, r):
        good = True
        for size in range(1, r + 1):
            for sub in combinations(combo, size):
                prod = math.prod(sub)
                root = math.isqrt(prod)
                if root * root == prod:
                    good = False
        if good:
            out.append(combo)
    return out


class TestIsAdmissible:
    def test_pass_example(self):
        assert is_admissible(5, [17, 61]).ok

    def test_jacobi_failure(self):
        check = is_admissible(5, [13])
        assert not check.ok
        assert check.failed_condition == "jacobi"
        assert check.failed_index == 0

    def test_coprimality_failure(self):
        check = is_admissible(5, [21])
        assert not check.ok
        assert check.failed_condition == "coprime"

    def test_check_order(self):
        # 20 fails squarefree before mod4 is even looked at
        assert is_admissible(5, [20]).failed_condition == "squarefree"
        # 33 is squarefree and 1 mod 4 but shares the factor 3
        assert is_admissible(5, [33]).failed_condition == "coprime"
        # 89 passes everything numeric up to the Jacobi condition
        assert is_admissible(5, [89]).failed_condition == "jacobi"

    def test_one_fails_subset_condition(self):
        check = is_admissible(5, [1])
        assert not check.ok
        assert check.failed_condition == "subset-square"

    def test_dependent_triple(self):
        # 901 = 17 * 53, so the full product is (17 * 53)^2
        check = is_admissible(5, [17, 53, 901])
        assert not check.ok
        assert check.failed_condition == "subset-square"

    def test_nonpositive(self):
        assert is_admissible(5, [-7]).failed_condition == "positive"

    def test_a_bool_is_not_positive(self):
        # True is an int equal to 1; it must not pass as d = 1
        for ds, index in (([True], 0), ([17, True], 1), ([False], 0)):
            check = is_admissible(5, ds)
            assert (check.ok, check.failed_condition, check.failed_index) == (
                False,
                "positive",
                index,
            ), ds
            assert check.detail == f"d_{index + 1} = {ds[index]}"

    def test_a_bool_is_not_factored(self, monkeypatch):
        # numtheory.factor, under the names is_admissible and the
        # twist-parameter rule call it by
        calls = []
        real = fieldsearch.factor
        for module in (fieldsearch, rootnum):
            monkeypatch.setattr(module, "factor", lambda n: calls.append(n) or real(n))
        assert is_admissible(5, [True]).failed_condition == "positive"
        assert calls == []

    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            is_admissible(11, [17])

    def test_admissible_tuple_constructor_enforces(self):
        with pytest.raises(ValueError):
            AdmissibleTuple(5, (13,))


def grid_tuples():
    """Every 1- and 2-tuple of d in [-3, 130], and every 3-tuple of d in
    [-3, 130] stepping by 5, a grid with d failing each condition
    (positive -3; squarefree 12, 27, 117; mod4 2, 7; coprime 57; jacobi
    97) and passing them all (17), 37 and 77 failing jacobi or coprime
    for one p and passing for the other."""
    full = range(-3, 131)
    coarse = range(-3, 131, 5)
    yield from ([d] for d in full)
    yield from ([a, b] for a in full for b in full)
    yield from ([a, b, c] for a in coarse for b in coarse for c in coarse)


@pytest.mark.parametrize("p", [5, 7])
def test_conditions_are_named_as_the_one_loop_per_condition_oracle(p):
    for ds in grid_tuples():
        check = is_admissible(p, ds)
        expected = oracle_conditions(p, ds)
        if expected is None:
            assert check.ok == (square_subset(ds) is None), ds
        else:
            assert (check.ok, check.failed_condition, check.failed_index, check.detail) == expected, ds


@pytest.mark.parametrize("p", [5, 7])
def test_search_candidates_are_the_oracle_singles(p):
    # [1] fails only as a square, so the 1-tuples are every other candidate
    found = [t.ds[0] for t in search(p, 1, 10**4)]
    assert found == [d for d in range(2, 10**4 + 1) if oracle_single(d, p)]


class TestSubsetImplementations:
    def test_square_subset_finds_smallest(self):
        assert square_subset([4]) == (0,)
        assert square_subset([17, 53, 901]) == (0, 1, 2)
        assert square_subset([17, 61]) is None

    def test_two_implementations_agree(self):
        import random

        rng = random.Random(13)
        for _ in range(300):
            ds = [rng.randint(1, 400) for _ in range(rng.randint(1, 4))]
            assert (square_subset(ds) is None) == exponent_vectors_independent(ds), ds


def largest_prime_factor(d):
    q = 2
    while q * q <= d:
        if d % q:
            q += 1
        else:
            d //= q
    return d


def subset_cases():
    """The 300 random tuples of test_two_implementations_agree, and tuples
    of admissible d (p = 5) built from few primes, with repeats, so that
    dependencies of every size occur."""
    import random

    rng = random.Random(13)
    cases = [[rng.randint(1, 400) for _ in range(rng.randint(1, 4))] for _ in range(300)]
    pool = [d for d in range(2, 3000) if oracle_single(d, 5) and largest_prime_factor(d) < 40]
    rng = random.Random(29)
    cases += [[rng.choice(pool) for _ in range(rng.randint(2, 5))] for _ in range(300)]
    return cases + [[1], [17, 17], [17, 53, 901], [17, 53, 901, 17]]


def named_subset(detail):
    """The 0-based indices a subset-square detail names."""
    names = detail.removeprefix("product of d_").removesuffix(" is a perfect square")
    return [int(i) - 1 for i in names.split(",")]


class TestEchelonAgainstScan:
    def test_verdict_and_named_subset(self):
        failures = 0
        for ds in subset_cases():
            check = is_admissible(5, ds)
            if not all(oracle_single(d, 5) for d in ds):
                assert not check.ok and check.failed_condition != "subset-square", ds
                continue
            assert check.ok == (square_subset(ds) is None), ds
            if not check.ok:
                failures += 1
                assert check.failed_condition == "subset-square", ds
                named = named_subset(check.detail)
                prod = math.prod(ds[i] for i in named)
                assert named and math.isqrt(prod) ** 2 == prod, (ds, check.detail)
        assert failures >= 100

    def test_names_the_echelon_dependency_not_the_smallest(self):
        # 901 = 17 * 53 depends on the rows before it, before the repeated 17
        # is reached; the scan finds the pair (17, 17) first
        check = is_admissible(5, [17, 53, 901, 17])
        assert check.detail == "product of d_1,2,3 is a perfect square"
        assert square_subset([17, 53, 901, 17]) == (0, 3)


class TestCharacterDiscriminant:
    def test_trivial_character(self):
        tup = AdmissibleTuple(5, (17, 61))
        assert character_discriminant(tup, (1, 1)) == 1

    def test_singleton_subset(self):
        tup = AdmissibleTuple(5, (17, 61))
        assert character_discriminant(tup, (-1, 1)) == 17
        assert character_discriminant(tup, (1, -1)) == 61

    def test_full_subset_squarefree_part(self):
        tup = AdmissibleTuple(5, (17, 61))
        assert character_discriminant(tup, (-1, -1)) == 17 * 61

    def test_shared_prime_pair_reduces(self):
        # 17 and 901 = 17 * 53 are both admissible for p = 5, and their
        # product 17^2 * 53 has squarefree part 53
        tup = AdmissibleTuple(5, (17, 901))
        assert character_discriminant(tup, (-1, -1)) == 53

    def test_closure_for_search_results(self):
        for tup in search(5, 2, 100):
            for signs in characters(tup.r):
                d_s = character_discriminant(tup, signs)
                assert d_s % 4 == 1
                assert math.gcd(d_s, 15) == 1
                assert jacobi(d_s, 15) == 1

    def test_length_mismatch(self):
        tup = AdmissibleTuple(5, (17,))
        with pytest.raises(ValueError):
            character_discriminant(tup, (1, 1))


class TestSearch:
    def test_rank_one_up_to_20(self):
        assert [t.ds for t in search(5, 1, 20)] == [(17,)]

    def test_rank_one_up_to_100_matches_oracle(self):
        assert [t.ds for t in search(5, 1, 100)] == oracle_search(5, 1, 100)
        assert [t.ds for t in search(5, 1, 100)] == [(17,), (53,), (61,), (77,)]

    def test_rank_two_up_to_100_matches_oracle(self):
        got = [t.ds for t in search(5, 2, 100)]
        assert got == oracle_search(5, 2, 100)
        assert (17, 61) in got
        assert all(13 not in t for t in got)

    def test_p7_postcondition_replay(self):
        for t in search(7, 1, 60):
            assert jacobi(t.ds[0], 21) == 1

    def test_p7_matches_oracle(self):
        assert [t.ds for t in search(7, 2, 120)] == oracle_search(7, 2, 120)

    def test_a_corrupted_single_fails_the_recheck(self, monkeypatch):
        # search is handed 13^2 * 17 as the factorization of 17, with 17's
        # GF(2) mask: the recheck refuses the single it makes as not
        # squarefree.  factor is patched in fieldsearch only, so the
        # process's kept factorizations stay intact
        real = fieldsearch.factor
        monkeypatch.setattr(fieldsearch, "factor", lambda n: real(13 * 13 * n if n == 17 else n))
        with pytest.raises(ArgumentError, match="squarefree"):
            search(5, 2, 100)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            search(5, 1, 10**5)
        with pytest.raises(ValueError):
            search(5, 0, 10)

    def test_work_bound(self):
        # the largest benchmarked search: 36 candidates, 1 + 36 + C(36, 2)
        # subsets of at most 2
        assert 1 + 36 + math.comb(36, 2) <= MAX_SEARCH_WORK
        assert len(search(7, 2, 600)) > 0
        # 622 candidates: C(622, 3) triples, and every subset when r exceeds them
        for r in (3, 10**9):
            with pytest.raises(WorkBoundError):
                search(5, r, 10**4)


class TestCheckHypothesis:
    def test_single_17(self):
        report = check_hypothesis(5, [17])
        assert report.overall == OVERALL_VERIFIED
        assert report.unramified_at_6p
        assert len(report.per_character) == 2
        discs = [c.discriminant for c in report.per_character]
        assert discs == [1, 17]
        for c in report.per_character:
            assert c.root_number.value == 1
            assert c.formula_sign == 1
            assert c.lvalue.verdict == VERDICT_NONZERO

    def test_fail_fast_for_13(self):
        report = check_hypothesis(5, [13])
        assert report.overall == OVERALL_NOT_ADMISSIBLE
        assert report.per_character == ()
        assert report.admissibility.failed_condition == "jacobi"

    def test_the_empty_tuple_names_its_failure(self):
        report = check_hypothesis(5, ())
        assert report.admissibility.detail == "no d_i given"
        assert report.note == "admissibility failed: empty (no d_i given)"

    @pytest.mark.parametrize("d", [17.9, "17", True])
    def test_non_int_is_not_coerced(self, d):
        # int(17.9) and int("17") would be the admissible 17
        report = check_hypothesis(5, [d])
        assert report.overall == OVERALL_NOT_ADMISSIBLE
        assert report.admissibility.failed_condition == "positive"
        assert report.ds == (d,)

    def test_p7_single(self):
        # 5 is admissible for p = 7: (5/21) = (5/3)(5/7) = (-1)(-1) = 1
        report = check_hypothesis(7, [5])
        assert report.overall == OVERALL_VERIFIED
        for c in report.per_character:
            assert c.root_number.value == 1

    def test_formula_disagreement_is_a_fault_not_unsupported_input(self, monkeypatch):
        formula = fieldsearch.twist_root_number_formula
        monkeypatch.setattr(
            fieldsearch,
            "twist_root_number_formula",
            lambda X, d: -formula(X, d),
        )
        with pytest.raises(InvariantError) as excinfo:
            check_hypothesis(5, [17])
        assert not isinstance(excinfo.value, TwistgateError)

    def test_character_count_is_power_of_two(self):
        report = check_hypothesis(5, [17, 61])
        assert len(report.per_character) == 4
        assert [c.signs for c in report.per_character] == characters(2)
        assert {c.discriminant for c in report.per_character} == {1, 17, 61, 17 * 61}


def test_parity_consistency_over_search_sweep():
    # every character twist of every admissible tuple has root number +1,
    # computed as a local product on the twisted curve (not via the formula)
    from twistgate.curve import curve_by_label, quadratic_twist
    from twistgate.fieldsearch import CURVE_FOR_P
    from twistgate.rootnum import global_root_number

    for p, bound in ((5, 80), (7, 40)):
        X = curve_by_label(CURVE_FOR_P[p])
        for tup in search(p, 2, bound) + search(p, 1, bound):
            for signs in characters(tup.r):
                d_s = character_discriminant(tup, signs)
                direct = global_root_number(quadratic_twist(X, d_s))
                assert direct.value == 1, (p, tup.ds, signs)
