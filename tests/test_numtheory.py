import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistgate import numtheory
from twistgate.curve import curve_by_label, invariants
from twistgate.errors import (
    ArgumentError,
    CompositeResidueError,
    EvenModulusError,
    InvariantError,
    PrimeTooLargeError,
    ZeroInputError,
)
from twistgate.numtheory import (
    SMALL_FACTOR_BOUND,
    Factorization,
    check_int,
    check_prime,
    factor,
    is_prime,
    is_squarefree,
    jacobi,
    primes_up_to,
    squarefree_part,
    valuation,
)


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def is_prime_by_trial_division(n):
    """Independent oracle: no divisor in [2, sqrt(n)]."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def factor_by_wheel(n):
    """Independent oracle: the trial division factor had before the sieve, by
    2, 3 and then 6k +- 1 up to 10^6, with the same cofactor rules."""
    m = n
    out = []

    def strip(p):
        nonlocal m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))

    strip(2)
    strip(3)
    p = 5
    step = 2
    while p <= 10**6 and p * p <= m:
        strip(p)
        p += step
        step = 6 - step
    if m > 1:
        if p * p > m or m <= 10**12 or (m < PSI_13 and is_prime(m)):
            out.append((m, 1))
        else:
            raise CompositeResidueError(m)
    return tuple(out)


def legendre_by_enumeration(a, p):
    """Independent oracle: quadratic character mod p by listing all squares."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


class TestFactor:
    def test_denominator_of_j15(self):
        assert factor(50625).factors == ((3, 4), (5, 4))

    def test_one_has_empty_factorization(self):
        assert factor(1).factors == ()

    def test_denominator_of_j21(self):
        # 3969 = 3^4 * 7^2, matching the j-denominator of the conductor-21 curve
        assert factor(3969).factors == ((3, 4), (7, 2))

    def test_large_prime_cofactor_is_certified(self):
        p = 10**12 + 39  # prime
        assert is_prime(p)
        assert factor(2 * p).factors == ((2, 1), (p, 1))

    def test_cofactor_proven_prime_below_psi_13(self):
        # Delta of y^2 = x^3 + x + 10000000003 is -2^4 times this prime
        q = 2700000001620000000247
        assert 3 * 10**18 < q < PSI_13 and is_prime(q)
        assert factor(16 * q).factors == ((2, 4), (q, 1))

    def test_composite_residue_rejected(self):
        # both factors sit just above the trial bound, so the whole composite
        # survives as a cofactor above 10^12; PSI_12 passes the first twelve
        # bases, and 2^89 - 1 is prime but above PSI_13, where is_prime
        # cannot prove it
        for n in (1000003 * 1000033, 2 * PSI_12, PSI_13, 2**89 - 1):
            with pytest.raises(CompositeResidueError):
                factor(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            factor(-6)

    def test_validation_catches_bad_product(self):
        with pytest.raises(InvariantError):
            Factorization(12, ((2, 1), (3, 1)))

    def test_agrees_with_the_wheel(self):
        rng = random.Random(12)
        values = [rng.randrange(1, 10**9) for _ in range(300)]
        # cofactors just below and just above 10^12, prime and composite,
        # and a product of two primes above 10^6 that neither can certify
        values += [rng.randrange(1, 50) * (10**12 + k) for k in range(-15, 15)]
        values += [999983 * 1000003, 1000003 * 1000033, 6 * 1000003 * 1000033]
        for n in values:
            try:
                want = factor_by_wheel(n)
            except CompositeResidueError:
                with pytest.raises(CompositeResidueError):
                    factor(n)
            else:
                assert factor(n).factors == want, n

    def test_keeps_each_factorization_to_the_small_bound(self):
        # the wheel is the oracle of every kept factorization, and a second
        # call returns the kept object
        for n in range(1, SMALL_FACTOR_BOUND + 1):
            assert factor(n).factors == factor_by_wheel(n), n
            assert factor(n) is factor(n), n

    def test_keeps_nothing_above_the_small_bound(self):
        # |Delta(15a1)| = 3^4 5^4 is divided out on each call and not kept,
        # so the memo holds at most one entry per n <= 10^4
        delta = abs(invariants(curve_by_label("15a1")).delta)
        assert delta > SMALL_FACTOR_BOUND
        assert factor(delta) == factor(delta) and factor(delta) is not factor(delta)
        assert all(1 <= n <= SMALL_FACTOR_BOUND for n in numtheory._FACTORED)
        assert len(numtheory._FACTORED) <= SMALL_FACTOR_BOUND

    def test_random_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(1, 10**6)
            f = factor(n)
            assert math.prod(p**e for p, e in f.factors) == n


class TestSquarefreePart:
    def test_trivial(self):
        assert squarefree_part(1) == 1

    def test_square_times_prime(self):
        assert 17 * 53 * 17 == 15317
        assert squarefree_part(15317) == 53

    def test_negative(self):
        assert squarefree_part(-12) == -3

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            squarefree_part(0)

    @pytest.mark.parametrize("n", list(range(1, 300)) + [-n for n in range(1, 300)])
    def test_quotient_is_square_and_idempotent(self, n):
        s = squarefree_part(n)
        q = n // s
        assert s * q == n
        r = math.isqrt(q)
        assert r * r == q
        assert squarefree_part(s) == s
        assert is_squarefree(s)


class TestJacobi:
    def test_one_numerator(self):
        assert jacobi(1, 15) == 1

    def test_17_over_15(self):
        # (17/15) = (2/3)(2/5) = (-1)(-1), each factor by square enumeration
        assert legendre_by_enumeration(2, 3) == -1
        assert legendre_by_enumeration(2, 5) == -1
        assert jacobi(17, 15) == 1

    def test_13_over_15(self):
        assert legendre_by_enumeration(13, 3) == 1
        assert legendre_by_enumeration(13, 5) == -1
        assert jacobi(13, 15) == -1

    def test_shared_factor_gives_zero(self):
        assert jacobi(6, 15) == 0
        assert jacobi(0, 9) == 0

    def test_modulus_one(self):
        assert jacobi(12345, 1) == 1

    def test_even_modulus_rejected(self):
        with pytest.raises(EvenModulusError):
            jacobi(3, 10)
        with pytest.raises(EvenModulusError):
            jacobi(3, -5)

    def test_agrees_with_enumeration_for_primes(self):
        for p in primes_up_to(97):
            if p == 2:
                continue
            for a in range(-2 * p, 2 * p + 1):
                assert jacobi(a, p) == legendre_by_enumeration(a, p), (a, p)

    def test_multiplicative_in_numerator(self):
        # residue-complete check covers all |a|, |b| <= 200 by periodicity,
        # plus a literal sample including negatives
        for n in range(1, 201, 2):
            table = [jacobi(x, n) for x in range(n)]
            for x in range(n):
                for y in range(n):
                    assert table[x * y % n] == table[x] * table[y]
        rng = random.Random(3)
        for _ in range(500):
            a = rng.randint(-200, 200)
            b = rng.randint(-200, 200)
            n = rng.randrange(1, 201, 2)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_multiplicative_in_modulus(self):
        rng = random.Random(5)
        for _ in range(300):
            a = rng.randint(-100, 100)
            m = rng.randrange(1, 100, 2)
            n = rng.randrange(1, 100, 2)
            assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


class TestValuation:
    def test_known_valuations(self):
        assert valuation(50625, 3) == 4
        assert valuation(1, 7) == 0
        # exponent of 5 in the j-invariant of the conductor-15 curve
        assert valuation(Fraction(111284641, 50625), 5) == -4

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            valuation(0, 3)
        with pytest.raises(ZeroInputError):
            valuation(Fraction(0), 3)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            valuation(12, 6)

    def test_additive_on_products(self):
        rng = random.Random(11)
        for _ in range(200):
            x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            y = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            if rng.random() < 0.5:
                x = -x
            for p in (2, 3, 5, 7):
                assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


class TestCheckInt:
    @pytest.mark.parametrize(
        "value, least, most",
        [(0, None, None), (-7, None, 3), (1, 1, None), (10**30, 1, None), (5, 5, 5), (3, 1, 10)],
    )
    def test_returns_the_value_within_its_bounds(self, value, least, most):
        assert check_int(value, "x", least, most) is value

    @pytest.mark.parametrize(
        "value, least, most, message",
        [
            (True, None, None, "x must be an int, got True"),
            (False, 0, 1, "x must be an int, got False"),
            (2.0, None, None, "x must be an int, got 2.0"),
            ("3", 1, None, "x must be an int, got '3'"),
            (None, None, None, "x must be an int, got None"),
            (0, 1, None, "x must be at least 1, got 0"),
            (11, None, 10, "x must be at most 10, got 11"),
            (0, 1, 10, "x must be between 1 and 10, got 0"),
            (11, 1, 10, "x must be between 1 and 10, got 11"),
        ],
    )
    def test_each_message(self, value, least, most, message):
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            check_int(value, "x", least, most)


class TestCheckPrime:
    def test_returns_a_prime(self):
        assert check_prime(2) == 2
        assert check_prime(10**6 + 3, "q") == 10**6 + 3

    @pytest.mark.parametrize("p", [4, 1, 0, -3, 7.0, True, "7", None])
    def test_names_the_argument(self, p):
        with pytest.raises(ArgumentError, match=f"^q must be a prime, got {re.escape(repr(p))}$"):
            check_prime(p, "q")


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**6)) == 78498
    with pytest.raises(ValueError):
        primes_up_to(10**6 + 1)


def test_is_prime_agrees_with_trial_division_around_the_sieve():
    for n in list(range(20_001)) + list(range(10**6 - 1999, 10**6 + 2001)):
        assert is_prime(n) == is_prime_by_trial_division(n), n


def test_is_prime_beyond_twelve_bases():
    assert not is_prime(PSI_12)
    assert is_prime(10**24 + 7)  # the least prime above 10^24
    with pytest.raises(PrimeTooLargeError):
        is_prime(PSI_13)


def test_is_prime_rejects_non_integers():
    for n in (7.0, 1.5, "7", Fraction(7)):
        with pytest.raises(TypeError):
            is_prime(n)


def test_loading_the_curve_table_leaves_the_sieve_unbuilt():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:2]\n"
        "import twistgate\n"
        "twistgate.load_curve_table()\n"
        "from twistgate import numtheory\n"
        "print(numtheory._small_primes.cache_info().currsize)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", script, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0"]


def test_is_prime_small_and_carmichael():
    assert [n for n in range(40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
