"""Exact integer primitives: primality, factorization, squarefree parts,
Jacobi symbols, p-adic valuations, and the four argument rules.

check_int, check_rational, check_prime and check_tuple are the one
statement of the argument rules "an int, not a bool, within bounds", "an
exact rational: an int or a Fraction", "a prime int" and "an iterable,
taken as a tuple, of a given length": a value of the wrong type or out of
bounds raises ArgumentError, one message wherever it is passed.

Everything here is pure and exact.  One byte sieve to TRIAL_DIVISION_BOUND =
10^6, where every caller's primes stop, is the only source of small primes:
is_prime, primes_up_to and factor all read it.  Factoring has a hard cofactor
bound: the inputs this package meets (twist parameters below 10^4,
discriminants and conductors below ~10^23 whose prime factors are small) all
factor instantly, and anything else is out of desk scale on purpose.

factor is the one owner of factorizations: it keeps the Factorization of
each n <= SMALL_FACTOR_BOUND = 10^4, which covers every twist parameter of
a sweep or a search, for the process, so each is divided out and certified
once; a larger n is divided out on each call and not kept.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ArgumentError,
    CompositeResidueError,
    EvenModulusError,
    InvariantError,
    PrimeTooLargeError,
    ZeroInputError,
)

TRIAL_DIVISION_BOUND = 10**6
# Largest n whose Factorization factor keeps; it covers
# rootnum.MAX_TWIST_DMAX and fieldsearch.MAX_SEARCH_BOUND.
SMALL_FACTOR_BOUND = 10**4

# Deterministic below psi_13; without 41, psi_12 = 318665857834031151167461
# passes (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981  # psi_13


def check_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value if it is an int, not a bool, within the bounds given; else ArgumentError."""
    # type() first: a hot caller's plain int skips the slower isinstance pair
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ArgumentError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least or most is not None and value > most:
        if most is None:
            raise ArgumentError(f"{name} must be at least {least}, got {value!r}")
        if least is None:
            raise ArgumentError(f"{name} must be at most {most}, got {value!r}")
        raise ArgumentError(f"{name} must be between {least} and {most}, got {value!r}")
    return value


def check_rational(value, name: str) -> Fraction:
    """value if it is a Fraction, Fraction(value) if it passes check_int;
    else ArgumentError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(check_int(value, name))
    raise ArgumentError(f"{name} must be an int or a Fraction, got {value!r}")


def check_tuple(value, name: str, length: int | None = None) -> tuple:
    """tuple(value) if value is an iterable, of the length given; else
    ArgumentError."""
    items = value
    # type() first: a hot caller's tuple is used as it is
    if type(items) is not tuple:
        try:
            items = iter(value)
        except TypeError:
            raise ArgumentError(f"{name} must be given as an iterable, got {value!r}") from None
        items = tuple(items)
    if length is not None and len(items) != length:
        raise ArgumentError(f"{name} must have {length} entries, got {value!r}")
    return items


def check_prime(p, name: str = "p") -> int:
    """p when it is a prime int; ArgumentError naming the argument otherwise."""
    if isinstance(p, int) and is_prime(p):
        return p
    raise ArgumentError(f"{name} must be a prime, got {p!r}")


@functools.cache
def _small_primes() -> tuple[bytearray, array]:
    """The byte sieve of [0, TRIAL_DIVISION_BOUND], 1 at each prime, and its
    primes ascending, 4 bytes each; built on first use, never written after."""
    n = TRIAL_DIVISION_BOUND
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    found = np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8))
    return sieve, array("i", found.astype(np.intc).tobytes())


def is_prime(n: int) -> bool:
    """A sieve lookup up to TRIAL_DIVISION_BOUND, Miller-Rabin above it and
    PrimeTooLargeError from psi_13 ~ 3.3e24 on; TypeError for a non-integer."""
    n = operator.index(n)
    if n <= TRIAL_DIVISION_BOUND:
        return n >= 2 and _small_primes()[0][n] == 1
    if n >= _MR_DETERMINISTIC_BOUND:
        raise PrimeTooLargeError(f"{n} is not below psi_13 = {_MR_DETERMINISTIC_BOUND}")
    # an even n fails at base 2: 2^(n-1) mod n is even, so neither 1 nor n - 1
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, read from the sieve; ArgumentError unless n is an
    int of at most TRIAL_DIVISION_BOUND."""
    check_int(n, "n", None, TRIAL_DIVISION_BOUND)
    primes = _small_primes()[1]
    return primes[: bisect_right(primes, n)].tolist()


@dataclass(frozen=True)
class Factorization:
    """A certified prime factorization: value == prod(p**e)."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise InvariantError("factorization value must be positive")
        prod = 1
        last = 1
        for p, e in self.factors:
            if e < 1:
                raise InvariantError("exponents must be >= 1")
            if p <= last:
                raise InvariantError("prime factors must be strictly increasing")
            if not is_prime(p):
                raise InvariantError(f"{p} is not prime")
            prod *= p**e
            last = p
        if prod != self.value:
            raise InvariantError("factor product does not match value")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


# factor's Factorization of each n <= SMALL_FACTOR_BOUND it was asked for
_FACTORED: dict[int, Factorization] = {}


def factor(n: int) -> Factorization:
    """Factor a positive integer (not a bool) by trial division by the
    sieve's primes; for n <= SMALL_FACTOR_BOUND once per process, the
    result kept and returned again.

    A cofactor left past them is prime up to 10^12; above, it must be
    proven prime by is_prime (deterministic below psi_13 ~ 3.3e24), else
    CompositeResidueError signals that the input is out of desk scale.
    """
    check_int(n, "n", 1)
    known = _FACTORED.get(n)
    if known is None:
        known = _trial_division(n)
        if n <= SMALL_FACTOR_BOUND:
            _FACTORED[n] = known
    return known


def _trial_division(n: int) -> Factorization:
    """factor's division of the positive int n, certified by Factorization."""
    m = n
    out: list[tuple[int, int]] = []
    for p in _small_primes()[1]:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    # a cofactor with no prime factor up to TRIAL_DIVISION_BOUND is prime
    # below that bound's square; above it only when is_prime proves it
    if m > TRIAL_DIVISION_BOUND**2 and not (m < _MR_DETERMINISTIC_BOUND and is_prime(m)):
        raise CompositeResidueError(f"cofactor {m} exceeds 10^12 and is not a certified prime")
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def squarefree_part(n: int) -> int:
    """sign(n) times the product of primes dividing n to an odd power."""
    if check_int(n, "n") == 0:
        raise ZeroInputError("squarefree part of 0 is undefined")
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factor(abs(n)).factors:
        if e % 2:
            out *= p
    return sign * out


def is_squarefree(n: int) -> bool:
    if check_int(n, "n") == 0:
        return False
    return all(e == 1 for _, e in factor(abs(n)).factors)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; 0 when gcd(a, n) > 1.
    ArgumentError unless a and n are ints; EvenModulusError for another n."""
    check_int(a, "a")
    if check_int(n, "n") <= 0:
        raise EvenModulusError("Jacobi symbol needs a positive modulus")
    if n % 2 == 0:
        raise EvenModulusError(f"Jacobi symbol undefined for even modulus {n}")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction; ArgumentError unless p
    is a prime int and x an int or a Fraction."""
    check_prime(p)
    # an int carries its own numerator and denominator: no Fraction is built
    x = check_int(x, "x") if isinstance(x, int) else check_rational(x, "x")
    if x == 0:
        raise ZeroInputError("valuation of 0 is undefined")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
