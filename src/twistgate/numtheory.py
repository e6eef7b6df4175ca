"""Exact integer primitives: factorization, squarefree parts, Jacobi symbols,
p-adic valuations.

Everything here is pure and exact (Python big integers, fractions.Fraction
for rationals).  Factoring is plain trial division with a hard cofactor
bound: the inputs this package meets (twist parameters below 10^4,
discriminants and conductors below ~10^23 whose prime factors are small) all
factor instantly, and anything else is out of desk scale on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositeResidueError, EvenModulusError, InvariantError, ZeroInputError

TRIAL_DIVISION_BOUND = 10**6
COFACTOR_BOUND = 10**12

# Witness set deterministic for n < 3.3 * 10^24 (covers our certification
# bound of 3 * 10^18 with room to spare).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_CERTIFIED_BOUND = 3 * 10**18


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24; sufficient for desk scale."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
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
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


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
                raise InvariantError("primes must be strictly increasing")
            if not is_prime(p):
                raise InvariantError(f"{p} is not prime")
            prod *= p**e
            last = p
        if prod != self.value:
            raise InvariantError("factor product does not match value")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factor(n: int) -> Factorization:
    """Factor a positive integer by trial division up to 10^6.

    A leftover cofactor above 10^12 is accepted only if it can be certified
    prime (below 3e18); otherwise CompositeResidueError signals that the
    input is out of desk scale.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("factor expects a positive integer")
    m = n
    out: list[tuple[int, int]] = []

    def strip(p: int):
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
    while p <= TRIAL_DIVISION_BOUND and p * p <= m:
        strip(p)
        p += step
        step = 6 - step
    if m > 1:
        if p * p > m or m <= COFACTOR_BOUND:
            # no divisor below min(p, 10^6), so m is prime
            out.append((m, 1))
        elif m < _MR_CERTIFIED_BOUND and is_prime(m):
            out.append((m, 1))
        else:
            raise CompositeResidueError(
                f"cofactor {m} exceeds 10^12 and is not a certified prime"
            )
    return Factorization(n, tuple(out))


def squarefree_part(n: int) -> int:
    """sign(n) times the product of primes dividing n to an odd power."""
    if n == 0:
        raise ZeroInputError("squarefree part of 0 is undefined")
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factor(abs(n)).factors:
        if e % 2:
            out *= p
    return sign * out


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factor(abs(n)).factors)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; 0 when gcd(a, n) > 1."""
    if n <= 0:
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
    """p-adic valuation of a nonzero integer or Fraction."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        raise ZeroInputError("valuation of 0 is undefined")
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    if isinstance(x, int):
        return _int_valuation(x, p)
    raise TypeError(f"valuation expects int or Fraction, got {type(x).__name__}")
