"""Small exact-integer helpers owned by the benchmark.

The generator and the correctness checks use these instead of the
library's numtheory, so that building inputs warms no program state and
the independent checks do not share code with what they check.
"""

from __future__ import annotations

import itertools
import math


def factor(n: int) -> dict[int, int]:
    """Prime factorisation of a positive integer by trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    return n > 0 and all(e == 1 for e in factor(n).values())


def squarefree_part(n: int) -> int:
    out = 1
    for q, e in factor(n).items():
        if e % 2:
            out *= q
    return out


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a/q) for an odd prime q by Euler's criterion."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, as a product of Legendre symbols."""
    out = 1
    for q, e in factor(n).items():
        out *= legendre(a, q) ** e
    return out


def discriminant(ainvs) -> int:
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def j_invariant(ainvs) -> tuple[int, int]:
    """j = c4^3 / Delta as a reduced (numerator, denominator) pair."""
    a1, a2, a3, a4, _ = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    c4 = b2 * b2 - 24 * b4
    num, den = c4**3, discriminant(ainvs)
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return (-num, -den) if den < 0 else (num, den)


def admissible_single(p: int, d: int) -> bool:
    """d squarefree, 1 mod 4, prime to 3p, with Jacobi symbol (d/3p) = +1."""
    n3p = 3 * p
    return d % 4 == 1 and math.gcd(d, n3p) == 1 and is_squarefree(d) and jacobi(d, n3p) == 1


def independent_mod_squares(ds) -> bool:
    """No nonempty subset of ds multiplies to a perfect square."""
    for size in range(1, len(ds) + 1):
        for combo in itertools.combinations(ds, size):
            prod = math.prod(combo)
            if math.isqrt(prod) ** 2 == prod:
                return False
    return True


def admissible_tuples(p: int, r: int, bound: int) -> list[tuple[int, ...]]:
    """All admissible r-tuples d_1 < ... < d_r <= bound, lexicographic."""
    singles = [d for d in range(1, bound + 1) if admissible_single(p, d)]
    return [
        combo
        for combo in itertools.combinations(singles, r)
        if independent_mod_squares(combo)
    ]


def character_discriminants(ds) -> list[int]:
    """Squarefree parts of the subset products, in the order of the sign
    characters itertools.product((1, -1), repeat=r), the trivial one first."""
    out = []
    for signs in itertools.product((1, -1), repeat=len(ds)):
        prod = math.prod(d for d, s in zip(ds, signs) if s == -1)
        out.append(squarefree_part(prod))
    return out
