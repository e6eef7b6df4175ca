"""Point-level and module-level descent checks for quadratic twists.

Two independent pieces:

* Exact arithmetic in Q(sqrt(d)) and the twist correspondence on points of
  a short model y^2 = x^3 + A x + B: the map (x, y) -> (d x, d sqrt(d) y)
  lands on y^2 = x^3 + A d^2 x + B d^3, sends conjugation-anti-invariant
  points (x rational, y in sqrt(d) Q) to rational points of the twist, and
  sends rational points with y != 0 off the rational locus.  For elliptic
  curve points "anti-invariant" means sigma(P) = -P, the group inverse.
  Arithmetic results inherit their operands' check on d, so the integer
  point search factors d once and builds elements only for points found.

* Finite 2-group modules with r commuting involutions: for every element m,
  2^r m decomposes as the sum over sign characters s of
  v_s = sum_sigma s_sigma m^sigma, each v_s lying in the s-eigenspace M_s.
  lemma_sum_check verifies this exhaustively, for all elements at once as
  numpy array equalities, and returns the components as one int64 array
  indexed [character, element, coordinate].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .errors import (
    ArgumentError,
    LemmaSumSizeError,
    NonCommutingActionError,
    NonInvolutiveActionError,
    NotOnCurveError,
    NotSquarefreeError,
)
from .numtheory import check_int, check_rational, check_tuple, is_squarefree

MAX_SEARCH_HEIGHT = 10**4
MAX_MODULE_SIZE = 2**16
# Most products lemma_sum_check may make on one module (2^(k n) elements x 4^r
# products) and over enumerate_signed_modules(k, n, r) (|pool|^r such modules);
# at the bound, under 0.3 s (2-core Xeon host).
MAX_LEMMA_SUM_WORK = 2**19


@dataclass(frozen=True)
class QuadElt:
    """Element a + b sqrt(d) of Q(sqrt(d)), d squarefree and not 0 or 1."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", check_rational(self.a, "a"))
        object.__setattr__(self, "b", check_rational(self.b, "b"))
        if check_int(self.d, "d") in (0, 1) or not is_squarefree(self.d):
            raise NotSquarefreeError(f"field parameter {self.d} must be squarefree, not 0 or 1")

    @classmethod
    def _checked(cls, a: Fraction, b: Fraction, d: int) -> "QuadElt":
        """a + b sqrt(d) for Fractions a, b and a d already checked."""
        elt = object.__new__(cls)
        elt.__dict__.update(a=a, b=b, d=d)
        return elt

    @classmethod
    def rational(cls, value, d: int) -> "QuadElt":
        return cls(check_rational(value, "value"), Fraction(0), d)

    def _coerce(self, other) -> "QuadElt":
        if isinstance(other, QuadElt):
            if other.d != self.d:
                raise ArgumentError("elements live in different quadratic fields")
            return other
        return QuadElt._checked(check_rational(other, "other"), Fraction(0), self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadElt._checked(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt._checked(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadElt._checked(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        conj = o.conjugate()
        num = self * conj
        return QuadElt._checked(num.a / n, num.b / n, self.d)

    def conjugate(self) -> "QuadElt":
        return QuadElt._checked(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_anti_rational(self) -> bool:
        """True for elements of sqrt(d) Q (zero included)."""
        return self.a == 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.d})"


@dataclass(frozen=True)
class QuadPoint:
    """A point of y^2 = x^3 + A x + B with coordinates in Q(sqrt(d))."""

    x: QuadElt
    y: QuadElt
    curve: tuple[Fraction, Fraction]

    def __post_init__(self):
        A, B = check_tuple(self.curve, "curve", 2)
        object.__setattr__(self, "curve", (check_rational(A, "A"), check_rational(B, "B")))
        if self.x.d != self.y.d:
            raise ArgumentError("coordinates live in different quadratic fields")
        A, B = self.curve
        lhs = self.y * self.y
        rhs = self.x * self.x * self.x + A * self.x + B
        if lhs.a != rhs.a or lhs.b != rhs.b:
            raise NotOnCurveError(f"({self.x}, {self.y}) is not on y^2 = x^3 + {A}x + {B}")

    @property
    def d(self) -> int:
        return self.x.d

    @property
    def is_anti_invariant(self) -> bool:
        """sigma(P) = -P: rational x, y in sqrt(d) Q (2-torsion included)."""
        return self.x.is_rational and self.y.is_anti_rational

    @property
    def is_invariant(self) -> bool:
        """sigma(P) = P: both coordinates rational."""
        return self.x.is_rational and self.y.is_rational


def quad_point_search(
    curve: tuple[Fraction, Fraction], d: int, height: int
) -> list[QuadPoint]:
    """Points of the curve over Q(sqrt(d)) with rational x of bounded height.

    Scans x = m/n with |m|, n <= height and keeps x whenever f(x) is zero, a
    rational square (rational point, invariant), or d times a rational
    square (anti-invariant point y = y0 sqrt(d)).  One representative with
    nonnegative y is returned per x.  With D = lcm of the denominators of A
    and B, the integer F = D n (D m^3 + D A m n^2 + D B n^3) is D^2 n^4 f(x),
    so f(x) is a square iff F is, and d times a square iff d F is a square.
    ArgumentError unless d and height are ints, height in [1,
    MAX_SEARCH_HEIGHT], and the curve a pair (A, B) of ints or Fractions;
    NotSquarefreeError for an int d not squarefree > 1.
    """
    if check_int(d, "d") <= 1 or not is_squarefree(d):
        raise NotSquarefreeError(f"search needs a squarefree integer d > 1, got {d}")
    check_int(height, "height", 1, MAX_SEARCH_HEIGHT)
    A, B = check_tuple(curve, "curve", 2)
    A = check_rational(A, "A")
    B = check_rational(B, "B")
    D = lcm(A.denominator, B.denominator)
    DA, DB = int(D * A), int(D * B)
    zero = Fraction(0)
    points = []
    for n in range(1, height + 1):
        for m in range(-height, height + 1):
            if gcd(m, n) != 1:
                continue
            F = D * n * (D * m**3 + DA * m * n * n + DB * n**3)
            if F >= 0 and isqrt(F) ** 2 == F:
                y = QuadElt._checked(Fraction(isqrt(F), D * n * n), zero, d)
            elif F > 0 and isqrt(d * F) ** 2 == d * F:
                y = QuadElt._checked(zero, Fraction(isqrt(d * F), d * D * n * n), d)
            else:
                continue
            points.append(QuadPoint(QuadElt._checked(Fraction(m, n), zero, d), y, (A, B)))
    return points


def twist_curve(curve: tuple[Fraction, Fraction], d: int) -> tuple[Fraction, Fraction]:
    """(A d^2, B d^3), the twist by d of y^2 = x^3 + A x + B.  ArgumentError
    unless the curve is a pair (A, B) of ints or Fractions and d is an int;
    NotSquarefreeError for d = 0."""
    A, B = check_tuple(curve, "curve", 2)
    A = check_rational(A, "A")
    B = check_rational(B, "B")
    if check_int(d, "d") == 0:
        raise NotSquarefreeError("the twist parameter 0 is not squarefree")
    return (A * d * d, B * d**3)


def twist_map(P: QuadPoint, d: int) -> QuadPoint:
    """Image of P under (x, y) -> (d x, d sqrt(d) y) on the twist by d.

    Anti-invariant points land on rational points of the twist; invariant
    points with y != 0 land off the rational locus.  The image is verified
    on the twisted equation exactly (QuadPoint construction re-checks).
    ArgumentError unless P is a QuadPoint over Q(sqrt(d)).
    """
    if not isinstance(P, QuadPoint):
        raise ArgumentError(f"P must be a QuadPoint, got {P!r}")
    if d != P.d:
        raise ArgumentError(f"point lives over Q(sqrt({P.d})), not Q(sqrt({d}))")
    sqrt_d = QuadElt._checked(Fraction(0), Fraction(1), d)
    x_new = P.x * d
    y_new = P.y * sqrt_d * d
    return QuadPoint(x_new, y_new, twist_curve(P.curve, d))


# ---------------------------------------------------------------------------
# signed modules and the 2^r decomposition


Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SignedModule:
    """(Z/2^k)^n acted on by r commuting involutions given as matrices;
    ArgumentError unless k, n >= 1 and each generator is n x n, of ints."""

    k: int
    n: int
    generators: tuple[Matrix, ...]

    def __post_init__(self):
        check_int(self.k, "k", 1)
        check_int(self.n, "n", 1)
        mod = self.modulus
        gens = tuple(
            tuple(
                tuple(
                    check_int(entry, "a generator entry") % mod
                    for entry in check_tuple(row, "a generator row", self.n)
                )
                for row in check_tuple(g, "a generator", self.n)
            )
            for g in check_tuple(self.generators, "generators")
        )
        object.__setattr__(self, "generators", gens)
        # arrays of Python integers (dtype object) stay exact for every k
        ident = np.identity(self.n, dtype=object)
        for g in gens:
            a = np.array(g, dtype=object)
            if ((a @ a - ident) % mod).any():
                raise NonInvolutiveActionError(f"generator {g} does not square to 1 mod {mod}")
        for g, h in itertools.combinations(gens, 2):
            a, b = np.array(g, dtype=object), np.array(h, dtype=object)
            if ((a @ b - b @ a) % mod).any():
                raise NonCommutingActionError(f"generators {g} and {h} do not commute mod {mod}")

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def modulus(self) -> int:
        return 2**self.k

    @property
    def size(self) -> int:
        return 2 ** (self.k * self.n)

    def elements(self):
        return itertools.product(range(self.modulus), repeat=self.n)

    def group_elements(self) -> list[tuple[tuple[int, ...], Matrix]]:
        """All 2^r products of generators as (exponent bits, matrix)."""
        gens = [np.array(g, dtype=object) for g in self.generators]
        out = []
        for bits in itertools.product((0, 1), repeat=self.r):
            mat = np.identity(self.n, dtype=object)
            for bit, g in zip(bits, gens):
                if bit:
                    mat = mat @ g % self.modulus
            out.append((bits, tuple(map(tuple, mat.tolist()))))
        return out


def characters(r: int) -> list[tuple[int, ...]]:
    """All sign characters of (Z/2)^r, an int r >= 0, the trivial one first."""
    return list(itertools.product((1, -1), repeat=check_int(r, "r", 0)))


@dataclass(frozen=True)
class LemmaSumResult:
    """components[s, i] is v_s for the s-th character of characters(r) and the
    i-th element of module.elements(): read-only int64, shape (2^r, size, n)."""

    passed: bool
    components: np.ndarray
    failures: tuple[str, ...]


def involutive_generator_pool(k: int, n: int) -> list[Matrix]:
    """Diagonal matrices with self-inverse entries, plus the swap for n = 2."""
    mod = 2**k
    units = [x for x in range(mod) if x * x % mod == 1]
    pool: list[Matrix] = []
    for diag in itertools.product(units, repeat=n):
        pool.append(tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)))
    if n == 2:
        pool.append(((0, 1), (1, 0)))
    return pool


def enumerate_signed_modules(k: int, n: int, r: int) -> list[SignedModule]:
    """All SignedModules on (Z/2^k)^n with r generators from the pool.

    Non-commuting combinations are skipped (every pool matrix is already
    involutive); repeated generators are allowed, they just act through a
    quotient of (Z/2)^r.  Before the pool is built, ArgumentError unless
    k, n >= 1 and r >= 0, and LemmaSumSizeError when a bound
    (MAX_MODULE_SIZE, MAX_LEMMA_SUM_WORK) would be exceeded.
    """
    check_int(k, "k", 1)
    check_int(n, "n", 1)
    check_int(r, "r", 0)
    if k * n > MAX_MODULE_SIZE.bit_length() - 1:
        raise LemmaSumSizeError(f"(Z/2^{k})^{n} has more than {MAX_MODULE_SIZE} elements")
    pool = involutive_generator_pool(k, n)
    # each generator multiplies the work by 4 |pool| >= 4, so testing r
    # first rejects a large r before the power is taken
    work_bits = MAX_LEMMA_SUM_WORK.bit_length()
    if r >= work_bits // 2 or 2 ** (k * n) * (4 * len(pool)) ** r > MAX_LEMMA_SUM_WORK:
        raise LemmaSumSizeError(
            f"{len(pool)}^{r} modules x 2^{k * n} elements x 4^{r} products "
            f"exceed {MAX_LEMMA_SUM_WORK}"
        )
    modules = []
    for gens in itertools.product(pool, repeat=r):
        try:
            modules.append(SignedModule(k, n, gens))
        except NonCommutingActionError:
            continue
    return modules


def lemma_sum_check(module: SignedModule) -> LemmaSumResult:
    """Exhaustively verify 2^r m = sum_s v_s with v_s in M_s for all m.

    v_s = sum over group elements sigma of s_sigma * sigma(m).  Membership
    v_s in M_s is checked by applying every sigma, and the decomposition
    identity is checked mod 2^k, for all m at once as int64 arrays.  Fails
    are collected per m in character and group order.  The components v_s
    are returned as one array, laid out as LemmaSumResult describes.
    LemmaSumSizeError above MAX_MODULE_SIZE elements, or above
    MAX_LEMMA_SUM_WORK products (size x 4^r), before any product is taken.
    """
    if module.size > MAX_MODULE_SIZE:
        raise LemmaSumSizeError(f"module has {module.size} elements, above {MAX_MODULE_SIZE}")
    if module.size * 4**module.r > MAX_LEMMA_SUM_WORK:
        raise LemmaSumSizeError(
            f"{module.size} elements x 4^{module.r} products exceed {MAX_LEMMA_SUM_WORK}"
        )
    mod, n = module.modulus, module.n
    group = module.group_elements()
    signs = characters(module.r)
    # values[s, sigma] = s(sigma) = (-1)^popcount(c & g), c and g the bits of
    # the character's -1s and of sigma's generators, read from both lists
    # as they are, so no row or column is reordered
    c = np.array(signs, dtype=np.int64).reshape(len(signs), module.r) == -1
    g = np.array([bits for bits, _ in group], dtype=np.int64).reshape(len(group), module.r)
    values = 1 - 2 * (c @ g.T % 2)
    # transposed, so that a row vector times mats[sigma] is sigma(m); the
    # size bound keeps k <= 16, so no int64 product overflows
    mats = np.array([mat for _, mat in group], dtype=np.int64).transpose(0, 2, 1)
    # row i is the i-th element of module.elements(): the last coordinate
    # varies fastest, as in itertools.product
    ms = np.indices((mod,) * n, dtype=np.int64).reshape(n, -1).T
    images = ms @ mats % mod  # [sigma, m]
    comps = np.tensordot(values, images, axes=1) % mod  # [s, m]: v_s
    # v_s must lie in the s-eigenspace: sigma(v_s) = s_sigma v_s for all sigma
    escapes = np.stack(
        [((v @ mats - s_values[:, None, None] * v) % mod).any(axis=2)
         for v, s_values in zip(comps, values)]
    )  # [s, sigma, m]
    totals = comps.sum(axis=0) % mod
    wants = ms * pow(2, module.r, mod) % mod
    wrong_sum = (totals != wants).any(axis=1)
    failures = []
    for i in np.flatnonzero(escapes.any(axis=(0, 1)) | wrong_sum).tolist():
        m = tuple(ms[i].tolist())
        failures += [
            f"m={m}: component for {chi} escapes its eigenspace"
            for chi, row in zip(signs, escapes[:, :, i]) for bad in row if bad
        ]
        if wrong_sum[i]:
            total, want = tuple(totals[i].tolist()), tuple(wants[i].tolist())
            failures.append(f"m={m}: components sum to {total}, expected {want}")
    comps.setflags(write=False)
    return LemmaSumResult(not failures, comps, tuple(failures))
