"""Integral Weierstrass models over Q: invariants, short form, quadratic
twists, per-prime minimalization for p >= 5, and the bundled curve table.

Standard formulary for y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6:

    b2 = a1^2 + 4 a2          c4 = b2^2 - 24 b4
    b4 = 2 a4 + a1 a3         c6 = -b2^3 + 36 b2 b4 - 216 b6
    b6 = a3^2 + 4 a6          1728 Delta = c4^3 - c6^2
    b8 = a1^2 a6 + 4 a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2
    j = c4^3 / Delta

Twists and minimalizations are built by reconstructing an integral model
from a target (c4, c6) pair.  Candidate models can be normalized to
a1, a3 in {0, 1} and a2 in {-1, 0, 1} without touching (c4, c6), so the
reconstruction only has to scan b2 = a1 + 4*a2 over six values; it succeeds
exactly when the classical integrality conditions on (c4, c6) hold.  This
keeps the valuation profile of (c4, c6, Delta) unchanged at every prime not
being rescaled, which downstream reduction-type code relies on.

Input models are assumed globally minimal at 2 and 3 (the bundled table
models are); minimalization at 2 and 3 is deliberately unsupported.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .errors import (
    ArgumentError,
    CurveTableError,
    InvariantError,
    NotSquarefreeError,
    SingularCurveError,
    UnsupportedPrimeError,
)
from .numtheory import check_int, check_prime, factor, is_squarefree, valuation


@dataclass(frozen=True)
class WeierstrassModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    _inv: CurveInvariants | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, a in zip(("a1", "a2", "a3", "a4", "a6"), self.ainvs()):
            check_int(a, name)

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self) -> str:
        return "[%d,%d,%d,%d,%d]" % self.ainvs()


@dataclass(frozen=True)
class CurveInvariants:
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    delta: int
    j: Fraction


def invariants(E: WeierstrassModel) -> CurveInvariants:
    """The standard invariants, computed once per model; raises
    SingularCurveError if Delta = 0."""
    if E._inv is not None:
        return E._inv
    a1, a2, a3, a4, a6 = E.ainvs()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if delta == 0:
        raise SingularCurveError(f"curve {E} is singular (Delta = 0)")
    if c4**3 - c6**2 != 1728 * delta or 4 * b8 != b2 * b6 - b4 * b4:
        raise InvariantError(f"invariant identities fail for {E}")
    inv = CurveInvariants(b2, b4, b6, b8, c4, c6, delta, Fraction(c4**3, delta))
    # the model is frozen; the invariants are a memo, set here only
    object.__setattr__(E, "_inv", inv)
    return inv


def short_form(E: WeierstrassModel) -> tuple[Fraction, Fraction]:
    """Coefficients (A, B) of the isomorphic short model y^2 = x^3 + A x + B."""
    inv = invariants(E)
    return Fraction(-inv.c4, 48), Fraction(-inv.c6, 864)


# b2 = a1 + 4*a2 for the normalized choices a1 in {0,1}, a2 in {-1,0,1}
_REDUCED_B2 = (-4, -3, 0, 1, 4, 5)


def model_from_c4c6(c4: int, c6: int) -> WeierstrassModel | None:
    """Integral model with invariants exactly (c4, c6), or None.

    None means the pair fails the integrality conditions at 2 or 3 (no
    integral Weierstrass equation has these invariants).
    """
    if c4**3 == c6**2:
        raise SingularCurveError("(c4, c6) pair is singular")
    if (c4**3 - c6**2) % 1728:
        return None
    for b2 in _REDUCED_B2:
        if (b2 * b2 - c4) % 24:
            continue
        b4 = (b2 * b2 - c4) // 24
        num = -(b2**3) + 36 * b2 * b4 - c6
        if num % 216:
            continue
        b6 = num // 216
        a1 = b2 & 1
        a2 = (b2 - a1) // 4
        a3 = b6 & 1
        if (b6 - a3) % 4:
            continue
        a6 = (b6 - a3) // 4
        if (b4 - a1 * a3) % 2:
            continue
        a4 = (b4 - a1 * a3) // 2
        model = WeierstrassModel(a1, a2, a3, a4, a6)
        got = invariants(model)
        if (got.c4, got.c6) == (c4, c6):
            return model
    return None


def quadratic_twist(E: WeierstrassModel, d: int) -> WeierstrassModel:
    """Integral model of the quadratic twist of E by squarefree d.

    The twist of y^2 = x^3 + A x + B is y^2 = x^3 + A d^2 x + B d^3, i.e. it
    has invariants (c4 d^2, c6 d^3).  We return the integral model with
    exactly those invariants whenever one exists (always the case for
    d = 1 mod 4 twists of 2,3-minimal curves, and the result is then again
    2,3-minimal).  Otherwise we fall back to clearing denominators of the
    short model by the least scaling (x, y) -> (u^2 x, u^3 y), u made of 2s
    and 3s.  ArgumentError unless d is an int; NotSquarefreeError for an
    int d that is not squarefree, 0 included.
    """
    if not is_squarefree(check_int(d, "d")):
        raise NotSquarefreeError(f"twist parameter {d} is not squarefree")
    inv = invariants(E)
    model = model_from_c4c6(inv.c4 * d * d, inv.c6 * d**3)
    if model is not None:
        return model
    A, B = short_form(E)
    At = A * d * d
    Bt = B * d**3
    u = 1
    for q, e in factor(math.lcm(At.denominator, Bt.denominator)).factors:
        eA = valuation(At.denominator, q)
        eB = valuation(Bt.denominator, q)
        u *= q ** max(-(-eA // 4), -(-eB // 6))
    a4 = At * u**4
    a6 = Bt * u**6
    if a4.denominator != 1 or a6.denominator != 1:
        raise InvariantError(f"scaling by u = {u} left ({a4}, {a6}) non-integral")
    return WeierstrassModel(0, 0, 0, int(a4), int(a6))


def minimalize_at(E: WeierstrassModel, p: int) -> WeierstrassModel:
    """p-minimal model for p >= 5, reached by (c4, c6) -> (c4/p^4, c6/p^6).

    Idempotent; leaves the (c4, c6, Delta) valuations at every other prime
    untouched.  Minimalization at 2 and 3 is out of scope
    (UnsupportedPrimeError); a p that is not a prime int raises ArgumentError.
    """
    check_prime(p)
    if p in (2, 3):
        raise UnsupportedPrimeError(f"minimalization at p = {p} is not supported")
    inv = invariants(E)
    c4, c6, delta = inv.c4, inv.c6, inv.delta
    k = 0
    while delta % p ** (12 * (k + 1)) == 0 and (
        c4 == 0 or c4 % p ** (4 * (k + 1)) == 0
    ):
        k += 1
    if k == 0:
        return E
    model = model_from_c4c6(c4 // p ** (4 * k), c6 // p ** (6 * k))
    # dividing by p^4/p^6 with p >= 5 preserves the integrality conditions
    # at 2 and 3, so reconstruction cannot fail for an integral input
    if model is None:
        raise InvariantError(f"no integral model of {E} divided by {p}^{k}")
    return model


# The two bundled curves are pinned to their known j-invariants; a table
# carrying different models under these labels is rejected at load time.
PINNED_J = {
    "15a1": Fraction(13**3 * 37**3, 3**4 * 5**4),
    "21a1": Fraction(193**3, 3**4 * 7**2),
}

CURVES_ENV_VAR = "TWISTGATE_CURVES"

_table_cache: dict[str | os.PathLike | None, dict[str, WeierstrassModel]] = {}


def load_curve_table(path: str | os.PathLike | None = None) -> dict[str, WeierstrassModel]:
    """Parse a curve table (label TAB a1..a6 per line, '#' comments).

    With no path, uses $TWISTGATE_CURVES if set, else the bundled table.
    ArgumentError unless path is None, a str or an os.PathLike.
    """
    if path is None:
        path = os.environ.get(CURVES_ENV_VAR) or None
    elif not isinstance(path, (str, os.PathLike)):
        # an int would be opened as a file descriptor, and closed after
        raise ArgumentError(f"path must be a str or an os.PathLike, got {path!r}")
    # keyed by the path itself, None for the bundled table: no str stands
    # for it, so "" or "<bundled>" is read as a file
    if path in _table_cache:
        return _table_cache[path]
    if path is None:
        text = resources.files("twistgate").joinpath("curves.tsv").read_text()
    else:
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise CurveTableError(f"cannot read curve table {path!r}: {exc}") from exc
    table: dict[str, WeierstrassModel] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise CurveTableError(f"line {lineno}: expected 6 tab-separated fields")
        label = parts[0].strip().lower()
        if label in table:
            raise CurveTableError(f"line {lineno}: duplicate label {label!r}")
        try:
            model = WeierstrassModel(*(int(s) for s in parts[1:]))
        except ValueError as exc:
            raise CurveTableError(f"line {lineno}: bad coefficient ({exc})") from exc
        inv = invariants(model)  # rejects singular rows
        pinned = PINNED_J.get(label)
        if pinned is not None and inv.j != pinned:
            raise CurveTableError(
                f"line {lineno}: curve {label} has j = {inv.j}, expected {pinned}"
            )
        table[label] = model
    _table_cache[path] = table
    return table


def curve_by_label(label: str) -> WeierstrassModel:
    """The loaded table's model under label; ArgumentError unless a str."""
    if not isinstance(label, str):
        raise ArgumentError(f"label must be a str, got {label!r}")
    model = load_curve_table().get(label.strip().lower())
    if model is None:
        raise CurveTableError(f"unknown curve label {label!r}")
    return model
