"""Reduction data at primes: point counts over F_p, reduction-type
classification, traces of Frobenius, conductors, and LocalData: the one
record of a model's local data that root numbers, L-series coefficients and
the Serre check read.  classify(E, p) is the one entry at every prime, 2
included: it p-minimalizes for p >= 5 and hands the model to _reduction.

A record is built once per curve per operation, by the code that made the
curve, and passed down (a curve of the curve table and its twists keep
theirs for the process, below): local_data(E) returns E when E is a
record, so each function that only reads local data takes a model or its
record, and so do count_points and classify.  Every function reads a
curve's invariants as invariants(model), which computes them once per
model.

_reduction decides reduction data at a prime, one prime at a time, for
classify, LocalData.at and so the CLI: at a good prime from BSGS_FROM to
BSGS_BOUND by Shanks-Mestre baby-step giant-step (_trace_bsgs, O(p^(1/4))
group operations), below it and wherever that cannot decide by a point
count (O(p)), each result checked by ReductionData.  It alone refuses a
model visibly non-minimal at 2 or 3, where nothing minimalizes, and a good
prime above BSGS_BOUND.  Every record keeps a table of a_p at its good odd
primes, which grows on demand in traces_up_to: _trace_bsgs's first point
decides all its new primes from 5 on together in numpy int64 lanes, one
lane per prime, which match their steps by affine x (_lane_traces),
wherever it leaves one group order.  _reduction decides p = 3 and the
stragglers, the lanes left undecided, each with the candidates for #E that
its lane proved: from BSGS_FROM on _trace_bsgs starts at its second point;
below, and where that cannot decide, the point count must lie among them.
at(p) keeps only the primes it is asked for, 2 and the primes of Delta in
LocalData.traces(M), which returns a_p to M as one array indexed by p.
Each curve X of the loaded curve table has one record per process, which
local_data() hands to every caller, so X's table lasts for the process.
X.twist(d) is the record of the quadratic twist X^d, made once per d and
kept by X, so X's twists, their reduction data and their L-value sums
(lseries) last for the process too.  A record also remembers its
conductor (LocalData.conductor) and global root number (rootnum), each
decided once and kept only once complete.  A record is a plain object
that holds these caches, written by plain assignment here, in lseries (the
sums) and in rootnum (the root number); it compares and hashes by identity.
The twist is linked to X as its base: LocalData.traces then takes
a_p(X^d) = (d/p) a_p(X) from X's table at the odd primes p not dividing
Delta(X^d), vectorized over p, and reads p = 2 and the other primes from
at(p) on X^d itself, so reduction kinds and errors are those of X^d.  A
model that is not built by twist() counts its own points.

Point counts follow the convention that the count of a bad reduction
includes the singular point (and the point at infinity), so that

    p + 1 - #X(F_p)  =  0   additive
                        1   split multiplicative
                       -1   nonsplit multiplicative

and equals a_p with |a_p| <= 2 sqrt(p) at good primes.  Every ReductionData
asserts this table literally; a lane's a_p lies in the Hasse interval by
construction.  Points are counted only at 2, at good primes below
BSGS_FROM that classify is asked for, at p = 3 and the stragglers below
BSGS_FROM of a table, and where _trace_bsgs cannot decide.  At an odd bad
prime p the table is derived on the p-minimal model instead: the singular
point is a node iff p does not divide c4, and the node's tangents are
rational (split reduction) iff -c6 is a square mod p, so a_p = (-c6/p)
(Cremona, Algorithms for Modular Elliptic Curves, 3.2; Silverman, Advanced
Topics, IV.9); else it is a cusp and a_p = 0.  The tests keep the point
count as the oracle of this derivation, p = 3 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .curve import (
    CurveInvariants,
    WeierstrassModel,
    invariants,
    load_curve_table,
    minimalize_at,
    quadratic_twist,
)
from .errors import (
    InvariantError,
    NonMinimalModelError,
    PrimeTooLargeError,
    UnsupportedReductionAtTwoError,
    UnsupportedReductionError,
)
from .numtheory import TRIAL_DIVISION_BOUND, check_int, check_prime, factor, jacobi
from .numtheory import primes_up_to, valuation

POINT_COUNT_BOUND = 10**6
# _reduction decides good primes from BSGS_FROM on by _trace_bsgs: measured
# per prime, it is level with the point count at p ~ 150-230 and faster
# above, and above 229 Mestre's theorem leaves E or its twist a point that
# decides a_p.  The count decides where BSGS_POINTS points did not (never
# seen above 229).
BSGS_FROM = 230
BSGS_POINTS = 16
# _reduction refuses a good prime above BSGS_BOUND with PrimeTooLargeError:
# _trace_bsgs keeps about (4p)^(1/4) baby steps, and at p = 10^18 + 3 it took
# 0.74-0.90 s and 47 MB peak process memory (one core of a 2-core Xeon host).
BSGS_BOUND = 10**18
# LocalData.traces_up_to decides all its new good primes from 5 on by
# _lane_traces, which takes _trace_bsgs's first point in one numpy int64
# lane per prime; the stragglers, the lanes whose first point leaves more
# than one group order, go to _reduction, each with those orders.  Below
# 2 * 10^4 the stragglers from BSGS_FROM on are 1 lane in 12 on curves with
# rational torsion (15a1: 181 of 2 212) and 1 in 23 on the lvalue-fresh
# curves without ([0,-1,1,-29,-30]: 95 of 2 211); below BSGS_FROM they are
# 9-29 of a curve's 46-48 primes.  Each lane's prime is below
# LANE_PRIME_BOUND, so that every product of two residues stays below 2^62.
# A batch matches its giant with its baby steps in one comparison of
# steps x (m + 1) x lanes bytes; BSGS_LANES = 1024 lanes a batch bound it:
# on 15a1 a batch of the largest primes below 10^6 peaks at 6.5 MB under
# tracemalloc (2048 lanes: 12.9 MB), and its table to 10^6 fills in 1.8-2.0 s
# (one core of a 2-core Xeon host).
LANE_PRIME_BOUND = 2**31
BSGS_LANES = 1024


class ReductionKind(str, Enum):
    GOOD = "good"
    MULT_SPLIT = "mult-split"
    MULT_NONSPLIT = "mult-nonsplit"
    ADD_POT_GOOD = "add-pot-good"
    ADD_POT_MULT = "add-pot-mult"

    @property
    def is_multiplicative(self) -> bool:
        return self in (ReductionKind.MULT_SPLIT, ReductionKind.MULT_NONSPLIT)

    @property
    def is_additive(self) -> bool:
        return self in (ReductionKind.ADD_POT_GOOD, ReductionKind.ADD_POT_MULT)


@dataclass(frozen=True)
class ReductionData:
    p: int
    kind: ReductionKind
    points: int
    a_p: int

    def __post_init__(self):
        defect = self.p + 1 - self.points
        if defect != self.a_p:
            raise InvariantError("a_p must equal p + 1 - points")
        if self.kind is ReductionKind.GOOD:
            if self.a_p * self.a_p > 4 * self.p:
                raise InvariantError(f"Hasse bound violated at p = {self.p}")
        elif self.kind is ReductionKind.MULT_SPLIT:
            if defect != 1:
                raise InvariantError("split multiplicative requires p + 1 - points = 1")
        elif self.kind is ReductionKind.MULT_NONSPLIT:
            if defect != -1:
                raise InvariantError("nonsplit multiplicative requires p + 1 - points = -1")
        else:
            if defect != 0:
                raise InvariantError("additive reduction requires p + 1 - points = 0")


def count_points(E: WeierstrassModel | LocalData, p: int) -> int:
    """#X(F_p) of the reduced equation, singular point included; E is a
    model or its record.

    At p = 2 the four affine pairs are tested directly.  For odd p,
    completing the square turns the count into
    p + 1 + sum_x chi((4 x^3 + b2 x^2 + 2 b4 x + b6) mod p) with chi the
    quadratic character; evaluated vectorized in O(p).
    """
    check_prime(p)
    if p > POINT_COUNT_BOUND:
        raise PrimeTooLargeError(f"p = {p} exceeds the enumeration bound")
    model = E.model if isinstance(E, LocalData) else E
    if p == 2:
        a1, a2, a3, a4, a6 = model.ainvs()
        return 1 + sum(
            (y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    inv = invariants(model)
    x = np.arange(p, dtype=np.int64)
    g = (4 * x + inv.b2 % p) % p
    g = (g * x + (2 * inv.b4) % p) % p
    g = (g * x + inv.b6 % p) % p
    sq = np.zeros(p, dtype=bool)
    sq[(x * x) % p] = True
    nonzero = g != 0
    residues = int(np.count_nonzero(sq[g] & nonzero))
    nonresidues = int(np.count_nonzero(nonzero)) - residues
    return p + 1 + residues - nonresidues


def classify(E: WeierstrassModel | LocalData, p: int) -> ReductionData:
    """Reduction data of E, a model or its record, at any prime p.

    The model is p-minimalized first for p >= 5, then handed to _reduction,
    which refuses a model visibly non-minimal at 2 or 3.
    """
    check_prime(p)
    model = E.model if isinstance(E, LocalData) else E
    return _reduction(minimalize_at(model, p) if p >= 5 else model, p)


def _reduction(
    model: WeierstrassModel, p: int, candidates: set[int] | None = None
) -> ReductionData:
    """Reduction data at p of a model minimal at p, decided here only.  A
    good prime above BSGS_BOUND raises PrimeTooLargeError; one from BSGS_FROM
    on goes to _trace_bsgs, with the candidates for #E that a lane's first
    point left, if given; the other good primes, those it cannot decide,
    and 2 are point-counted, and a count outside the candidates raises
    InvariantError.  At 2, odd Delta is good, odd c4 multiplicative
    (and minimal), and anything else raises.  At 3 a visibly non-minimal
    model (v3(Delta) >= 12 and v3(c4) >= 4) raises NonMinimalModelError.  At
    an odd bad prime a node (p not dividing c4) has a_p = (-c6/p), a cusp 0."""
    inv = invariants(model)
    if p > BSGS_BOUND and inv.delta % p:
        raise PrimeTooLargeError(f"good prime p = {p} exceeds BSGS_BOUND = {BSGS_BOUND}")
    if (
        p >= BSGS_FROM
        and inv.delta % p
        and (data := _trace_bsgs(inv, p, candidates)) is not None
    ):
        return data
    if p == 2 and inv.delta % 2 == 0 and inv.c4 % 2 == 0:
        raise UnsupportedReductionAtTwoError("additive (or non-minimal) reduction at 2")
    if p == 3 and inv.delta % 3**12 == 0 and inv.c4 % 3**4 == 0:
        raise NonMinimalModelError(
            "model may be non-minimal at 3 (v3(Delta) >= 12 and v3(c4) >= 4)"
        )
    if p == 2 or inv.delta % p:
        points = count_points(model, p)
        if candidates is not None and points not in candidates:
            raise InvariantError(f"#E = {points} at p = {p} is not among its lane's candidates")
        a_p = p + 1 - points
    else:
        a_p = jacobi(-inv.c6, p) if inv.c4 % p else 0
        points = p + 1 - a_p
    if inv.delta % p:
        kind = ReductionKind.GOOD
    elif inv.c4 % p:
        # ReductionData rejects any other defect
        kind = ReductionKind.MULT_SPLIT if a_p == 1 else ReductionKind.MULT_NONSPLIT
    elif inv.j != 0 and valuation(inv.j, p) < 0:
        kind = ReductionKind.ADD_POT_MULT
    else:
        kind = ReductionKind.ADD_POT_GOOD
    return ReductionData(p, kind, points, a_p)


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p, affine, None the point at
    infinity (b is implied by the points)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, a: int, p: int):
    """n P for n >= 0, by doubling and adding."""
    R = None
    for bit in bin(n)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _hasse_orders(P, a: int, p: int, H: int) -> set[int]:
    """Every N with |p + 1 - N| <= H and N P = O, by baby steps jP for
    0 <= j <= m and giant steps R_c = (p + 1 - c) P at centres c spaced
    2m + 1 apart across [-H, H]: R_c = +-jP exactly when (p + 1 - c -+ j) P
    = O, so each s = c +- j whose y matches is an s with (p + 1 - s) P = O.

    Every such s is found: O is a baby step (j = 0), so a giant step that
    lands on O matches, and a baby step with y = 0 equals its own negative,
    so it yields both c + j and c - j."""
    m = math.isqrt(H) + 1
    baby: dict = {None: [(0, 0)]}
    Q = None
    for j in range(1, m + 1):
        Q = _ec_add(Q, P, a, p)
        x, y = (None, 0) if Q is None else Q
        baby.setdefault(x, []).append((j, y))
    stride = _ec_add(Q, _ec_add(Q, P, a, p), a, p)
    back = None if stride is None else (stride[0], -stride[1] % p)
    # the first centre is moved down so that R_c is a multiple of the stride
    c = m - H
    c -= (c - p - 1) % (2 * m + 1)
    R = _ec_mul((p + 1 - c) // (2 * m + 1), stride, a, p)
    found = set()
    while c - m <= H:
        x, y = (None, 0) if R is None else R
        for j, yj in baby.get(x, ()):
            if yj == y:
                found.add(c + j)
            if yj == -y % p:
                found.add(c - j)
        R = _ec_add(R, back, a, p)
        c += 2 * m + 1
    return {p + 1 - s for s in found if -H <= s <= H}


def _trace_bsgs(
    inv: CurveInvariants, p: int, candidates: set[int] | None = None
) -> ReductionData | None:
    """Reduction data at a good prime p >= 5 by Shanks-Mestre baby-step
    giant-step (Cohen, A Course in Computational Algebraic Number Theory,
    7.4.3), in O(p^(1/4)) group operations; None when BSGS_POINTS points
    leave more than one candidate.  Given candidates, the values of #E that
    the first point leaves (as _lane_traces hands on a straggler), it skips
    that point and intersects from them, starting at the second; called
    without, it takes every point itself.

    E is y^2 = f(x) = x^3 + A x + B with A = -27 c4, B = -54 c6.  For
    x0 = 0, 1, ... with t = f(x0) != 0, P = (t x0, t^2) lies on
    E_t: y^2 = x^3 + A t^2 x + B t^3, which is E when t is a square mod p
    and its quadratic twist, with 2p + 2 - #E points, when not; no square
    root is needed.  When A = 0 (j = 0) x0 starts at 1, since x0 = 0 gives
    (0, B^2), a point of order 3 on E_t that never decides.  #E lies in
    each point's set of Hasse-interval orders (_hasse_orders, mapped back
    through the twist), so when their intersection is one number it is #E,
    proven.  Mestre's theorem makes it one number for p > 229 once the
    points generate enough."""
    A = -27 * inv.c4 % p
    B = -54 * inv.c6 % p
    H = math.isqrt(4 * p)
    x0 = 0 if A == 0 else -1
    for point in range(BSGS_POINTS):
        t = 0
        while not t:
            x0 += 1
            t = (x0 * x0 * x0 + A * x0 + B) % p
        if point == 0 and candidates is not None:
            continue
        orders = _hasse_orders((t * x0 % p, t * t % p), A * t * t % p, p, H)
        if pow(t, (p - 1) // 2, p) != 1:
            orders = {2 * p + 2 - n for n in orders}
        candidates = orders if candidates is None else candidates & orders
        if len(candidates) == 1:
            (points,) = candidates
            return ReductionData(p, ReductionKind.GOOD, points, p + 1 - points)
        if not candidates:
            raise InvariantError(f"no group order in the Hasse interval at p = {p}")
    return None


def _lane_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b over F_p, one lane per prime p, in
    projective (X, Y, Z) int64 arrays with O = (0 : 1 : 0); every product is
    of two residues below 2^31.  The generic formula already gives O for
    P = -Q; it gives (0 : 0 : 0) exactly when an operand is O or P = Q, and
    only those lanes are patched."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    u = (Y2 * Z1 - Y1 * Z2) % p
    v = (X2 * Z1 - X1 * Z2) % p
    z = Z1 * Z2 % p
    vv = v * v % p
    vvv = vv * v % p
    r = vv * X1 % p * Z2 % p
    w = (u * u % p * z - vvv - 2 * r) % p
    R = (v * w % p, (u * ((r - w) % p) - vvv * (Y1 * Z2 % p)) % p, vvv * z % p)
    patch = np.flatnonzero((R[1] == 0) & (R[2] == 0))
    if len(patch):
        P, Q = (np.array([c[patch] for c in T]) for T in (P, Q))
        fix = np.where(P[2] == 0, Q, P)
        same = np.flatnonzero(P[2] * Q[2])
        if len(same):
            fix[:, same] = _lane_double(P[:, same], a[patch[same]], p[patch[same]])
        for c, f in zip(R, fix):
            c[patch] = f
    return R


def _lane_double(P, a, p):
    """2 P in each lane.  A point with Y = 0 doubles to (0 : -w^3 : 0) = O,
    w != 0 on a nonsingular curve; O, which the formula takes to
    (0 : 0 : 0), is patched to O."""
    X, Y, Z = P
    w = (a * (Z * Z % p) + 3 * (X * X % p)) % p
    s = Y * Z % p
    b = X * Y % p * s % p
    h = (w * w - 8 * b) % p
    ss = s * s % p
    Y2 = (w * ((4 * b - h) % p) - 8 * (Y * Y % p * ss % p)) % p
    if not Z.all():
        Y2 = np.where(Z == 0, 1, Y2)
    return h * s % p * 2 % p, Y2, 8 * (ss * s % p) % p


def _lane_multiple(k, P, a, p):
    """k P in each lane, k >= 0 per lane, by doubling and adding from each
    lane's leading bit, so that no lane passes through O on the way."""
    top = np.array([n.bit_length() - 1 for n in k.tolist()])
    R = np.array(P)
    for bit in reversed(range(int(top.max()))):
        double = _lane_double(R, a, p)
        odd = (k >> bit & 1).astype(bool)
        step = np.where(odd, _lane_add(double, P, a, p), double)
        R = np.where(top > bit, step, R)
    R[:, k == 0] = [[0], [1], [0]]
    return tuple(R)


def _lane_orders(P, a, p, H):
    """For each lane, how many N with |p + 1 - N| <= H have N P = O, the
    least and the greatest: _hasse_orders on all lanes at once, with one m
    for all.  These N are the multiples of ord(P) in range, a progression
    that the three numbers describe.

    Baby steps jP, 0 <= j <= m, and giant steps R_k = k (2m + 1) P, over
    the k whose window k (2m + 1) - m .. k (2m + 1) + m meets
    [p + 1 - H, p + 1 + H], are brought to affine (x, y) together, by one
    simultaneous inversion per lane (_lane_inverses), with O at
    (x, y) = (p, 0), outside F_p.  The giant steps are then compared with
    the baby table by x in one comparison, of steps x (m + 1) x lanes bytes.
    R_k = jP gives N = k (2m + 1) - j, and R_k = -jP gives k (2m + 1) + j.
    Every such N is found: O (j = 0) is in the table, so a giant step that
    lands on O matches it (its two signs give one N, counted once), and a
    baby step with y = 0 equals its own negative, so it matches both
    signs."""
    m = math.isqrt(int(H.max())) + 1
    width = 2 * m + 1
    k = (p + 1 - H - m + width - 1) // width
    steps = int(((p + 1 + H + m) // width - k).max()) + 1
    # rows 0..m are the baby steps, the rest the giant steps
    chain = np.empty((3, m + 1 + steps, len(p)), dtype=np.int64)
    chain[:, 0] = np.array([0, 1, 0])[:, None]
    chain[:, 1] = P
    chain[:, 2] = _lane_double(P, a, p)
    for j in range(3, m + 1):
        chain[:, j] = _lane_add(chain[:, j - 1], P, a, p)
    stride = _lane_add(chain[:, m], _lane_add(chain[:, m], P, a, p), a, p)
    chain[:, m + 1] = _lane_multiple(k, stride, a, p)
    for i in range(m + 2, m + 1 + steps):
        chain[:, i] = _lane_add(chain[:, i - 1], stride, a, p)
    X, Y, Z = chain
    inverse = _lane_inverses(Z, p)
    x = np.where(Z == 0, p, X * inverse % p)
    y = Y * inverse % p
    i, j, lane = np.nonzero(x[m + 1 :, None] == x[: m + 1])
    yR, yB = y[m + 1 + i, lane], y[j, lane]
    centre = (k[lane] + i) * width
    plus = yR == yB
    minus = ((yR + yB) % p[lane] == 0) & (j > 0)
    N = np.concatenate([centre[plus] - j[plus], centre[minus] + j[minus]])
    at = np.concatenate([lane[plus], lane[minus]])
    keep = np.abs(p[at] + 1 - N) <= H[at]
    N, at = N[keep], at[keep]
    least = np.full(len(p), np.iinfo(np.int64).max)
    greatest = np.zeros(len(p), dtype=np.int64)
    np.minimum.at(least, at, N)
    np.maximum.at(greatest, at, N)
    return np.bincount(at, minlength=len(p)), least, greatest


def _lane_inverses(z, p):
    """z^-1 mod p for each entry of z, a steps x lanes array of residues
    mod each lane's prime p, with 0 for 0: Montgomery's simultaneous
    inversion along the steps (Math. Comp. 48 (1987), 243-264), so one
    Fermat inverse per lane and three products per entry, each of two
    residues below 2^31."""
    zero = z == 0
    nonzero = np.where(zero, 1, z)
    prefix = np.empty_like(nonzero)
    product = np.ones(len(p), dtype=np.int64)
    for i, row in enumerate(nonzero):
        prefix[i] = product
        product = product * row % p
    inverse = _lane_power(product, p - 2, p)
    for i in reversed(range(len(nonzero))):
        prefix[i] = prefix[i] * inverse % p
        inverse = inverse * nonzero[i] % p
    prefix[zero] = 0
    return prefix


def _lane_traces(inv: CurveInvariants, primes) -> tuple[np.ndarray, dict[int, set[int]]]:
    """a_p of E at good primes 5 <= p < LANE_PRIME_BOUND, however few, by
    _trace_bsgs's method in numpy int64 lanes, one lane per prime, in
    batches of at most BSGS_LANES lanes of nearly equal size, which all
    write into one array of a_p in each lane and one dict of stragglers,
    the primes of the lanes not decided (whose a_p is meaningless),
    ascending, each with its candidates for #E; returns the two.

    Each lane takes _trace_bsgs's first point only, and its orders
    (_lane_orders), N -> 2p + 2 - N when t is not a square mod p.  A lane is
    decided when that set is one number, which is then #E, proven as in
    _trace_bsgs; an empty set raises InvariantError.  A straggler's set, the
    proven progression mapped to #E, is what _reduction(model, p,
    candidates) starts from: _trace_bsgs at the second point from
    BSGS_FROM on, and a point count, which must lie in it, below."""
    ps = np.asarray(primes, dtype=np.int64)
    a_p = np.empty_like(ps)
    stragglers: dict[int, set[int]] = {}
    if not len(ps):
        return a_p, stragglers
    if int(ps.max()) >= LANE_PRIME_BOUND:
        raise PrimeTooLargeError(f"lanes hold primes below 2^31, not p = {int(ps.max())}")
    for lanes in np.array_split(np.arange(len(ps)), -(-len(ps) // BSGS_LANES)):
        p = ps[lanes]
        A = _residues(-27 * inv.c4, p)
        B = _residues(-54 * inv.c6, p)
        H = np.array([math.isqrt(4 * q) for q in p.tolist()], dtype=np.int64)
        # the first x0 with t = f(x0) != 0, from 0, or from 1 when A = 0, as
        # in _trace_bsgs
        x, t = np.where(A == 0, 0, -1), np.zeros_like(p)
        while not t.all():
            x = np.where(t == 0, x + 1, x)
            t = (x * x % p * x % p + A * x % p + B) % p
        tt = t * t % p
        P = (t * x % p, tt, np.ones_like(p))
        count, least, greatest = _lane_orders(P, A * tt % p, p, H)
        gaps = np.maximum(count - 1, 1)
        if ((greatest - least) % gaps).any():
            raise InvariantError("a point's orders in the Hasse interval are not a progression")
        if not count.all():
            q = int(p[count == 0][0])
            raise InvariantError(f"no group order in the Hasse interval at p = {q}")
        # #E's candidates, from the least: the progression, mirrored on the twist
        points = np.where(_legendre(t, p) == -1, 2 * p + 2 - greatest, least)
        step = (greatest - least) // gaps
        undecided = count > 1
        a_p[lanes] = p + 1 - points
        stragglers.update(
            (q, set(range(n, n + c * s, s)))
            for q, n, c, s in zip(*(v[undecided].tolist() for v in (p, points, count, step)))
        )
    return a_p, stragglers


class LocalData:
    """A plain record of one model's caches: its invariants, the primes of
    Delta and ReductionData at each prime, built once per curve per
    operation and passed down, except that a curve of the curve table has
    one record per process (see local_data), and so do its twists.  Records
    compare and hash by identity: two records of one model are two caches.
    at(p) decides p on first use and keeps it in _decided; walking
    delta_primes in ascending order, callers meet the first failing prime's
    error first.  a_p at the good odd primes is kept in the table _a_p of
    traces_up_to instead; traces(M) copies that table, X's for a twist, to
    M into a new array, from which lseries.dirichlet_coefficients builds
    the a_n.  A record
    made by X.twist(d) keeps (X, d) as its base, set there only, and X
    keeps the record under d in _twists.  The record is the one owner of its
    conductor and global root number: conductor is decided once, and
    _root_number is written by rootnum.global_root_number alone; neither is
    kept after a raise.  _sums is written by lseries.l_value_at_1 alone:
    (value, tail bound, terms summed) per (terms, t).  A twist record takes
    about 2.5 KB with its root number (twist_sweep(15a1, 10^4): 1 263
    records, 3.21 MB under tracemalloc) and a sum about 0.4 KB, and a
    record's caches grow only with the distinct d, terms and t asked of it.
    delta_primes is read from factor(|Delta|) on first use, except on a
    record made by twist(), which sets it from its candidates without
    factoring Delta."""

    def __init__(self, model: WeierstrassModel):
        self.model = model
        self._decided: dict[int, ReductionData] = {}
        self._a_p = np.zeros(3, dtype=np.int32)
        self._base: tuple[LocalData, int] | None = None
        self._twists: dict[int, LocalData] = {}
        self._sums: dict = {}
        self._root_number = None

    @property
    def inv(self) -> CurveInvariants:
        return invariants(self.model)

    @cached_property
    def delta_primes(self) -> tuple[int, ...]:
        """Primes dividing the discriminant of the model, ascending; set by
        twist() on a record it makes, read from factor(|Delta|) on any other."""
        return factor(abs(self.inv.delta)).primes()

    def at(self, p: int) -> ReductionData:
        """Reduction data at the prime p: classify(self, p), remembered.
        ArgumentError unless p is a prime int, also once p is remembered."""
        check_prime(p)
        data = self._decided.get(p)
        if data is None:
            data = self._decided[p] = classify(self, p)
        return data

    @cached_property
    def conductor(self) -> int:
        """Conductor: product of bad primes, squared at additive primes
        (p >= 5); the module's conductor() documents its errors."""
        N = 1
        for p in self.delta_primes:
            kind = self.at(p).kind
            if kind.is_additive and p == 3:
                raise UnsupportedReductionError(
                    "additive reduction at 3: conductor exponent unsupported"
                )
            N *= p * p if kind.is_additive else p if kind.is_multiplicative else 1
        return N

    def traces_up_to(self, bound: int) -> np.ndarray:
        """a_p at the good odd primes p <= bound, indexed by p (0 elsewhere),
        each decided once, as callers ask for larger primes: every new prime
        from 5 on by _lane_traces, however few, and p = 3 and the stragglers
        _lane_traces leaves, each with its candidates, by _reduction.  First,
        ArgumentError unless bound is an int <= TRIAL_DIVISION_BOUND."""
        check_int(bound, "bound", None, TRIAL_DIVISION_BOUND)
        known = len(self._a_p) - 1
        if bound > known:
            grown = np.zeros(bound + 1, dtype=np.int32)
            grown[: known + 1] = self._a_p
            new = np.array(primes_up_to(bound), dtype=np.int64)
            new = new[(new > known) & (_residues(self.inv.delta, new) != 0)]
            lanes = new[new >= 5]
            a_p, stragglers = _lane_traces(self.inv, lanes)
            grown[lanes] = a_p
            if 3 in new:
                stragglers = {3: None, **stragglers}
            for p, candidates in stragglers.items():
                grown[p] = _reduction(self.model, p, candidates).a_p
            self._a_p = grown
        return self._a_p

    def twist(self, d: int) -> LocalData:
        """The record of quadratic_twist(model, d), with this record as its
        base; this record itself when the twist's model is its model.  Made
        once per d and remembered, so the twists of a record that lasts for
        the process last with it.  The new record's delta_primes are found
        among 2, 3 and the primes of this record's Delta and of d, as
        Delta(X^d) = d^6 u^12 Delta(X) with u made of 2s and 3s: those that
        divide Delta(X^d), certified by valuation: the product of their
        powers in it must be |Delta(X^d)| (InvariantError if not).
        ArgumentError unless d is an int, also once d is remembered."""
        check_int(d, "d")
        record = self._twists.get(d)
        if record is None:
            model = quadratic_twist(self.model, d)
            if model == self.model:
                record = self
            else:
                record = LocalData(model)
                delta = record.inv.delta
                candidates = sorted({2, 3, *self.delta_primes, *factor(abs(d)).primes()})
                primes = tuple(q for q in candidates if delta % q == 0)
                if math.prod(q ** valuation(delta, q) for q in primes) != abs(delta):
                    raise InvariantError(
                        f"Delta = {delta} of the twist by {d} has a prime factor "
                        f"outside 2, 3 and the primes of {self.inv.delta} and {d}"
                    )
                record._base = (self, d)
                record.delta_primes = primes
            self._twists[d] = record
        return record

    def traces(self, M: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """A new int64 array of length M + 1 with a_p at each prime p <= M
        and 0 elsewhere, and the primes p <= M where the reduction is not
        good.  2 and the primes of Delta(E) are read from at(p), in
        ascending order; the others from traces_up_to, or, for a record made
        by X.twist(d), as (d/p) a_p(X) from X's table.  ArgumentError unless
        M is an int from 1 to TRIAL_DIVISION_BOUND."""
        check_int(M, "M", 1, TRIAL_DIVISION_BOUND)
        table, d = (self, 1) if self._base is None else self._base
        a_p = table.traces_up_to(M)[: M + 1].astype(np.int64)
        ps = np.array(primes_up_to(M), dtype=np.int64)
        # The primes of Delta(X) are among these: quadratic_twist scales
        # (c4, c6) by (u^4 d^2, u^6 d^3) with u an integer, so
        # Delta(X^d) = d^6 u^12 Delta(X).
        direct = (ps == 2) | (_residues(self.inv.delta, ps) == 0)
        if d != 1:
            derived = ps[~direct]
            chi = _legendre(_residues(d, derived), derived)
            if not np.all(chi):
                # the odd primes of d divide Delta(X^d): this record has a wrong d
                raise InvariantError(
                    f"({d}/p) = 0 at the good prime p = {derived[chi == 0][0]}"
                )
            a_p[derived] *= chi
        bad = []
        for p in ps[direct].tolist():
            data = self.at(p)
            a_p[p] = data.a_p
            if data.kind is not ReductionKind.GOOD:
                bad.append(p)
        return a_p, tuple(bad)


# One record per curve of the curve table, made on first use and shared by
# every caller in the process; a_p(X) is a fact about X, so a record stays
# valid when the table is reloaded.
_TABLE_CURVES: dict[WeierstrassModel, LocalData] = {}


def local_data(E: WeierstrassModel | LocalData) -> LocalData:
    """E's LocalData: E itself when it is a record; for a curve of the
    loaded curve table its record shared by the process, which keeps its
    a_p table; else a new record."""
    if isinstance(E, LocalData):
        return E
    if E not in load_curve_table().values():
        return LocalData(E)
    record = _TABLE_CURVES.get(E)
    if record is None:
        record = _TABLE_CURVES[E] = LocalData(E)
    return record


def _residues(n: int, primes: np.ndarray) -> np.ndarray:
    """n mod p at each prime p < 2^31, by Horner's rule on the base-2^31
    digits of |n|, every product below 2^62."""
    digits = []
    m = abs(n)
    while m:
        digits.append(m & 0x7FFFFFFF)
        m >>= 31
    radix = (1 << 31) % primes
    r = np.zeros(len(primes), dtype=np.int64)
    for digit in reversed(digits):
        r = (r * radix + digit % primes) % primes
    return (-r) % primes if n < 0 else r


def _lane_power(base: np.ndarray, e: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """base^e mod p at each prime p < 2^31, e >= 0 per prime, squaring and
    multiplying on all p at once."""
    power = np.ones(len(primes), dtype=np.int64)
    while e.any():
        odd = (e & 1).astype(bool)
        power = np.where(odd, power * base % primes, power)
        base = base * base % primes
        e = e >> 1
    return power


def _legendre(residues: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Legendre symbols (a/p) at odd primes p < 2^31, a given mod p, by
    Euler's criterion a^((p-1)/2) mod p."""
    power = _lane_power(residues, (primes - 1) // 2, primes)
    return np.where(power == primes - 1, -1, power)


def conductor(E: WeierstrassModel | LocalData) -> int:
    """Conductor: product of bad primes, squared at additive primes (p >= 5).

    Requires good or multiplicative reduction at 2 and 3; the exponent-2
    formula is only valid without wild ramification, so additive reduction
    at 2 or 3 raises UnsupportedReductionError.  The model must be minimal
    at 2 (multiplicative reduction at 2 is still detected safely because a
    non-minimal model has v2(c4) >= 4).  Decided once per record
    (LocalData.conductor); a raise leaves nothing remembered.
    """
    return local_data(E).conductor
