import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np
import pytest

from twistgate import descent
from twistgate.curve import short_form
from twistgate.descent import (
    MAX_LEMMA_SUM_WORK,
    MAX_MODULE_SIZE,
    LemmaSumResult,
    QuadElt,
    QuadPoint,
    SignedModule,
    characters,
    enumerate_signed_modules,
    involutive_generator_pool,
    lemma_sum_check,
    quad_point_search,
    twist_curve,
    twist_map,
)
from twistgate.errors import (
    ArgumentError,
    LemmaSumSizeError,
    NonCommutingActionError,
    NonInvolutiveActionError,
    NotOnCurveError,
    NotSquarefreeError,
    TwistgateError,
)
from twistgate.numtheory import is_squarefree, squarefree_part


def rational_point_search(curve, num_bound, den_bound):
    """Rational points (x, y), y >= 0, of y^2 = x^3 + A x + B with x = m/n in
    lowest terms, |m| <= num_bound, 1 <= n <= den_bound: the oracle for the
    invariant and anti-invariant points quad_point_search finds."""
    A, B = (Fraction(c) for c in curve)
    out = []
    for den in range(1, den_bound + 1):
        for num in range(-num_bound, num_bound + 1):
            if gcd(num, den) != 1:
                continue
            x = Fraction(num, den)
            fx = x * x * x + A * x + B
            if fx < 0:
                continue
            rn, rd = isqrt(fx.numerator), isqrt(fx.denominator)
            if rn * rn == fx.numerator and rd * rd == fx.denominator:
                out.append((x, Fraction(rn, rd)))
    return out


def loop_lemma_sum_check(module):
    """lemma_sum_check one element at a time, in Python integers: the oracle
    for the array form's components and failure strings.  The group
    products are taken here too; the characters are read through the module,
    so a test that patches them patches both."""
    mod, n, r = module.modulus, module.n, module.r

    def mat_vec(a, v):
        return tuple(sum(x * y for x, y in zip(row, v)) % mod for row in a)

    def mat_mul(a, b):
        # row i of a b is b^T applied to row i of a
        return tuple(mat_vec(tuple(zip(*b)), row) for row in a)

    group = []
    for bits in itertools.product((0, 1), repeat=r):
        mat = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for bit, g in zip(bits, module.generators):
            if bit:
                mat = mat_mul(mat, g)
        group.append((bits, mat))
    values = [
        (signs, [prod(s for bit, s in zip(bits, signs) if bit) for bits, _ in group])
        for signs in descent.characters(r)
    ]
    components = []  # [m][s]: v_s
    failures = []
    for m in itertools.product(range(mod), repeat=n):
        images = [mat_vec(mat, m) for _, mat in group]
        vs = []
        total = (0,) * n
        for signs, s_values in values:
            v = (0,) * n
            for coeff, img in zip(s_values, images):
                v = tuple((vi + coeff * xi) % mod for vi, xi in zip(v, img))
            for (_, mat), s_sigma in zip(group, s_values):
                if mat_vec(mat, v) != tuple((s_sigma * vi) % mod for vi in v):
                    failures.append(f"m={m}: component for {signs} escapes its eigenspace")
            vs.append(v)
            total = tuple((ti + vi) % mod for ti, vi in zip(total, v))
        want = tuple((2**r * mi) % mod for mi in m)
        if total != want:
            failures.append(f"m={m}: components sum to {total}, expected {want}")
        components.append(vs)
    array = np.array(components, dtype=np.int64).transpose(1, 0, 2)
    return LemmaSumResult(not failures, array, tuple(failures))


def assert_same_result(got, want):
    # a dataclass holding an array has no usable ==
    assert got.passed == want.passed
    assert got.failures == want.failures
    assert got.components.dtype == np.int64
    assert np.array_equal(got.components, want.components)


def random_elt(rng, d):
    return QuadElt(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        d,
    )


class TestQuadElt:
    def test_basic_arithmetic(self):
        x = QuadElt(Fraction(1), Fraction(2), 5)
        y = QuadElt(Fraction(3), Fraction(-1), 5)
        assert x + y == QuadElt(Fraction(4), Fraction(1), 5)
        assert x * y == QuadElt(Fraction(3) + 5 * Fraction(-2), Fraction(-1 + 6), 5)
        assert (x / y) * y == x

    def test_field_parameter_validated(self):
        with pytest.raises(NotSquarefreeError):
            QuadElt(Fraction(1), Fraction(1), 12)
        with pytest.raises(NotSquarefreeError):
            QuadElt(Fraction(1), Fraction(1), 1)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadElt(Fraction(1), Fraction(1), 5) + QuadElt(Fraction(1), Fraction(1), 7)

    def test_conjugation_is_ring_morphism(self):
        rng = random.Random(4)
        for d in (5, 17, -3):
            for _ in range(50):
                x = random_elt(rng, d)
                y = random_elt(rng, d)
                assert (x + y).conjugate() == x.conjugate() + y.conjugate()
                assert (x * y).conjugate() == x.conjugate() * y.conjugate()
                assert x.conjugate().conjugate() == x

    def test_norm_multiplicative(self):
        rng = random.Random(9)
        for _ in range(50):
            x = random_elt(rng, 17)
            y = random_elt(rng, 17)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_norm_vs_conjugate(self):
        x = QuadElt(Fraction(2, 3), Fraction(5, 7), 17)
        prod = x * x.conjugate()
        assert prod.is_rational and prod.a == x.norm()


class TestQuadPointSearch:
    def test_on_curve_validation(self, e15):
        curve = short_form(e15)
        with pytest.raises(NotOnCurveError):
            QuadPoint(QuadElt.rational(0, 17), QuadElt.rational(0, 17), curve)

    def test_finds_two_torsion_for_every_d(self, e15):
        curve = short_form(e15)
        for d in (17, 53, 61):
            points = quad_point_search(curve, d, 50)
            torsion_x = {p.x.a for p in points if not p.y}
            assert torsion_x == {
                Fraction(-17, 6),
                Fraction(-7, 12),
                Fraction(41, 12),
            }

    def test_finds_rational_order_four_point(self, e15):
        points = quad_point_search(short_form(e15), 17, 50)
        with_y = [p for p in points if p.y and p.y.is_rational]
        assert any(p.x.a == Fraction(-19, 12) for p in with_y)

    def test_every_point_is_reverified(self, e15):
        # QuadPoint construction re-checks the equation, so this is a replay
        curve = short_form(e15)
        for p in quad_point_search(curve, 17, 30):
            A, B = curve
            lhs = p.y * p.y
            rhs = p.x * p.x * p.x + A * p.x + B
            assert lhs == rhs

    def test_genuine_quadratic_point(self, e15):
        # harvest a d from the curve itself: d = squarefree part of f(4)
        A, B = short_form(e15)
        x = Fraction(4)
        fx = x**3 + A * x + B
        d = squarefree_part(fx.numerator * fx.denominator)
        assert d > 1
        points = quad_point_search((A, B), d, 4)
        anti = [p for p in points if p.is_anti_invariant and p.y]
        assert any(p.x.a == 4 for p in anti)

    def test_d_validation(self, e15):
        curve = short_form(e15)
        with pytest.raises(NotSquarefreeError):
            quad_point_search(curve, 12, 10)
        with pytest.raises(NotSquarefreeError):
            quad_point_search(curve, 1, 10)

    def test_twist_by_zero_is_refused(self, e15):
        with pytest.raises(NotSquarefreeError):
            twist_curve(short_form(e15), 0)

    def test_height_validation(self, e15):
        with pytest.raises(ValueError):
            quad_point_search(short_form(e15), 17, 10**5)


class TestTwistMap:
    def test_two_torsion_maps_to_rational_two_torsion(self, e15):
        curve = short_form(e15)
        for p in quad_point_search(curve, 17, 50):
            if p.y:
                continue
            image = twist_map(p, 17)
            assert image.x.is_rational and not image.y
            assert image.x.a == 17 * p.x.a

    def test_anti_invariant_maps_to_rational(self, e15):
        A, B = short_form(e15)
        x = Fraction(4)
        fx = x**3 + A * x + B
        d = squarefree_part(fx.numerator * fx.denominator)
        points = quad_point_search((A, B), d, 4)
        anti = [p for p in points if p.is_anti_invariant and p.y]
        assert anti
        for p in anti:
            image = twist_map(p, d)
            assert image.x.is_rational and image.y.is_rational
            # image coordinates: (d x, d^2 y0) where y = y0 sqrt(d)
            assert image.y.a == d * d * p.y.b

    def test_rational_nonzero_y_maps_off_rational_locus(self, e15):
        points = quad_point_search(short_form(e15), 17, 50)
        invariant = [p for p in points if p.is_invariant and p.y]
        assert invariant
        for p in invariant:
            image = twist_map(p, 17)
            assert not image.y.is_rational

    def test_the_field_is_factored_once_per_search(self, e15, monkeypatch):
        # elements computed from checked elements inherit the check on d
        calls = []
        monkeypatch.setattr(
            descent, "is_squarefree", lambda d: calls.append(d) or is_squarefree(d)
        )
        points = quad_point_search(short_form(e15), 21, 30)
        assert points
        for p in points:
            twist_map(p, 21)
        assert 1 <= len(calls) <= 2

    def test_wrong_field_rejected(self, e15):
        points = quad_point_search(short_form(e15), 17, 50)
        with pytest.raises(ValueError):
            twist_map(points[0], 21)

    def test_eigenspace_bijection_with_twist_rational_points(self, e15, e21):
        # anti-invariant points of E over Q(sqrt(d)) with x-height <= H
        # correspond exactly to rational points of the twist in the mapped
        # window (numerator scaled by d), and invariant points to rational
        # points of E itself; 2, 3 and 21 are not 1 mod 4, and 15a1 has
        # points with y != 0 over Q(sqrt 3), 21a1 over Q(sqrt 2), Q(sqrt 21)
        H = 30
        for curve, d in itertools.product(map(short_form, (e15, e21)), (17, 53, 2, 3, 21)):
            points = quad_point_search(curve, d, H)
            # 2-torsion (y = 0) is both invariant and anti-invariant
            anti_x = {p.x.a for p in points if p.is_anti_invariant}
            inv_x = {p.x.a for p in points if p.is_invariant}
            twisted = twist_curve(curve, d)
            twist_rats = rational_point_search(twisted, H * d, H)
            # pull back x' = d x: keep those landing in the search window
            pulled = set()
            for x_t, _ in twist_rats:
                x = x_t / d
                if abs(x.numerator) <= H and x.denominator <= H:
                    pulled.add(x)
            assert pulled == anti_x
            own_rats = rational_point_search(curve, H, H)
            assert {x for x, _ in own_rats} == inv_x


class TestSignedModule:
    def test_z4_flip_module(self):
        # Z/4 with the action m -> -m: eigenspaces {0, 2} and all of Z/4
        module = SignedModule(2, 1, (((3,),),))
        mod = module.modulus
        trivial = [m for (m,) in module.elements() if (3 * m) % mod == m]
        sign_space = [m for (m,) in module.elements() if (3 * m) % mod == (-m) % mod]
        assert trivial == [0, 2]
        assert sign_space == [0, 1, 2, 3]
        result = lemma_sum_check(module)
        assert result.passed
        # the decomposition of m = 1, element 1: 2*1 = v_triv + v_sign
        assert characters(1) == [(1,), (-1,)]
        v_triv, v_sign = result.components[:, 1, 0]
        assert (v_triv + v_sign) % 4 == 2

    def test_zero_decomposes_to_zeros(self):
        module = SignedModule(2, 1, (((3,),),))
        assert next(module.elements()) == (0,)
        assert not lemma_sum_check(module).components[:, 0].any()

    def test_rank_two_identity_and_swap(self):
        module = SignedModule(1, 2, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
        assert lemma_sum_check(module).passed

    def test_non_commuting_rejected(self):
        shear = ((1, 1), (0, 1))
        swap = ((0, 1), (1, 0))
        with pytest.raises(NonCommutingActionError):
            SignedModule(1, 2, (shear, swap))

    def test_non_involutive_rejected(self):
        shear = ((1, 1), (0, 1))
        with pytest.raises(NonInvolutiveActionError):
            SignedModule(2, 2, (shear,))

    def test_size_bound(self):
        module = SignedModule(9, 2, ())
        with pytest.raises(LemmaSumSizeError):
            lemma_sum_check(module)

    def test_components_cover_all_elements(self):
        module = SignedModule(3, 1, (((7,),),))
        result = lemma_sum_check(module)
        assert result.passed
        # [character, element, coordinate], frozen like the result
        assert result.components.shape == (2, 8, 1)
        assert result.components.dtype == np.int64
        with pytest.raises(ValueError):
            result.components[0, 0, 0] = 1

    @pytest.mark.parametrize("r", range(10))
    def test_character_table_is_the_product_table(self, monkeypatch, r):
        # the character table, caught on its way into the components,
        # against one product of signs per (character, group element)
        module = SignedModule(1, 1, (((1,),),) * r)
        tables = []
        tensordot = np.tensordot

        def spy(a, b, axes):
            tables.append(a.copy())
            return tensordot(a, b, axes=axes)

        monkeypatch.setattr(np, "tensordot", spy)
        lemma_sum_check(module)
        group = module.group_elements()
        want = [
            [prod(s for bit, s in zip(bits, signs) if bit) for bits, _ in group]
            for signs in characters(r)
        ]
        assert tables[0].tolist() == want

    def test_work_bound_is_checked_per_module(self, monkeypatch):
        # a module built by hand is not bounded by its family: 2 elements x
        # 4^r products reach MAX_LEMMA_SUM_WORK = 2^19 at r = 9
        generators = (((1,),),)
        assert lemma_sum_check(SignedModule(1, 1, generators * 9)).passed

        def no_products(self):
            raise AssertionError("the group products were taken")

        monkeypatch.setattr(SignedModule, "group_elements", no_products)
        with pytest.raises(LemmaSumSizeError):
            lemma_sum_check(SignedModule(1, 1, generators * 10))

    @pytest.mark.parametrize("k, n, r", [(15, 1, 1), (1, 15, 1), (16, 1, 0)])
    def test_largest_families_pass(self, k, n, r):
        # the largest families under MAX_MODULE_SIZE and MAX_LEMMA_SUM_WORK
        for module in enumerate_signed_modules(k, n, r):
            result = lemma_sum_check(module)
            assert result.passed
            assert result.components.shape == (2**r, 2 ** (k * n), n)

    def test_int64_components_agree_with_the_loop_oracle_at_k_15(self):
        # entries up to 2^15 - 1, so the products reach 2^30 in int64
        module = SignedModule(15, 1, (((2**15 - 1,),),))
        assert_same_result(lemma_sum_check(module), loop_lemma_sum_check(module))

    def test_generator_pool_contents(self):
        pool1 = involutive_generator_pool(3, 1)
        assert ((1,),) in pool1 and ((7,),) in pool1 and len(pool1) == 4
        pool2 = involutive_generator_pool(1, 2)
        assert ((0, 1), (1, 0)) in pool2

    def test_family_smoke(self):
        modules = enumerate_signed_modules(2, 2, 1)
        assert modules
        for module in modules:
            assert lemma_sum_check(module).passed

    def test_work_bound_is_checked_before_enumerating(self):
        # (3, 2, 2) is the largest family the acceptance harness checks:
        # 17^2 modules x 64 elements x 16 products
        assert 17**2 * 64 * 16 <= MAX_LEMMA_SUM_WORK < 17**3 * 64 * 64
        assert len(enumerate_signed_modules(3, 2, 2)) == 265
        for r in (3, 8, 10**9):
            with pytest.raises(LemmaSumSizeError):
                enumerate_signed_modules(3, 2, r)
        assert issubclass(LemmaSumSizeError, TwistgateError)

    def test_module_size_bound(self):
        assert [m.size for m in enumerate_signed_modules(16, 1, 0)] == [MAX_MODULE_SIZE]
        with pytest.raises(LemmaSumSizeError):
            enumerate_signed_modules(17, 1, 0)
        with pytest.raises(LemmaSumSizeError):
            enumerate_signed_modules(10**9, 10**9, 1)

    @pytest.mark.parametrize(
        "k, n, r, message",
        [
            (0, 1, 1, "k must be at least 1, got 0"),
            (1, 0, 1, "n must be at least 1, got 0"),
            (1, 1, -1, "r must be at least 0, got -1"),
        ],
        ids=["0-1-1", "1-0-1", "1-1--1"],
    )
    def test_empty_or_negative_family_is_refused_before_the_pool(
        self, monkeypatch, k, n, r, message
    ):
        # k = 0 gives an empty pool, hence no modules, which the harness
        # would report as all passed; r = -1 would fail inside itertools
        def no_pool(k, n):
            raise AssertionError("the generator pool was built")

        monkeypatch.setattr(descent, "involutive_generator_pool", no_pool)
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            enumerate_signed_modules(k, n, r)

    def test_agrees_with_the_loop_oracle_on_every_acceptance_family(self):
        for k, n, r in itertools.product((1, 2, 3), (1, 2), (1, 2)):
            for module in enumerate_signed_modules(k, n, r):
                assert_same_result(lemma_sum_check(module), loop_lemma_sum_check(module))
        # every pool matrix is symmetric; this pair of commuting involutions
        # of (Z/8)^2 is not, so a transposed action would show
        module = SignedModule(3, 2, (((1, 1), (0, 7)), ((7, 7), (0, 1))))
        assert_same_result(lemma_sum_check(module), loop_lemma_sum_check(module))

    def test_component_outside_its_eigenspace_is_reported(self, monkeypatch):
        # the shear squares to [[1, 2], [0, 1]] mod 4, so for odd m_2 the
        # components m +- g m are not eigenvectors; they still sum to 2 m
        monkeypatch.setattr(SignedModule, "__post_init__", lambda self: None)
        module = SignedModule(2, 2, (((1, 1), (0, 1)),))
        result = lemma_sum_check(module)
        assert not result.passed
        assert result.failures[0] == "m=(0, 1): component for (1,) escapes its eigenspace"
        assert not any("components sum to" in f for f in result.failures)
        assert_same_result(result, loop_lemma_sum_check(module))

    def test_components_that_miss_the_sum_are_reported(self, monkeypatch):
        # two copies of the trivial character: both components are m + 3 m
        # = 0 mod 4, eigenvectors, but they sum to 0, not 2 m
        monkeypatch.setattr(descent, "characters", lambda r: [(1,) * r] * 2**r)
        module = SignedModule(2, 1, (((3,),),))
        result = lemma_sum_check(module)
        assert not result.passed
        assert result.failures == (
            "m=(1,): components sum to (0,), expected (2,)",
            "m=(3,): components sum to (0,), expected (2,)",
        )
        assert_same_result(result, loop_lemma_sum_check(module))

    def test_characters_order(self):
        assert characters(2)[0] == (1, 1)
        assert len(characters(3)) == 8
