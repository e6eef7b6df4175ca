"""Every argument rule is the library's: a value outside a function's
domain raises ArgumentError, which is both a TwistgateError (the CLI's
unsupported-input) and a ValueError (what library callers catch).  The
rule "an int, not a bool" is stated once, in numtheory.check_int."""

import ast
import tracemalloc
from pathlib import Path

import pytest

import twistgate
from twistgate.curve import (
    WeierstrassModel,
    curve_by_label,
    load_curve_table,
    minimalize_at,
    quadratic_twist,
    short_form,
)
from twistgate.descent import (
    QuadElt,
    QuadPoint,
    SignedModule,
    characters,
    enumerate_signed_modules,
    quad_point_search,
    twist_curve,
    twist_map,
)
from twistgate.errors import ArgumentError, TwistgateError
from twistgate.fieldsearch import (
    AdmissibleTuple,
    character_discriminant,
    check_hypothesis,
    is_admissible,
    search,
)
from twistgate.galois import serre_check
from twistgate.lseries import dirichlet_coefficients, l_value_at_1
from twistgate.numtheory import (
    factor,
    is_squarefree,
    jacobi,
    primes_up_to,
    squarefree_part,
    valuation,
)
from twistgate.reduction import LocalData, classify, count_points
from twistgate.rootnum import twist_parameters, twist_sweep

TUPLE_17_61 = AdmissibleTuple(5, (17, 61))


def warmed(E, method, arg):
    """The bound method of a new record of E, once called with arg."""
    bound = getattr(LocalData(E), method)
    bound(arg)
    return bound


CALLS = {
    "classify at 4": lambda E: classify(E, 4),
    "count_points at 4": lambda E: count_points(E, 4),
    "l_value_at_1 with no terms": lambda E: l_value_at_1(E, terms=0),
    # bool is an int subclass; True would otherwise sum one term
    "l_value_at_1 with terms=True": lambda E: l_value_at_1(E, terms=True),
    "dirichlet_coefficients to M = True": lambda E: dirichlet_coefficients(E, True),
    # not finite, or so far from 1 that q1 or q2 is within 10^-40 of 1 at the
    # working precision: at 1 for 1e-300, as close as 1 - 1.6e-45 for 1e-45
    "l_value_at_1 at t = nan": lambda E: l_value_at_1(E, t=float("nan")),
    "l_value_at_1 at t = inf": lambda E: l_value_at_1(E, t=float("inf")),
    "l_value_at_1 at t = 1e-300": lambda E: l_value_at_1(E, t=1e-300),
    "l_value_at_1 at t = 1e300": lambda E: l_value_at_1(E, t=1e300),
    "l_value_at_1 at t = 1e-45": lambda E: l_value_at_1(E, t=1e-45),
    "l_value_at_1 at t = True": lambda E: l_value_at_1(E, t=True),
    # not a number: would otherwise end in a bare TypeError
    "l_value_at_1 at t = '1'": lambda E: l_value_at_1(E, t="1"),
    "l_value_at_1 at t = None": lambda E: l_value_at_1(E, t=None),
    "search of rank 0": lambda E: search(5, 0, 10),
    "search to bound 0": lambda E: search(5, 1, 0),
    "quad_point_search to height 0": lambda E: quad_point_search(short_form(E), 17, 0),
    "is_admissible for p = 11": lambda E: is_admissible(11, [17]),
    "factor of 0": lambda E: factor(0),
    # True would otherwise be kept as the factorization of 1
    "factor of True": lambda E: factor(True),
    "modules of (Z/2^0)^1": lambda E: enumerate_signed_modules(0, 1, 1),
    "modules with -1 involutions": lambda E: enumerate_signed_modules(1, 1, -1),
    # True would otherwise be read as 1
    "twist_sweep to dmax = True": lambda E: twist_sweep(E, True),
    "search of rank True": lambda E: search(5, True, 50),
    "search to bound True": lambda E: search(5, 1, True),
    "quad_point_search to height True": lambda E: quad_point_search(short_form(E), 17, True),
    "modules of (Z/2^True)^1": lambda E: enumerate_signed_modules(True, 1, 1),
    "twist parameters to bound True": lambda E: twist_parameters(True, 15),
    "a_p table to bound True": lambda E: LocalData(E).traces_up_to(True),
    # not an int: a float or a str would otherwise be used as a number, or
    # end in a bare TypeError
    "twist parameters to bound 2.5": lambda E: twist_parameters(2.5, 15),
    "jacobi of 1.5": lambda E: jacobi(1.5, 7),
    "jacobi modulo 7.0": lambda E: jacobi(3, 7.0),
    "is_admissible for p = 5.0": lambda E: is_admissible(5.0, [17]),
    "check_hypothesis for p = 5.0": lambda E: check_hypothesis(5.0, (17,)),
    "search for p = 5.0": lambda E: search(5.0, 1, 50),
    "search of rank 2.0": lambda E: search(5, 2.0, 50),
    "search to bound '50'": lambda E: search(5, 1, "50"),
    "twist_sweep to dmax = '5'": lambda E: twist_sweep(E, "5"),
    "quad_point_search to height 5.0": lambda E: quad_point_search(short_form(E), 17, 5.0),
    "modules of (Z/2^1.0)^1": lambda E: enumerate_signed_modules(1.0, 1, 1),
    "serre_check with aux 7.0": lambda E: serre_check(E, 3, 7.0),
    "minimalize_at 7.0": lambda E: minimalize_at(E, 7.0),
    "primes up to 10.0": lambda E: primes_up_to(10.0),
    "primes up to True": lambda E: primes_up_to(True),
    "a_p to M = 13.0": lambda E: LocalData(E).traces(13.0),
    "a_p to M = True": lambda E: LocalData(E).traces(True),
    "a_p to M = 0": lambda E: LocalData(E).traces(0),
    # not iterable: would otherwise end in a bare TypeError
    "is_admissible of ds = 17": lambda E: is_admissible(5, 17),
    "check_hypothesis of ds = 17": lambda E: check_hypothesis(5, 17),
    # a float k would otherwise reach the involution check with modulus
    # 2^1.5, and True would be read as 1
    "SignedModule of (Z/2^1.5)^1": lambda E: SignedModule(1.5, 1, (((-1,),),)),
    "SignedModule of (Z/2^True)^1": lambda E: SignedModule(True, 1, (((1,),),)),
    "SignedModule of (Z/2)^True": lambda E: SignedModule(1, True, (((1,),),)),
    # True and 1.0 would otherwise be read as the sign +1
    "character (True, -1)": lambda E: character_discriminant(TUPLE_17_61, (True, -1)),
    "character (1.0, -1)": lambda E: character_discriminant(TUPLE_17_61, (1.0, -1)),
    # would otherwise end in BadAuxPrimeError or UnsupportedPrimeError
    "serre_check with aux True": lambda E: serre_check(E, 3, True),
    "serre_check at ell 5.0": lambda E: serre_check(E, 5.0),
    "serre_check at ell True": lambda E: serre_check(E, True),
    # True would otherwise be read as 1
    "jacobi of True": lambda E: jacobi(True, 5),
    "jacobi modulo True": lambda E: jacobi(3, True),
    # would otherwise end in is_prime's bare TypeError
    "valuation at 2.0": lambda E: valuation(10, 2.0),
    # a model would otherwise be built, and its invariants end in a bare
    # TypeError, or True be read as a1 = 1
    "model with a6 = 0.5": lambda E: WeierstrassModel(0, 0, 1, -1, 0.5),
    "model with a1 = '1'": lambda E: WeierstrassModel("1", 0, 1, -1, 0),
    "model with a1 = True": lambda E: WeierstrassModel(True, 0, 1, -1, 0),
    # would otherwise end in a bare AttributeError
    "curve labelled 15": lambda E: curve_by_label(15),
    # True would otherwise be read as 1
    "squarefree part of True": lambda E: squarefree_part(True),
    "is True squarefree": lambda E: is_squarefree(True),
    "characters of rank True": lambda E: characters(True),
    # would otherwise end in a bare TypeError
    "characters of rank 1.5": lambda E: characters(1.5),
    "twist parameters prime to 15.0": lambda E: twist_parameters(10, 15.0),
    # the wrong type, not a non-squarefree int: would otherwise be a
    # NotSquarefreeError
    "quadratic twist by 2.0": lambda E: quadratic_twist(E, 2.0),
    "quad_point_search over d = 17.0": lambda E: quad_point_search(short_form(E), 17.0, 5),
    "quad_point_search over d = True": lambda E: quad_point_search(short_form(E), True, 5),
    # not an exact rational: would otherwise end in a bare TypeError, or
    # True be read as 1, or a float twist be computed in floats
    "quad_point_search on A = 1.5": lambda E: quad_point_search((1.5, 0), 17, 5),
    "QuadElt with a = 0.5": lambda E: QuadElt(0.5, 1, 2),
    "QuadElt with a = True": lambda E: QuadElt(True, 1, 2),
    "valuation of 1.5": lambda E: valuation(1.5, 5),
    "valuation of True": lambda E: valuation(True, 5),
    "twist_curve by 2.5": lambda E: twist_curve(short_form(E), 2.5),
    # a remembered argument would otherwise be answered from the memo:
    # the record of the twist by 13, the record itself, the data at 5
    "twist by 13.0 after 13": lambda E: warmed(E, "twist", 13)(13.0),
    "twist by True after 1": lambda E: warmed(E, "twist", 1)(True),
    "reduction at 5.0 after 5": lambda E: warmed(E, "at", 5)(5.0),
    # 0 would otherwise be read as no path, and 2.5 end in a bare TypeError
    "curve table at 0": lambda E: load_curve_table(0),
    "curve table at 2.5": lambda E: load_curve_table(2.5),
    # not an iterable: would otherwise end in a bare TypeError
    "character 5": lambda E: character_discriminant(AdmissibleTuple(5, (17,)), 5),
    "character None": lambda E: character_discriminant(AdmissibleTuple(5, (17,)), None),
    "SignedModule with generators 5": lambda E: SignedModule(2, 2, 5),
    # a str entry would otherwise end in a bare TypeError, a float entry be
    # kept as a float and True be read as 1
    "SignedModule with an entry '1'": lambda E: SignedModule(1, 1, ((("1",),),)),
    "SignedModule with an entry 3.0": lambda E: SignedModule(2, 1, (((3.0,),),)),
    "SignedModule with an entry True": lambda E: SignedModule(1, 1, (((True,),),)),
    # not a pair (A, B): would otherwise end in a bare TypeError, IndexError
    # or ValueError, or drop the third entry
    "quad_point_search on the curve 5": lambda E: quad_point_search(5, 17, 5),
    "quad_point_search on the curve (1,)": lambda E: quad_point_search((1,), 17, 5),
    "twist_curve of (1, 2, 3)": lambda E: twist_curve((1, 2, 3), 17),
    "QuadPoint on the curve (0, 1, 2)": lambda E: QuadPoint(
        QuadElt(0, 0, 17), QuadElt(1, 0, 17), (0, 1, 2)
    ),
    # would otherwise end in a bare AttributeError
    "twist_map of 5": lambda E: twist_map(5, 17),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_argument_rule_raises_argument_error(e15, call):
    with pytest.raises(ArgumentError) as excinfo:
        call(e15)
    assert isinstance(excinfo.value, TwistgateError)
    assert isinstance(excinfo.value, ValueError)


def test_an_admissible_tuple_keeps_its_d_i_as_a_tuple():
    # a list would otherwise be kept, and hash() of the tuple raise TypeError
    tup = AdmissibleTuple(5, [17])
    assert tup.ds == (17,)
    assert hash(tup) == hash(AdmissibleTuple(5, (17,)))


def test_a_field_parameter_that_is_not_an_int_is_named_d():
    with pytest.raises(ArgumentError, match="^d must be an int, got 2.0$"):
        QuadElt(1, 2, 2.0)


def test_an_a_p_table_beyond_the_sieve_is_refused_before_it_is_allocated(e15):
    # a table to 5 * 10^7 would take 200 MB before the sieve's bound refused it
    tracemalloc.start()
    try:
        with pytest.raises(ArgumentError, match="^bound must be at most 1000000, got 50000000$"):
            LocalData(e15).traces_up_to(5 * 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# the functions that may test for a bool themselves: check_int, the rule;
# check_margin and l_value_at_1's t, which take real numbers; and
# twist_parameter_failure, which names a failure and does not raise
BOOL_TESTS_ALLOWED = {"check_int", "check_margin", "l_value_at_1", "twist_parameter_failure"}


def bool_test_owners(node, owner):
    """The innermost function (else owner) around each isinstance(_, bool)
    or isinstance(_, (..., bool, ...)) under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(t, ast.Name) and t.id == "bool" for t in ast.walk(node.args[1]))
    ):
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from bool_test_owners(child, owner)


def test_only_the_rule_tests_for_a_bool():
    owners = set()
    for path in Path(twistgate.__file__).parent.glob("*.py"):
        owners.update(bool_test_owners(ast.parse(path.read_text()), path.name))
    assert owners == BOOL_TESTS_ALLOWED
