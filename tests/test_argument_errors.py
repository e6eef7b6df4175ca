"""Every argument rule is the library's: a value outside a function's
domain raises ArgumentError, which is both a TwistgateError (the CLI's
unsupported-input) and a ValueError (what library callers catch)."""

import pytest

from twistgate.curve import minimalize_at, short_form
from twistgate.descent import SignedModule, enumerate_signed_modules, quad_point_search
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
from twistgate.numtheory import factor, jacobi, primes_up_to, valuation
from twistgate.reduction import LocalData, classify, count_points
from twistgate.rootnum import twist_parameters, twist_sweep

TUPLE_17_61 = AdmissibleTuple(5, (17, 61))

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
    "a_p at primes [11.0, 13]": lambda E: LocalData(E).traces([11.0, 13]),
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
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_argument_rule_raises_argument_error(e15, call):
    with pytest.raises(ArgumentError) as excinfo:
        call(e15)
    assert isinstance(excinfo.value, TwistgateError)
    assert isinstance(excinfo.value, ValueError)
