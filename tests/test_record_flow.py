"""One LocalData record per curve per operation, passed down the pipeline.

Every function that only reads local data takes a model or its record, and
must give the same result (or raise the same error) from both.  A
hypothesis check builds at most one record per character twist, and hands
it to the root number, the L-value and its retry.
"""

import pytest

from twistgate.curve import WeierstrassModel, curve_by_label, quadratic_twist
from twistgate.fieldsearch import check_hypothesis
from twistgate.galois import default_aux_prime, serre_check
from twistgate.lseries import dirichlet_coefficients, l_value_at_1
from twistgate.reduction import LocalData, conductor, local_data
from twistgate.rootnum import global_root_number, local_root_number, twist_root_number_formula


def curves():
    e15, e21 = curve_by_label("15a1"), curve_by_label("21a1")
    return {
        "15a1": e15,
        "21a1": e21,
        "15a1^13": quadratic_twist(e15, 13),
        "21a1^-11": quadratic_twist(e21, -11),
        "0,-1,1,-29,-30": WeierstrassModel(0, -1, 1, -29, -30),
    }


def outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def readings(E, places):
    """Every pass-through function applied to E (a model or its record)."""
    return {
        "conductor": outcome(conductor, E),
        "global_root_number": outcome(global_root_number, E),
        "local_root_number": [outcome(local_root_number, E, v) for v in places],
        "formula(17)": outcome(twist_root_number_formula, E, 17),
        "formula(5)": outcome(twist_root_number_formula, E, 5),
        "dirichlet_coefficients": outcome(dirichlet_coefficients, E, 2000),
        "l_value_at_1": outcome(l_value_at_1, E),
        "default_aux_prime": outcome(default_aux_prime, E),
        "serre_check(3)": outcome(serre_check, E, 3),
        "serre_check(5, aux 11)": outcome(serre_check, E, 5, 11),
    }


@pytest.mark.parametrize("name", list(curves()))
def test_model_and_record_read_alike(name):
    model = curves()[name]
    record = local_data(model)
    assert local_data(record) is record
    places = ["inf", *record.delta_primes]
    assert readings(record, places) == readings(model, places)


def test_a_record_is_built_once_per_character(monkeypatch):
    check_hypothesis(5, [17, 61])  # warm: the base curve's a_p table is built
    built = []
    init = LocalData.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["model"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(LocalData, "__init__", counting_init)
    report = check_hypothesis(5, [17, 61])
    assert len(report.per_character) == 4
    assert len(built) <= len(report.per_character), built
