"""Every CLI call built from the parser's own grammar ends in one JSON
document and a documented exit code.

The argv strategy walks build_parser(): a subcommand, each required option,
one option of each required exclusive group, and any optional ones, with
values of the option's type.  Integers are bounded so that every example
is desk scale.  Larger curves, twists and tuples reach L-series of 10^5
terms and more, whose a_p tables take seconds by baby-step giant-step (an
r = 3 tuple and a 338 003-term series are timed in test_cli.py); this test
does not measure them.  Each example runs under a deadline and a hard time
limit, so a hang fails the test instead of stalling the suite.
"""

import argparse
import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from twistgate.cli import EXIT_CODE, build_parser, run

from test_cli import time_limit

# Whole seconds one example may run before it is stopped; the deadline
# below is half of it, and the slowest examples take about 3 s.
TIME_LIMIT_S = 20

PRIMES = st.sampled_from([3, 5, 7, 11, 13, 17, 31])
INTS = st.one_of(st.integers(0, 12), st.integers(-60, 60), PRIMES)
SMALL = st.integers(-12, 12)
# lvalue's curve coefficients and twists: every default series stays below
# about 3 * 10^4 terms, counted on a fresh curve in a few seconds.
TINY = st.integers(-4, 4)


def csv(values, min_size, max_size):
    return st.lists(values, min_size=min_size, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs))
    )


def mostly(valid, invalid):
    """valid in about three examples of four."""
    return st.one_of(valid, valid, valid, invalid)


# Strategies for the options whose values are not plain bounded integers,
# keyed by (subcommand or None, dest).
VALUES = {
    (None, "label"): mostly(st.sampled_from(["15a1", "21a1", "15A1"]), st.text(max_size=6)),
    (None, "curve"): mostly(csv(SMALL, 5, 5), csv(SMALL, 0, 7) | st.text(max_size=12)),
    (None, "twist"): SMALL,
    ("lvalue", "curve"): mostly(csv(TINY, 5, 5), csv(TINY, 0, 7) | st.text(max_size=12)),
    ("lvalue", "twist"): st.integers(-6, 6),
    (None, "margin"): mostly(
        st.sampled_from(["1", "10", "20"]),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
    ),
    ("check-hypothesis", "d"): mostly(csv(st.integers(-30, 30), 0, 3), st.text(max_size=8)),
    ("descent-check", "d"): SMALL,
    ("reduction", "p"): mostly(PRIMES, INTS),
    ("serre-check", "ell"): mostly(PRIMES, INTS),
    ("serre-check", "aux"): mostly(PRIMES, INTS),
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _value(command, action):
    for key in ((command, action.dest), (None, action.dest)):
        if key in VALUES:
            return VALUES[key]
    if action.choices is not None:
        return st.sampled_from([str(c) for c in action.choices])
    if action.type is int:
        return INTS
    raise AssertionError(f"no strategy for {command} {action.option_strings}")


def _option(command, action):
    """One option as argv words, value joined by '=' so that a value
    starting with '-' stays a value."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return st.just([flag])
    return _value(command, action).map(lambda v: [f"{flag}={v}"])


@st.composite
def argvs(draw):
    parser = build_parser()
    command, sub = draw(st.sampled_from(sorted(_subparsers(parser).items())))
    grouped = {a for g in sub._mutually_exclusive_groups for a in g._group_actions}
    argv = [command]
    for group in sub._mutually_exclusive_groups:
        chosen = draw(st.sampled_from(group._group_actions))
        argv += draw(_option(command, chosen))
    for action in sub._actions:
        if not action.option_strings or action in grouped or action.dest == "help":
            continue
        if action.dest == "json":
            continue
        if action.required or draw(st.integers(0, 3)):
            argv += draw(_option(command, action))
    return argv + ["--json"]


def run_captured(argv):
    """(result, stdout) of one call, stopped after TIME_LIMIT_S."""
    out = io.StringIO()
    with time_limit(TIME_LIMIT_S), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            result = run(argv)
    return result, out.getvalue()


# Derandomized, so the suite runs the same argvs every time; no shrinking,
# so a hang is reported after one more run of its argv, not after many.
@settings(
    max_examples=400,
    deadline=timedelta(seconds=TIME_LIMIT_S / 2),
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_every_call_prints_one_document_with_a_documented_status(argv):
    result, out = run_captured(argv)
    document = json.loads(out)  # exactly one document, nothing else
    assert result.exit_code in (0, 1, 2), (argv, document)
    assert document["status"] == result.status
    assert EXIT_CODE[document["status"]] == result.exit_code
    assert document["command"] == argv[0]
    if result.exit_code == 2:
        assert document["payload"]["error_type"], argv
