"""The CLI's output layer: the --json document is written by cli._json in
json.dumps(document, indent=2)'s layout byte for byte, and text is formatted
only when it is printed."""

import hashlib
import json
import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistgate import cli
from twistgate.cli import STATUS_INTERNAL, _json, run

# every code point, lone surrogates and control characters included, and
# the characters json escapes by name
CHARACTERS = st.characters(exclude_categories=()) | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé 😀')
STRINGS = st.text(CHARACTERS, max_size=12)
SCALARS = st.one_of(
    STRINGS,
    st.integers(),
    st.integers(-(2**300), 2**300),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.sampled_from([True, False, None]),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=20,
)


@given(VALUES)
def test_the_writer_is_json_dumps_with_indent_2(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [Decimal("1.5"), {1, 2}, {1: "a"}, {None: 1}, {("a",): 1}, [{"ok": [b"bytes"]}]],
    ids=["Decimal", "set", "int key", "None key", "tuple key", "nested bytes"],
)
def test_any_other_key_or_value_is_a_type_error(value):
    with pytest.raises(TypeError):
        _json(value)


def test_run_does_not_call_json_dumps(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refused)
    run(["root-number", "--label", "15a1", "--twist", "13", "--json"])
    text = capsys.readouterr().out
    monkeypatch.undo()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["curve-info", "--label", "15a1"],
        ["search", "--p", "5", "--r", "2", "--bound", "100"],
        ["check-hypothesis", "--p", "5", "--d", "17,61"],
        ["check-hypothesis", "--p", "5", "--d", "13"],
        ["descent-check", "--lemma", "tmw", "--d", "17", "--height", "50"],
        ["reduction", "--label", "15a1", "--p", "4"],
    ],
)
def test_the_document_has_the_indent_2_layout(capsys, argv):
    run(argv + ["--json"])
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_formats_no_text(monkeypatch, capsys):
    # the payload's 25 and 8 digits for each of four characters; the text's
    # 12 digits only when it is printed
    widths = []
    significant = cli._significant
    monkeypatch.setattr(cli, "_significant", lambda x, n: widths.append(n) or significant(x, n))
    argv = ["check-hypothesis", "--p", "5", "--d", "17,61"]
    run(argv + ["--json"])
    assert sorted(widths) == [8] * 4 + [25] * 4
    widths.clear()
    run(argv)
    assert sorted(widths) == [8] * 4 + [12] * 4 + [25] * 4
    capsys.readouterr()


def test_a_raise_while_formatting_text_is_its_documented_status(monkeypatch, capsys):
    def fault(s):
        raise cli.InvariantError("sign out of range")

    monkeypatch.setattr(cli, "_sign_str", fault)
    result = run(["root-number", "--label", "15a1"])
    captured = capsys.readouterr()
    assert (result.status, result.exit_code) == (STATUS_INTERNAL, 3)
    assert result.text() == []
    assert captured.out == ""
    assert captured.err == "error: InvariantError: sign out of range\n"
    # --json formats no text, so the same fault is not met
    assert run(["root-number", "--label", "15a1", "--json"]).exit_code == 0
    capsys.readouterr()


# SHA-256 prefixes of each subcommand's text, pinned before text became lazy
TEXT_SHA256 = {
    "curve-info --label 15a1": "7190b0e05cfa",
    "reduction --label 15a1 --p 5": "b1eef184cf6a",
    "root-number --label 15a1": "320bd49478f4",
    "root-number --label 15a1 --twist 13": "b20edc0f9e3d",
    "twist-root-check --label 15a1 --dmax 50": "de220db0905c",
    "lvalue --label 15a1 --twist 17": "b676a3d4112b",
    "serre-check --ell 5 --label 15a1": "036e6a78297f",
    "serre-check --curve 0,0,0,-1,0 --ell 5": "6c09aef0533a",
    "search --p 5 --r 2 --bound 100": "305ca40bf0c7",
    "check-hypothesis --p 5 --d 17,61": "b4fe374c5aa6",
    "check-hypothesis --p 5 --d 13": "71e66c3d3b0c",
    "descent-check --lemma sum --k 2 --n 1 --r 1": "b7671dce3438",
    "descent-check --lemma tmw --d 17 --height 50": "7f1d4de50956",
}


def test_every_subcommand_has_pinned_text():
    assert {command.split()[0] for command in TEXT_SHA256} == set(
        cli.build_parser()._subparsers._group_actions[0].choices
    )


@pytest.mark.parametrize("command", TEXT_SHA256)
def test_text_is_unchanged(capsys, command):
    run(command.split())
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == TEXT_SHA256[command], text
