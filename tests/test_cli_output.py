"""The CLI's output layer: the --json document is json.dumps(document),
one line, and text is formatted only when it is printed."""

import hashlib
import json

import pytest

from twistgate import cli
from twistgate.cli import STATUS_INTERNAL, run


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
    assert text == json.dumps(json.loads(text)) + "\n"


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


# SHA-256 prefixes of each subcommand's text, pinned before text became
# lazy, and of its --json stdout, pinned as json.dumps(json.loads(stdout))
# + "\n" of the indented documents written before: the same content in the
# one-line layout
TEXT_SHA256 = {
    "curve-info --label 15a1": ("7190b0e05cfa", "22b6840ec6b1"),
    "reduction --label 15a1 --p 5": ("b1eef184cf6a", "09a75bf145db"),
    "root-number --label 15a1": ("320bd49478f4", "96a43cd78245"),
    "root-number --label 15a1 --twist 13": ("b20edc0f9e3d", "1dfef6193f81"),
    "twist-root-check --label 15a1 --dmax 50": ("de220db0905c", "c01964055884"),
    "lvalue --label 15a1 --twist 17": ("b676a3d4112b", "656dfe8e951e"),
    "serre-check --ell 5 --label 15a1": ("036e6a78297f", "7306f5ef295b"),
    "serre-check --curve 0,0,0,-1,0 --ell 5": ("6c09aef0533a", "dff54a71de30"),
    "search --p 5 --r 2 --bound 100": ("305ca40bf0c7", "0a3c9c874724"),
    "check-hypothesis --p 5 --d 17,61": ("b4fe374c5aa6", "3657dada88ce"),
    "check-hypothesis --p 5 --d 13": ("71e66c3d3b0c", "efe900ff205e"),
    "descent-check --lemma sum --k 2 --n 1 --r 1": ("b7671dce3438", "a40bb8c9fcd5"),
    "descent-check --lemma tmw --d 17 --height 50": ("7f1d4de50956", "5d661ee50ebe"),
}


def test_every_subcommand_has_pinned_text():
    assert {command.split()[0] for command in TEXT_SHA256} == set(
        cli.build_parser()._subparsers._group_actions[0].choices
    )


@pytest.mark.parametrize("command", TEXT_SHA256)
def test_text_is_unchanged(capsys, command):
    run(command.split())
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == TEXT_SHA256[command][0], text


@pytest.mark.parametrize("command", TEXT_SHA256)
def test_the_document_is_unchanged(capsys, command):
    run(command.split() + ["--json"])
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == TEXT_SHA256[command][1], text
