"""Tests for the command line front end, driven through main()."""

import argparse
import io
import os
import pty
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import xstring
from xstring import cli, codec, metrics
from xstring import (EncodeOptions, EscapeMode, FoldMode, build_substitution,
                     decode, encode, expand_substitution, fold, pack_envelope,
                     parse_xml, render, serialize_xml, to_child_depth,
                     tokenize)
from xstring.cli import main
from xstring.codec import DecodeState
from xstring.xml_model import walk

import corpus as fixtures
from corpus import (
    PROPERTIES_XML,
    PROPERTIES_XS,
    RECORDS_XML,
    ROWS_MIXED_XML,
    ROWS_XML,
    ROWS_XS,
    ROWS_XS_CANONICAL,
    SUBST_KEYED_XS,
    SUBST_PLAIN_XS,
)
from test_encoder_walk import _inject


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def stdin_of(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_encode_to_file_is_byte_exact(tmp_path):
    src = write(tmp_path, "in.xml", PROPERTIES_XML)
    out = tmp_path / "out.xs"
    assert main(["encode", src, "-o", str(out)]) == 0
    assert out.read_bytes() == PROPERTIES_XS.encode()


def test_encode_to_stdout_has_no_trailing_newline(tmp_path, capsys):
    src = write(tmp_path, "in.xml", PROPERTIES_XML)
    assert main(["encode", src]) == 0
    assert capsys.readouterr().out == PROPERTIES_XS


def test_encode_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of(PROPERTIES_XML.encode()))
    assert main(["encode"]) == 0
    assert capsys.readouterr().out == PROPERTIES_XS


# CR, CRLF and text outside ASCII and Latin-1 in one stream
CR_STREAM = "/r'a\rb\r\nc \u00e9\u20ac"
CR_XML = serialize_xml(decode(tokenize(CR_STREAM)))
# command -> (its input, the library's output for it)
CR_CASES = {
    "decode": (CR_STREAM, (CR_XML + "\n").encode()),
    "pack": (CR_STREAM, pack_envelope(tokenize(CR_STREAM))),
    "encode": (CR_XML, render(encode(parse_xml(CR_XML))).encode()),
}


@pytest.mark.parametrize("command", sorted(CR_CASES))
def test_file_stdin_and_locale_read_the_same_bytes(command, tmp_path,
                                                   monkeypatch, capsysbinary):
    text, want = CR_CASES[command]
    data = text.encode()
    assert "\r" in text and want.count(b"\r") == 2
    src = tmp_path / "in"
    src.write_bytes(data)
    assert main([command, str(src)]) == 0
    assert capsysbinary.readouterr().out == want
    monkeypatch.setattr("sys.stdin", stdin_of(data))
    assert main([command]) == 0
    assert capsysbinary.readouterr().out == want
    # a real process whose stdin and stdout default to another codec
    env = dict(os.environ, PYTHONIOENCODING="latin-1",
               PYTHONPATH=str(Path(xstring.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "xstring", command],
                         input=data, capture_output=True, env=env,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == want


def test_encode_canonical_mode(tmp_path, capsys):
    src = write(tmp_path, "in.xml",
                ROWS_MIXED_XML.replace("Doe", "Doh"))
    assert main(["encode", src, "--mode", "canonical"]) == 0
    assert capsys.readouterr().out == ROWS_XS_CANONICAL


def test_decode_writes_xml_with_newline(tmp_path, capsys):
    src = write(tmp_path, "in.xs", PROPERTIES_XS)
    assert main(["decode", src]) == 0
    assert capsys.readouterr().out == PROPERTIES_XML + "\n"


def test_encode_decode_round_trip_through_files(tmp_path):
    src = write(tmp_path, "in.xml", ROWS_MIXED_XML)
    mid = tmp_path / "mid.xs"
    back = tmp_path / "back.xml"
    assert main(["encode", src, "-o", str(mid)]) == 0
    assert main(["decode", str(mid), "-o", str(back)]) == 0
    assert back.read_text() == ROWS_MIXED_XML + "\n"


def test_canon_rewrites_siblings(tmp_path, capsys):
    src = write(tmp_path, "in.xs", ROWS_XS)
    assert main(["canon", src]) == 0
    assert capsys.readouterr().out == ROWS_XS_CANONICAL


def test_subst_and_expand(tmp_path, capsys):
    src = write(tmp_path, "in.xs", SUBST_PLAIN_XS)
    assert main(["subst", src]) == 0
    assert capsys.readouterr().out == SUBST_KEYED_XS
    keyed = write(tmp_path, "keyed.xs", SUBST_KEYED_XS)
    assert main(["expand", keyed]) == 0
    assert capsys.readouterr().out == SUBST_PLAIN_XS


def test_subst_threshold_flag(tmp_path, capsys):
    src = write(tmp_path, "in.xs", "/R/ABCD'x|ABCD'y")
    assert main(["subst", src]) == 0
    assert capsys.readouterr().out == "/R/ABCD'x|ABCD'y"
    assert main(["subst", src, "--threshold", "4"]) == 0
    assert capsys.readouterr().out == "/R/ABCD#0'x|0'y"


def test_encode_and_stats_subst_threshold_flag(tmp_path, capsys):
    src = write(tmp_path, "in.xml", RECORDS_XML)
    assert main(["encode", src, "--subst-threshold", "4"]) == 0
    assert capsys.readouterr().out == (
        "/EMP/REC@FNAME#0=John@LNAME#1=Doe|REC@0=Jane@1=Doh")
    assert main(["stats", src]) == 0
    assert "xs_chars=54\n" in capsys.readouterr().out
    assert main(["stats", src, "--subst-threshold", "4"]) == 0
    assert "xs_chars=50\n" in capsys.readouterr().out


def test_pack_and_unpack(tmp_path, capsys):
    src = write(tmp_path, "in.xs", PROPERTIES_XS)
    packed = tmp_path / "out.xsb"
    assert main(["pack", src, "-o", str(packed)]) == 0
    data = packed.read_bytes()
    assert data[:5] == b"XSB1\x03"
    assert main(["unpack", str(packed)]) == 0
    assert capsys.readouterr().out == PROPERTIES_XS


def test_fold_and_unfold(tmp_path, capsys):
    inner = write(tmp_path, "inner.xml", "<DOC><A>hi there</A><B/></DOC>")
    host = write(tmp_path, "host.xml", "<PAGE><XSTRING/></PAGE>")
    folded = tmp_path / "folded.xml"
    assert main(["fold", inner, "--host", host, "-o", str(folded)]) == 0
    assert folded.read_text() == ('<PAGE><XSTRING LENGTH="17"'
                                  ' TEXT="/DOC/A\'hi&#160;there|B"/></PAGE>\n')
    assert main(["unfold", str(folded)]) == 0
    assert capsys.readouterr().out == "<DOC><A>hi there</A><B/></DOC>\n"


def test_fold_multi_and_unfold_index(tmp_path, capsys):
    inner = write(tmp_path, "inner.xml", "<X/>")
    host = write(tmp_path, "host.xml", "<PAGE><XSTRING/></PAGE>")
    folded = tmp_path / "folded.xml"
    assert main(["fold", inner, "--host", host, "--fold-mode", "multi",
                 "-o", str(folded)]) == 0
    assert 'COUNT="1"' in folded.read_text()
    assert main(["unfold", str(folded), "--index", "0"]) == 0
    assert capsys.readouterr().out == "<X/>\n"


def test_unfold_index_out_of_range(tmp_path, capsys):
    doc = write(tmp_path, "doc.xml",
                '<P><XSTRING LENGTH="2" TEXT="/X"/></P>')
    assert main(["unfold", doc, "--index", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fold: ")
    assert err.endswith("\n")


def test_unfold_of_a_slot_missing_layers(tmp_path, capsys):
    # COUNT claims 100000 layers but the slot holds only the top pair
    doc = write(tmp_path, "doc.xml",
                '<P><XSTRING COUNT="100000" LENGTH_99999="10"'
                ' TEXT_99999="/P/XSTRING"/></P>')
    assert main(["unfold", doc]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fold: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_stats_kv(tmp_path, capsys):
    src = write(tmp_path, "in.xml", ROWS_MIXED_XML)
    assert main(["stats", src]) == 0
    out = capsys.readouterr().out
    assert "xml_chars=107" in out
    assert "xs_chars=54" in out
    assert "ratio=0.5047" in out


def test_stats_table(tmp_path, capsys):
    src = write(tmp_path, "in.xml", ROWS_MIXED_XML)
    assert main(["stats", src, "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["construct", "count", "xml", "xs"]
    assert lines[-1].split() == ["total", "107", "54"]


SPACED_XML = '<LIST>\n  <ITEM id="1">one</ITEM>\n  <ITEM id="2"/>\n</LIST>\n'


@pytest.mark.parametrize("flags, totals", [
    ([], ("xml_chars=50", "xs_chars=29", "text.count=1")),
    (["--keep-whitespace"], ("xml_chars=57", "xs_chars=43", "text.count=4")),
    (["--mode", "canonical", "--escape", "sentinel"],
     ("xml_chars=50", "xs_chars=46", "text.count=1")),
    (["--mode", "canonical", "--escape", "sentinel", "--keep-whitespace"],
     ("xml_chars=57", "xs_chars=59", "text.count=4")),
], ids=["default", "keep", "canonical_sentinel", "canonical_sentinel_keep"])
def test_stats_whitespace_and_mode_flags(tmp_path, capsys, flags, totals):
    # the encode flags decide whether the stream holds the three
    # whitespace-only text nodes between the elements
    src = write(tmp_path, "in.xml", SPACED_XML)
    assert main(["stats", src, *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert tuple(line for line in lines if line.startswith(
        ("xml_chars=", "xs_chars=", "text.count="))) == totals


def test_stats_parses_its_input_once(tmp_path, capsys, monkeypatch):
    # measure checks the stream against the tree the encoder read
    calls = 0

    def counted(text):
        nonlocal calls
        calls += 1
        return parse_xml(text)

    monkeypatch.setattr(cli, "parse_xml", counted)
    monkeypatch.setattr(metrics, "parse_xml", counted)
    src = write(tmp_path, "in.xml", SPACED_XML)
    assert main(["stats", src]) == 0
    assert "xml_chars=50" in capsys.readouterr().out
    assert calls == 1


TABLE_XML = "<TABLE>" + "".join(
    f'<RECORD ID="{i}"><NAME>n{i}</NAME><CITY>c</CITY></RECORD>'
    for i in range(200)) + "</TABLE>"


@pytest.mark.parametrize("flags", [[], ["--subst-threshold", "4"]])
def test_stats_verifies_its_stream_once(tmp_path, capsys, monkeypatch, flags):
    # measure is the one check of the stream stats writes: one decode feed
    # per token, where encode's own check made a second, and the report
    # measure gives for encode's checked stream
    stream = encode(parse_xml(TABLE_XML))
    if flags:
        _, stream = build_substitution(stream, 4)
    want = metrics.measure(TABLE_XML, stream).as_kv() + "\n"
    feeds = 0
    feed = DecodeState.feed

    def counted(self, *token):
        nonlocal feeds
        feeds += 1
        feed(self, *token)

    monkeypatch.setattr(DecodeState, "feed", counted)
    src = write(tmp_path, "in.xml", TABLE_XML)
    assert main(["stats", src, *flags]) == 0
    assert capsys.readouterr().out == want
    assert feeds == len(stream.tokens)


def test_stats_reports_an_unwritable_tree_on_one_line(tmp_path, capsys,
                                                      monkeypatch):
    # a node the emitter refuses, injected as test_encoder_walk does:
    # stats fails with encode's error
    rng = random.Random(7)
    src = write(tmp_path, "in.xml", "<r/>")
    checked = 0
    for doc in fixtures.corpus()[:40]:
        doc = doc.copy()
        _inject(rng.choice([node for node, _, _ in walk((doc.root,))]), rng)
        try:
            encode(doc)
            continue  # the injection missed, e.g. an element's content
        except xstring.Unencodable as e:
            want = f"encode: {e}\n"
        monkeypatch.setattr(cli, "parse_xml", lambda text: doc)
        assert main(["stats", src]) == 1
        assert capsys.readouterr().err == want
        checked += 1
    assert checked > 10


def test_stats_reports_a_stream_fault_on_one_line(tmp_path, capsys,
                                                  monkeypatch):
    # an emitter that writes a stream of another document: measure, the
    # one check, refuses it
    emit = codec._emit

    def faulty(written, escaping, canonical):
        xs = emit(written, escaping, canonical)
        for column in (xs.kinds, xs.payloads, xs.depths, xs.keys):
            column.pop()
        return xs

    monkeypatch.setattr(codec, "_emit", faulty)
    src = write(tmp_path, "in.xml", ROWS_MIXED_XML)
    assert main(["stats", src]) == 1
    assert capsys.readouterr().err == (
        "measure: the stream does not encode this document\n")


def test_check_ok(tmp_path, capsys):
    src = write(tmp_path, "in.xml", "<A><B/></A>")
    assert main(["check", src]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_reports_violations(tmp_path, capsys):
    src = write(tmp_path, "in.xml", "<A><B></A></B>")
    assert main(["check", src]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rule 4 at offset ")


def test_check_reports_syntax(tmp_path, capsys):
    src = write(tmp_path, "in.xml", "<A")
    assert main(["check", src]) == 1
    assert capsys.readouterr().out.startswith("syntax at offset ")


def test_error_goes_to_stderr_with_label(tmp_path, capsys):
    src = write(tmp_path, "in.xs", "'text")
    assert main(["decode", src]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("decode: ")


def test_parse_error_label(tmp_path, capsys):
    src = write(tmp_path, "in.xml", "<A")
    assert main(["encode", src]) == 1
    assert capsys.readouterr().err.startswith("syntax: ")


def test_pack_error_label(tmp_path, capsys):
    bad = tmp_path / "bad.xsb"
    bad.write_bytes(b"NOPE")
    assert main(["unpack", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("pack: ")


def test_pack_error_label_on_an_overlong_container(tmp_path, capsys):
    # a deflated text container that states 2**63 raw bytes from one
    # stored byte: one labelled line, not a traceback
    bad = tmp_path / "bad.xsb"
    bad.write_bytes(b"XSB1\x03\x02\x02\x01" + b"\x80" * 9 + b"\x01"
                    + b"\x01\xfe\x03")
    assert main(["unpack", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("pack: ")


def test_substitution_error_label(tmp_path, capsys):
    src = write(tmp_path, "in.xs", "/ROOT/42'x|42'y")
    assert main(["subst", src]) == 1
    assert capsys.readouterr().err.startswith("substitution: ")


def test_subst_of_a_keyed_stream_label(tmp_path, capsys):
    # a stream that already binds keys is refused with one labelled line
    src = write(tmp_path, "in.xs", SUBST_KEYED_XS)
    assert main(["subst", "--threshold", "2", src]) == 1
    assert capsys.readouterr().err == (
        "substitution: stream already carries substitution keys\n")


def test_fold_error_label(tmp_path, capsys):
    inner = write(tmp_path, "inner.xml", "<X/>")
    host = write(tmp_path, "host.xml", "<PAGE/>")
    assert main(["fold", inner, "--host", host]) == 1
    assert capsys.readouterr().err.startswith("fold: ")


@pytest.mark.parametrize("wire", ["/X+" + "9" * 5000, "/X#" + "9" * 5000,
                                  "/" + "9" * 5000],
                         ids=["depth", "key", "reference"])
def test_overlong_digit_run_label(tmp_path, capsys, wire):
    src = write(tmp_path, "in.xs", wire)
    assert main(["decode", src]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tokenize: ")
    assert err.count("\n") == 1


def test_missing_input_file_label(tmp_path, capsys):
    assert main(["encode", str(tmp_path / "absent.xml")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io: ")
    assert captured.err.count("\n") == 1


def test_non_utf8_input_label(tmp_path, capsys):
    src = tmp_path / "latin1.xml"
    src.write_bytes("<A>caf\u00e9</A>".encode("latin-1"))
    assert main(["encode", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io: ")
    assert captured.err.count("\n") == 1


def test_deep_document_round_trip(tmp_path, capsys):
    xml = "<A>" * 3000 + "t" + "</A>" * 3000
    src = write(tmp_path, "in.xml", xml)
    mid = tmp_path / "mid.xs"
    back = tmp_path / "back.xml"
    assert main(["encode", src, "-o", str(mid)]) == 0
    assert main(["decode", str(mid), "-o", str(back)]) == 0
    assert capsys.readouterr().err == ""
    assert back.read_text() == xml + "\n"


def test_sentinel_escape_flag_round_trip(tmp_path):
    src = write(tmp_path, "in.xml", "<X>a/b</X>")
    mid = tmp_path / "mid.xs"
    back = tmp_path / "back.xml"
    assert main(["encode", src, "--escape", "sentinel",
                 "-o", str(mid)]) == 0
    assert mid.read_bytes() == b"\x00/X\x00'a/b"
    assert main(["decode", str(mid), "-o", str(back)]) == 0
    assert back.read_text() == "<X>a/b</X>\n"


# the commands that read a stream: command -> (its flags, the library's
# output for the stream it reads)
READERS = {
    "decode": ([], lambda xs: (serialize_xml(decode(xs)) + "\n").encode()),
    "canon": ([], lambda xs: render(to_child_depth(xs)).encode()),
    "subst": (["--threshold", "2"],
              lambda xs: render(build_substitution(xs, 2)[1]).encode()),
    "expand": ([], lambda xs: render(expand_substitution(xs)).encode()),
    "pack": ([], pack_envelope),
}
READER_XML = '<list><item id="1">a/b</item><item id="2"/></list>'


def reader_input(command, mode):
    """READER_XML encoded in mode, and keyed for expand."""
    xs = encode(parse_xml(READER_XML), EncodeOptions(escaping=mode))
    if command == "expand":
        _, xs = build_substitution(xs, 2)
    return render(xs)


@pytest.mark.parametrize("pad", ["", " \n"], ids=["bare", "padded"])
@pytest.mark.parametrize("mode", list(EscapeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("command", sorted(READERS))
def test_stream_readers_take_the_mode_from_the_stream(command, mode, pad,
                                                      tmp_path,
                                                      capsysbinary):
    flags, library = READERS[command]
    text = pad + reader_input(command, mode)
    src = tmp_path / "in.xs"
    src.write_bytes(text.encode())
    assert main([command, str(src), *flags]) == 0
    out = capsysbinary.readouterr().out
    assert out == library(tokenize(text, mode))
    if command in ("canon", "subst", "expand"):
        # written in the mode read
        assert (b"\0" in out) == (mode is EscapeMode.SENTINEL)


@pytest.mark.parametrize("command", sorted(READERS))
def test_stream_readers_have_no_escape_flag(command, tmp_path, capsys):
    src = write(tmp_path, "in.xs", "/r")
    for mode in ("entity", "sentinel"):
        with pytest.raises(SystemExit) as exc:
            main([command, src, "--escape", mode])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", sorted(READERS))
def test_escape_environment_leaves_stream_readers_alone(command, tmp_path,
                                                        monkeypatch,
                                                        capsysbinary):
    flags, library = READERS[command]
    text = reader_input(command, EscapeMode.ENTITY)
    src = tmp_path / "in.xs"
    src.write_bytes(text.encode())
    monkeypatch.setenv("XSTRING_ESCAPE", "sentinel")
    assert main([command, str(src), *flags]) == 0
    assert capsysbinary.readouterr().out == library(tokenize(text))


@pytest.mark.parametrize("command, choices", [
    ("encode", ["{sibling,canonical}", "{entity,sentinel}"]),
    ("stats", ["{sibling,canonical}", "{entity,sentinel}", "{kv,table}"]),
    ("unpack", ["{entity,sentinel}"]),
    ("fold", ["{nested,multi}"]),
])
def test_help_lists_each_options_values_in_order(command, choices, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for listed in choices:
        assert listed in out


def test_help_shows_each_options_parser_default(monkeypatch):
    # the help reads each default from its option, so a default changed
    # in the parser cannot leave --help stale: with every option's default
    # replaced by a marker, each help that names a default names the marker
    monkeypatch.setenv("COLUMNS", "200")
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    shown = set()
    for command, sub in commands.items():
        options = [action for action in sub._actions if action.option_strings]
        for action in options:
            action.default = f"{command}:{action.dest}"
        text = sub.format_help()
        shown |= {action.default for action in options
                  if f"(default {action.default})" in text}
    assert shown == {"encode:mode", "encode:escape", "stats:mode",
                     "stats:escape", "stats:format", "unpack:escape",
                     "subst:threshold", "fold:fold_mode"}


@pytest.mark.parametrize("argv, values", [
    (["encode", "--mode", "bogus"], ["sibling", "canonical"]),
    (["encode", "--escape", "bogus"], ["entity", "sentinel"]),
    (["fold", "--host", "h.xml", "--fold-mode", "bogus"], ["nested", "multi"]),
], ids=["mode", "escape", "fold_mode"])
def test_invalid_choice_is_usage_error(argv, values, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # each value a plain string, which argparse prints with repr on 3.11
    # and with str on some later releases; a member would show its repr
    listed = ", ".join(f"'?{value}'?" for value in values)
    assert re.search(f"invalid choice: 'bogus' \\(choose from {listed}\\)",
                     err), err


def test_option_values_work_as_plain_strings():
    # the command line hands these over as the strings it parsed
    opts = EncodeOptions(mode="canonical")
    assert render(encode(parse_xml(ROWS_XML), opts)) == ROWS_XS_CANONICAL
    doc, host = parse_xml("<a/>"), parse_xml("<h><XSTRING/></h>")
    assert serialize_xml(fold(doc, host, "multi")) == serialize_xml(
        fold(doc, host, FoldMode.MULTI))
    assert EscapeMode("sentinel") is EscapeMode.SENTINEL


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_threshold_is_usage_error(tmp_path, capsys):
    src = write(tmp_path, "in.xs", SUBST_PLAIN_XS)
    with pytest.raises(SystemExit) as exc:
        main(["subst", src, "--threshold", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["subst", "IN", "--threshold", "abc"],
    ["encode", "IN", "--subst-threshold", "1.5"],
    ["stats", "IN", "--subst-threshold", ""],
])
def test_non_integer_threshold_names_no_private_function(tmp_path, capsys,
                                                         argv):
    # argparse names the type function in the message of a ValueError
    src = write(tmp_path, "in.xml", "<r/>")
    with pytest.raises(SystemExit) as exc:
        main([src if arg == "IN" else arg for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "threshold must be an integer" in err
    assert "_threshold" not in err


def test_cli_smoke_script(tmp_path):
    # the installed-package checks, with an xstring on PATH that runs this
    # source tree; CI runs the script again against the installed one
    if shutil.which("bash") is None:
        pytest.skip("bash not found")
    script = Path(__file__).with_name("cli_smoke.sh")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "xstring"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m xstring "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=str(Path(xstring.__file__).parents[1]))
    # -x traces each command to stderr, so a failure names the check
    run = subprocess.run(["bash", "-x", str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, errors="replace",
                         timeout=300)
    assert run.returncode == 0, "\n".join(run.stderr.splitlines()[-30:])


def run_module(args, stdin, stdout):
    """python -m xstring on this source tree, its stdout on the file
    descriptor stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(xstring.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "xstring", *args],
                          input=stdin, stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=120)


def run_on_terminal(args, stdin):
    """run_module with stdout on a pseudo-terminal; returns the run and
    what the terminal received."""
    master, slave = pty.openpty()
    try:
        run = run_module(args, stdin, slave)
    finally:
        os.close(slave)
    shown = b""
    try:
        while chunk := os.read(master, 4096):
            shown += chunk
    except OSError:  # the terminal reads EIO once its other end is gone
        pass
    finally:
        os.close(master)
    return run, shown


def test_pack_refuses_a_terminal():
    run, shown = run_on_terminal(["pack"], b"/r")
    assert run.returncode == 2
    assert run.stderr.decode() == ("refusing to write packed data to a "
                                   "terminal; use --output or redirect\n")
    assert shown == b""


def test_sentinel_encode_to_a_terminal_notes_its_nul_bytes():
    run, shown = run_on_terminal(["encode", "--escape", "sentinel"], b"<r/>")
    assert run.returncode == 0
    assert "note: sentinel output contains NUL bytes" in run.stderr.decode()
    assert shown == b"\0/r"  # the NUL names the stream's escape mode


def test_decode_into_a_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = run_module(["decode"], b"/r'" + b"x" * 400_000, write_end)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == b""
