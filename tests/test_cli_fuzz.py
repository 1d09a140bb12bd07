"""cli.main on seeded mutations of valid inputs for all eleven subcommands.

Each input gets one to four edits (insert, replace or delete) drawn from
the prefix characters, the digits, '&#;<>', NUL, a 0xff byte and 'é'.
Whatever the input, a command exits 0 with nothing on stderr, or exits 1
with exactly one stderr line labelled from cli._LABELS or io; check may
also exit 1 with its report on stdout and nothing on stderr."""

import random
import re
import string

import pytest

from xstring import (EncodeOptions, EscapeMode, build_substitution, encode,
                     fold, pack_envelope, parse_xml, render, serialize_xml)
from xstring import cli
from xstring.grammar import PREFIX_CHARS

import corpus as fixtures

_PIECES = [c.encode() for c in PREFIX_CHARS + string.digits + "&#;<>\0é"]
_PIECES.append(b"\xff")
_LABELS = {label for _, label in cli._LABELS} | {"io"}
_HOST = "<PAGE><XSTRING/></PAGE>"
CASES_PER_COMMAND = 120


def mutate(data: bytes, rng: random.Random) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(buf))
        edit = rng.randrange(3)
        if edit == 0 or at == len(buf):
            buf[at:at] = rng.choice(_PIECES)
        elif edit == 1:
            buf[at:at + 1] = rng.choice(_PIECES)
        else:
            del buf[at]
    return bytes(buf)


def _inputs():
    """Valid inputs by what they are: XML, streams, packed bytes, folds."""
    rng = random.Random(3)
    docs = [parse_xml(text) for text in (
        fixtures.PROPERTIES_XML, fixtures.MIXED_KINDS_XML,
        fixtures.RECORDS_XML, fixtures.SUBST_PLAIN_XML)]
    docs += rng.sample(fixtures.corpus(), 8)
    streams = []
    for i, doc in enumerate(docs):
        opts = EncodeOptions(mode=("sibling", "canonical")[i % 2],
                             escaping=list(EscapeMode)[i // 2 % 2])
        stream = encode(doc, opts)
        streams.append(stream)
        if i % 3 == 0:
            streams.append(build_substitution(stream, 2)[1])
    host = parse_xml(_HOST)
    return {
        "xml": [serialize_xml(doc).encode() for doc in docs],
        "stream": [render(s).encode() for s in streams],
        "packed": [pack_envelope(s) for s in streams],
        "folded": [serialize_xml(fold(doc, host)).encode()
                   for doc in docs[:6]],
    }


INPUTS = _inputs()
# command line (after the input path) and the input kind it reads
COMMANDS = {
    "encode": (["--mode", "canonical", "--subst-threshold", "2"], "xml"),
    "decode": ([], "stream"),
    "canon": ([], "stream"),
    "subst": (["--threshold", "2"], "stream"),
    "expand": ([], "stream"),
    "pack": ([], "stream"),
    "unpack": (["--escape", "sentinel"], "packed"),
    "fold": (["--host", "host.xml"], "xml"),
    "unfold": ([], "folded"),
    "stats": (["--escape", "sentinel"], "xml"),
    "check": ([], "xml"),
}


def test_commands_cover_the_cli():
    usage = cli.build_parser().format_usage()
    assert set(COMMANDS) == set(re.search("{(.*)}", usage)[1].split(","))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_fails_in_one_labelled_line(command, tmp_path,
                                                  monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    flags, kind = COMMANDS[command]
    rng = random.Random(f"fuzz {command}")
    src = tmp_path / "in"
    for _ in range(CASES_PER_COMMAND):
        data, host = rng.choice(INPUTS[kind]), _HOST.encode()
        if command == "fold" and rng.random() < 0.5:
            host = mutate(host, rng)
        else:
            data = mutate(data, rng)
        src.write_bytes(data)
        (tmp_path / "host.xml").write_bytes(host)
        status = cli.main([command, str(src), *flags])
        out, err = capsysbinary.readouterr()
        case = (command, data, host, status, err)
        if status == 0 or (command == "check" and status == 1 and out):
            assert err == b"", case
        else:
            assert status == 1, case
            lines = err.decode("utf-8").splitlines()
            assert len(lines) == 1 and err.endswith(b"\n"), case
            assert lines[0].split(": ", 1)[0] in _LABELS, case
