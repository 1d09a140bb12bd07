"""Tests for the command line front end, driven through main()."""

import io

import pytest

from xstring.cli import main

from corpus import (
    PROPERTIES_XML,
    PROPERTIES_XS,
    ROWS_MIXED_XML,
    ROWS_XS,
    ROWS_XS_CANONICAL,
    SUBST_KEYED_XS,
    SUBST_PLAIN_XS,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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
    monkeypatch.setattr("sys.stdin", io.StringIO(PROPERTIES_XML))
    assert main(["encode"]) == 0
    assert capsys.readouterr().out == PROPERTIES_XS


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


def test_pack_and_unpack(tmp_path, capsys):
    src = write(tmp_path, "in.xs", PROPERTIES_XS)
    packed = tmp_path / "out.xsb"
    assert main(["pack", src, "-o", str(packed)]) == 0
    data = packed.read_bytes()
    assert data[:5] == b"XSB1\x01"
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


def test_substitution_error_label(tmp_path, capsys):
    src = write(tmp_path, "in.xs", "/ROOT/42'x|42'y")
    assert main(["subst", src]) == 1
    assert capsys.readouterr().err.startswith("substitution: ")


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
    assert main(["decode", str(mid), "--escape", "sentinel",
                 "-o", str(back)]) == 0
    assert back.read_text() == "<X>a/b</X>\n"


def test_sentinel_escape_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("XSTRING_ESCAPE", "sentinel")
    src = write(tmp_path, "in.xml", "<X>a/b</X>")
    mid = tmp_path / "mid.xs"
    assert main(["encode", src, "-o", str(mid)]) == 0
    assert mid.read_bytes() == b"\x00/X\x00'a/b"


def test_invalid_escape_environment_is_usage_error(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("XSTRING_ESCAPE", "bogus")
    src = write(tmp_path, "in.xml", "<X/>")
    with pytest.raises(SystemExit) as exc:
        main(["encode", src])
    assert exc.value.code == 2
    assert "XSTRING_ESCAPE" in capsys.readouterr().err


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
