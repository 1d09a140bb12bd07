"""Tests for the size accounting tables and the ratio limit."""

import pytest

from xstring import parse_xml
from xstring.binary import pack_envelope
from xstring.codec import encode
from xstring.grammar import render
from xstring.metrics import (
    AsymptoteProbe,
    ConstructKind,
    Mismatch,
    asymptote_check,
    measure,
    predict_size,
)
from xstring.xml_model import serialize_xml

from corpus import RECORDS_XML, ROWS_MIXED_XML, corpus

NS = (1, 5, 50)
MS = (1, 5)


def report_for(xml_text):
    return measure(xml_text, encode(parse_xml(xml_text)))


def test_predict_size_goldens():
    assert predict_size(ConstructKind.NESTED_TAG, 3) == (11, 4)
    assert predict_size(ConstructKind.EMPTY_TAG, 3) == (6, 4)
    assert predict_size(ConstructKind.PI_TAG, 2) == (6, 3)
    assert predict_size(ConstructKind.DTD_ELEMENT, 4) == (7, 5)
    assert predict_size(ConstructKind.COMMENT_TAG, 7) == (14, 8)
    assert predict_size(ConstructKind.CDATA_TAG, 4) == (16, 5)
    assert predict_size(ConstructKind.TEXT, 4) == (4, 5)
    assert predict_size(ConstructKind.TEXT_DUAL, 4) == (4, 6)
    assert predict_size(ConstructKind.ATTRIBUTE, 5, m=4) == (12, 11)


def test_predict_size_validation():
    with pytest.raises(ValueError):
        predict_size(ConstructKind.TEXT, 0)
    with pytest.raises(ValueError):
        predict_size(ConstructKind.ATTRIBUTE, 3)


@pytest.mark.parametrize("n", NS)
def test_measured_empty_tag_matches_row(n):
    report = report_for(f"<{'A' * n}/>")
    stat = report.constructs[ConstructKind.EMPTY_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.EMPTY_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_nested_tag_matches_row(n):
    name = "A" * n
    report = report_for(f"<{name}><B/></{name}>")
    stat = report.constructs[ConstructKind.NESTED_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.NESTED_TAG, n))
    inner = report.constructs[ConstructKind.EMPTY_TAG]
    assert (inner.xml_chars, inner.xs_chars) == (4, 2)


@pytest.mark.parametrize("n", NS)
def test_measured_pi_matches_row(n):
    report = report_for(f"<R><?{'A' * n}?></R>")
    stat = report.constructs[ConstructKind.PI_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.PI_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_dtd_matches_row(n):
    report = report_for(f"<R><!{'D' * n}></R>")
    stat = report.constructs[ConstructKind.DTD_ELEMENT]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.DTD_ELEMENT, n))


@pytest.mark.parametrize("n", NS)
def test_measured_comment_matches_row(n):
    report = report_for(f"<R><!--{'C' * n}--></R>")
    stat = report.constructs[ConstructKind.COMMENT_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.COMMENT_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_cdata_matches_row(n):
    report = report_for(f"<R><![CDATA[{'x' * n}]]></R>")
    stat = report.constructs[ConstructKind.CDATA_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.CDATA_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_text_matches_row(n):
    report = report_for(f"<R>{'t' * n}</R>")
    stat = report.constructs[ConstructKind.TEXT]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.TEXT, n))


@pytest.mark.parametrize("n", NS)
def test_measured_text_dual_matches_row(n):
    # a trailing prefix character forces the dual form
    report = report_for(f"<R>{'t' * (n - 1)}/</R>")
    stat = report.constructs[ConstructKind.TEXT_DUAL]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.TEXT_DUAL, n))


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("n", NS)
def test_measured_attribute_matches_row(n, m):
    report = report_for(f'<R {"N" * m}="{"v" * n}"/>')
    stat = report.constructs[ConstructKind.ATTRIBUTE]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.ATTRIBUTE, n, m=m))
    # the space before the attribute is separator overhead
    assert report.xml_overhead == 1


def test_construct_columns_add_up():
    for xml_text in (ROWS_MIXED_XML, RECORDS_XML,
                     "<A><B c=\"1\" d=\"2\">text</B><!--n--></A>"):
        report = report_for(xml_text)
        assert sum(s.xml_chars for s in report.constructs.values()) \
            + report.xml_overhead == report.xml_chars
        assert sum(s.xs_chars for s in report.constructs.values()) \
            == report.xs_chars


def test_columns_add_up_on_corpus():
    for doc in corpus()[:80]:
        xs = encode(doc)
        report = measure(serialize_xml(doc), xs)
        assert sum(s.xml_chars for s in report.constructs.values()) \
            + report.xml_overhead == report.xml_chars
        assert sum(s.xs_chars for s in report.constructs.values()) \
            == report.xs_chars
        assert report.xs_chars == len(render(xs))
        assert report.xsb_bytes == len(pack_envelope(xs))


def test_two_row_table_sizes():
    report = report_for(ROWS_MIXED_XML)
    assert report.xml_chars == 107
    assert report.xml_chars_raw == 107
    assert report.xs_chars == 54
    assert report.ratio == pytest.approx(54 / 107)
    assert report.xs_chars < report.xml_chars


def test_attribute_mapped_table_sizes():
    report = report_for(RECORDS_XML)
    assert report.xml_chars == 73
    assert report.xs_chars == 54
    assert report.ratio == pytest.approx(54 / 73)
    assert report.xs_chars < report.xml_chars


def test_measure_rejects_wrong_stream():
    with pytest.raises(Mismatch):
        measure(ROWS_MIXED_XML, encode(parse_xml(RECORDS_XML)))
    with pytest.raises(Mismatch):
        measure("<A/>", encode(parse_xml("<B/>")))


def test_asymptote_short_names():
    probe = asymptote_check(1, 50)
    assert isinstance(probe, AsymptoteProbe)
    assert probe.limit == pytest.approx(2 / 7)
    assert abs(probe.ratio - probe.limit) < 0.02
    assert probe.ratio > probe.limit


def test_asymptote_medium_names():
    probe = asymptote_check(10, 50)
    assert probe.limit == pytest.approx(11 / 25)
    assert abs(probe.ratio - probe.limit) < 0.02


def test_asymptote_long_names_near_half():
    probe = asymptote_check(100, 50)
    assert 0.48 <= probe.ratio <= 0.52


def test_asymptote_ratio_consistent():
    probe = asymptote_check(3, 12)
    assert probe.ratio == pytest.approx(probe.xs_chars / probe.xml_chars)
    assert probe.xml_chars == len(serialize_xml(
        parse_xml("<AAA>" * 11 + "<AAA/>" + "</AAA>" * 11)))


@pytest.mark.parametrize("n", [1, 4, 16])
def test_asymptote_deep_chain_nears_limit(n):
    # far past the old recursion limit of about 330 levels
    probe = asymptote_check(n, 10_000)
    assert probe.xs_chars == 10_000 * (n + 1)
    assert 0 < probe.ratio - probe.limit < 1e-4


def test_asymptote_validation():
    with pytest.raises(ValueError):
        asymptote_check(0, 5)
    with pytest.raises(ValueError):
        asymptote_check(5, 0)


def test_report_as_kv():
    text = report_for(ROWS_MIXED_XML).as_kv()
    assert "xml_chars=107" in text
    assert "xs_chars=54" in text
    assert "ratio=0.5047" in text
    assert "nested_tag.count=7" in text
    assert "text.count=4" in text


def test_report_as_table():
    text = report_for(RECORDS_XML).as_table()
    lines = text.splitlines()
    assert lines[0].split() == ["construct", "count", "xml", "xs"]
    assert lines[-1].split() == ["total", "73", "54"]
    assert any(row.split()[0] == "attribute" for row in lines[1:-2])
