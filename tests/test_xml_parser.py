"""The one-frame XML parser against the per-character one it replaced."""

import sys
from xml.parsers import expat

import pytest
from hypothesis import given, settings, strategies as st

from xstring import (WellFormednessError, XmlDocument, XmlSyntaxError,
                     check_well_formed, parse_xml, serialize_xml,
                     structural_equal)
from xstring.xml_model import _NAME_RUN, walk

import corpus as fixtures
from parser_oracle import (_is_name_char, oracle_check_well_formed,
                           oracle_parse_xml)
from steps import python_calls

# XML whitespace, a non-ASCII letter and a non-XML space test the patterns'
# whitespace and name classes
ALPHABET = "<>/!?-[]&;#=\"' a1:\t\n\ré\xa0"
# whole markup openers make comments, CDATA and declarations likelier
PIECES = list(ALPHABET) + ["<!--", "-->", "<![CDATA[", "]]>", "<?", "?>",
                           "</", "/>", "&a;", "&#1;",
                           # duplicate, unquoted and misnamed attributes,
                           # digit-led and non-ASCII element names
                           "<b x='1' x='2'>", " y=2", "<1a>", "<é/>",
                           # what may and may not stand at the top level
                           "<!--c-->", "<?p d?>", "<?xml v?>", "<!DOCTYPE a>"]


def report(check, text):
    return [(v.rule, v.offset, v.message) for v in check(text).violations]


def parsed(parse, text):
    """The document parse reads from text, or its error's class, offset
    and message."""
    try:
        return parse(text)
    except (XmlSyntaxError, WellFormednessError) as e:
        return type(e), e.offset, str(e)


def assert_same(text):
    """check_well_formed gives the oracle's report, and parse_xml the
    oracle's tree and bytes or its error; structural_equal compares each
    node's kind, name, content, attribute list and depth."""
    got = report(check_well_formed, text)
    assert got == report(oracle_check_well_formed, text), text
    doc, want = parsed(parse_xml, text), parsed(oracle_parse_xml, text)
    if isinstance(want, XmlDocument):
        assert isinstance(doc, XmlDocument), (text, doc)
        assert structural_equal(doc, want, whitespace_significant=True), text
        assert serialize_xml(doc) == serialize_xml(want), text
    else:
        assert doc == want, text
    return got


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_random_markup_matches_oracle(text):
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=25).map("".join))
def test_random_markup_pieces_match_oracle(text):
    assert_same("<a>" + text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
def test_top_level_pieces_match_oracle(text):
    # the same pieces with nothing opened first: declarations, comments,
    # instructions and text before, beside and after the root
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(alphabet=ALPHABET, max_size=40),
                 st.lists(st.sampled_from(PIECES), max_size=25).map("".join)))
def test_parse_raises_the_first_violation_reported(text):
    # parse_xml succeeds exactly when the report is empty, and otherwise
    # raises the class, offset and message of its first violation
    violations = check_well_formed(text).violations
    got = parsed(parse_xml, text)
    if not violations:
        assert isinstance(got, XmlDocument), text
        return
    v = violations[0]
    if v.rule is None:
        want = XmlSyntaxError, v.offset, f"{v.message} at offset {v.offset}"
    else:
        want = (WellFormednessError, v.offset,
                f"rule {v.rule} at offset {v.offset}: {v.message}")
    assert got == want, text


@pytest.mark.parametrize("text", ["<a b=c/>", "<a b=c>x</a>", "<a b=/>",
                                  "<a b=c d='e'/>", "<a>&a.b-c;&#1;&</a>",
                                  "<a>&#;&#x1;&;</a>", "<a b=", '<a b="',
                                  "<a b =\t'c'/>", "<a =x/>",
                                  '<a b="1"c="2"/>', "</a\t>", "<r></r x>",
                                  "<a><b x='1' x='2' x='3'/></a>",
                                  "<a y=2 z='&'/>", "<1a/>", "<é/>",
                                  "<a:b _c='1'/>", "<!--c--><a/><?p d?>",
                                  "<?xml v?><!DOCTYPE a><a/>",
                                  "<a><!DOCTYPE b [<!ENTITY c 'd'>]></a>"])
def test_markup_edge_cases_match_oracle(text):
    assert_same(text)


BOM = "\ufeff"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=ALPHABET, max_size=40),
                 st.lists(st.sampled_from(PIECES), max_size=12).map("".join)))
def test_a_leading_byte_order_mark_is_not_content(text):
    # XML 1.0 4.3.3: the mark before the document, the declaration
    # included, is read past; offsets stay offsets into the given text
    assert report(check_well_formed, BOM + text) == [
        (rule, offset + 1, message)
        for rule, offset, message in report(check_well_formed, text)]
    doc, want = parsed(parse_xml, BOM + text), parsed(parse_xml, text)
    if isinstance(want, XmlDocument):
        assert structural_equal(doc, want, whitespace_significant=True)
        assert serialize_xml(doc) == serialize_xml(want)


@pytest.mark.parametrize("text", [
    BOM + "<r>a</r>", BOM + '<?xml version="1.0"?><r/>',
    BOM + BOM + "<r/>", "<r/>" + BOM, " " + BOM + "<r/>",
    BOM + " <?xml version='1.0'?><r/>", BOM])
def test_byte_order_mark_agrees_with_expat(text):
    # only the first character may be the mark; elsewhere it is content
    # that stands outside the root
    parser = expat.ParserCreate()
    try:
        parser.Parse(text.encode("utf-8"), True)
        expat_ok = True
    except expat.ExpatError:
        expat_ok = False
    assert check_well_formed(text).ok == expat_ok, text


def test_corpus_parses_as_oracle():
    for doc in fixtures.corpus():
        text = serialize_xml(doc)
        assert assert_same(text) == []


def test_parse_makes_few_python_calls_per_node():
    # the scan reads every construct in its own frame, so a node costs about
    # its constructor call: 1.3 calls per node on the corpus and 1.0 on a
    # wide table, where a method per construct, name check and push made
    # 8.4 and 7.6; a parser object with its own open stack and a method
    # to place the root cost three more calls per document (1.7)
    def calls_per_node(texts):
        docs = []
        calls = python_calls(lambda: [docs.append(parse_xml(t))
                                      for t in texts])
        return calls / sum(len(list(walk(d))) for d in docs)
    assert calls_per_node([serialize_xml(d) for d in fixtures.corpus()]) <= 1.6
    rows = "".join(f'<ROW ID="{i}"><NAME>n{i}</NAME><CITY>c</CITY>'
                   f"<QTY>{i}</QTY></ROW>" for i in range(300))
    assert calls_per_node([f"<TABLE>{rows}</TABLE>"]) <= 2.0


def test_name_pattern_is_name_char():
    # [\w.\-:] accepts exactly the characters _is_name_char accepted
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert ("".join(_NAME_RUN.findall(every))
            == "".join(filter(_is_name_char, every)))
