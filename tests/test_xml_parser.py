"""The pattern-driven XML parser against the per-character one it replaced."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from xstring import (check_well_formed, parse_xml, serialize_xml,
                     structural_equal)
from xstring.xml_model import _NAME_RUN

import corpus as fixtures
from parser_oracle import (_is_name_char, oracle_check_well_formed,
                           oracle_parse_xml)

# XML whitespace, a non-ASCII letter and a non-XML space test the patterns'
# whitespace and name classes
ALPHABET = "<>/!?-[]&;#=\"' a1:\t\n\ré\xa0"
# whole markup openers make comments, CDATA and declarations likelier
PIECES = list(ALPHABET) + ["<!--", "-->", "<![CDATA[", "]]>", "<?", "?>",
                           "</", "/>", "&a;", "&#1;"]


def report(check, text):
    return [(v.rule, v.offset, v.message) for v in check(text).violations]


def assert_same(text):
    got = report(check_well_formed, text)
    assert got == report(oracle_check_well_formed, text), text
    return got


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_random_markup_matches_oracle(text):
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=25).map("".join))
def test_random_markup_pieces_match_oracle(text):
    assert_same("<a>" + text)


@pytest.mark.parametrize("text", ["<a b=c/>", "<a b=c>x</a>", "<a b=/>",
                                  "<a b=c d='e'/>", "<a>&a.b-c;&#1;&</a>",
                                  "<a>&#;&#x1;&;</a>", "<a b=", '<a b="',
                                  "<a b =\t'c'/>", "<a =x/>",
                                  '<a b="1"c="2"/>', "</a\t>", "<r></r x>"])
def test_markup_edge_cases_match_oracle(text):
    assert_same(text)


def test_corpus_parses_as_oracle():
    for doc in fixtures.corpus():
        text = serialize_xml(doc)
        assert assert_same(text) == []
        assert structural_equal(parse_xml(text), oracle_parse_xml(text),
                                whitespace_significant=True)


def test_name_pattern_is_name_char():
    # [\w.\-:] accepts exactly the characters _is_name_char accepted
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert ("".join(_NAME_RUN.findall(every))
            == "".join(filter(_is_name_char, every)))
