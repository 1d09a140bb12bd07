"""The one-pass safe-sibling encoder against the repair loop it replaced."""

from hypothesis import given, settings, strategies as st

from xstring import (
    DecodeState,
    EncodeOptions,
    EscapeMode,
    PrefixKind,
    XmlDocument,
    XmlNode,
    decode,
    encode,
    parse_xml,
    render,
    serialize_xml,
    structural_equal,
)

import corpus as fixtures
from sibling_oracle import oracle_encode

GOLDEN_XML = [
    fixtures.PROPERTIES_XML,
    fixtures.DEPTH3_XML,
    fixtures.DEPTH1_XML,
    fixtures.MIXED_KINDS_XML,
    fixtures.ROWS_XML,
    fixtures.ROWS_MIXED_XML,
    fixtures.RECORDS_XML,
    fixtures.XHTML_PAGE_XML,
    fixtures.XHTML_PAGE_COUNT_XML,
]

ESCAPES = (EscapeMode.ENTITY, EscapeMode.SENTINEL)


def both(doc, escaping=EscapeMode.ENTITY):
    new = encode(doc, EncodeOptions(escaping=escaping))
    return render(new), render(oracle_encode(doc, escaping))


def markers(xs):
    return sum(tok.depth is not None for tok in xs.tokens)


def siblings(xs):
    return sum(tok.kind is PrefixKind.SIBLING for tok in xs.tokens)


def test_goldens_match_oracle():
    for xml in GOLDEN_XML:
        for esc in ESCAPES:
            new, old = both(parse_xml(xml), esc)
            assert new == old, xml


def test_corpus_matches_oracle():
    for doc in fixtures.corpus():
        for esc in ESCAPES:
            new, old = both(doc, esc)
            assert new == old


def test_earlier_demotion_in_the_oracle():
    # The repair loop handles a budget conflict anywhere in the stream
    # before it fixes the leftmost misplaced node.  While the second a still
    # closes the middle b, the last b would close the root, so the loop
    # demotes it and then needs +5 on the middle b.  Fixing nodes left to
    # right demotes the second a first and keeps the last b a sibling.
    doc = parse_xml("<b><b><b><?p?><a/></b>t<a/></b><b/></b>")
    new, old = both(doc)
    assert new == "/b/b/b+2?p/a't/a|b"
    assert old == "/b/b+5/b+2?p/a't/a/b"
    assert structural_equal(decode(encode(doc)), doc)


def test_one_decode_feed_per_token(monkeypatch):
    xml = "<R>" + "<ROW><A/><!--c--></ROW>t" * 800 + "</R>"
    doc = parse_xml(xml)
    feeds = 0
    feed = DecodeState.feed

    def counted(self, tok):
        nonlocal feeds
        feeds += 1
        feed(self, tok)

    monkeypatch.setattr(DecodeState, "feed", counted)
    xs = encode(doc)
    assert feeds == len(xs.tokens)


_NAMES = st.sampled_from("abcd")
_LEAVES = st.one_of(
    st.builds(XmlNode.element, _NAMES),
    st.builds(XmlNode.text, st.text("tu", min_size=1, max_size=2)),
    st.builds(XmlNode.comment, st.just("c")),
    st.builds(XmlNode.pi, st.just("p")),
)


def _element(children):
    return st.builds(lambda name, kids: XmlNode.element(name, children=kids),
                     _NAMES, st.lists(children, max_size=4))


# few names, so sibling tokens often match an open element of the same name
_DOCUMENTS = _element(st.recursive(_LEAVES, _element, max_leaves=30))


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_never_worse_than_oracle(root):
    # serialize and parse again so adjacent text merges as in a parsed file
    doc = parse_xml(serialize_xml(XmlDocument(root)))
    new = encode(doc)
    old = oracle_encode(doc)
    assert structural_equal(decode(new), doc, whitespace_significant=True)
    assert len(render(new)) <= len(render(old))
    assert markers(new) <= markers(old)
    assert siblings(new) >= siblings(old)
