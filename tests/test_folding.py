"""Tests for folding encoded documents into host attributes."""

import pytest

from xstring import parse_xml
from xstring.codec import EmptyStream
from xstring.folding import (
    FoldMode,
    IndexOutOfRange,
    LengthMismatch,
    MixedSlot,
    MultipleSlots,
    NoSlot,
    escape_fold_attr,
    fold,
    unescape_fold_attr,
    unfold,
)
from xstring.xml_model import serialize_xml, structural_equal

from corpus import (
    XHTML_HOST2_XML,
    XHTML_HOST3_XML,
    XHTML_PAGE_COUNT_XML,
    XHTML_PAGE_XML,
    corpus,
)

XHTML_HOST4_XML = (XHTML_HOST3_XML
                   .replace("Going too far perhaps?", "One more level")
                   .replace("This is way too much!", "Still going"))
XHTML_PAGE_BARE_XML = XHTML_PAGE_XML.replace(
    '<XSTRING LENGTH="0" TEXT="" />', "<XSTRING/>")


def slot_attrs(doc):
    stack = [doc.root]
    while stack:
        node = stack.pop()
        if getattr(node, "name", None) == "XSTRING":
            return dict(node.attributes)
        stack.extend(getattr(node, "children", []))
    raise AssertionError("no slot in document")


def test_escape_fold_attr_golden():
    assert escape_fold_attr("/DOC/A'hi there|B") == "/DOC/A'hi&#160;there|B"
    assert escape_fold_attr(' "&<') == "&#160;&#34;&#38;&#60;"
    assert escape_fold_attr("/X'abc") == "/X'abc"


def test_unescape_fold_attr_golden():
    assert unescape_fold_attr("/DOC/A'hi&#160;there|B") == "/DOC/A'hi there|B"
    assert unescape_fold_attr("&#160;&#34;&#38;&#60;") == ' "&<'
    # nbsp is accepted on the way in but never produced
    assert unescape_fold_attr("a&nbsp;b") == "a b"
    assert escape_fold_attr(" ") == "&#160;"
    # refs outside the fold set stay verbatim
    assert unescape_fold_attr("a&#47;b&amp;c") == "a&#47;b&amp;c"


def test_unescape_inverts_escape():
    samples = ["", " ", '"', "&", "<", "/A'x y|B@N=v", 'say "hi" & <bye>']
    for s in samples:
        assert unescape_fold_attr(escape_fold_attr(s)) == s


def test_nested_fold_golden():
    inner = parse_xml("<DOC><A>hi there</A><B/></DOC>")
    host = parse_xml("<PAGE><XSTRING/></PAGE>")
    out = fold(inner, host)
    assert serialize_xml(out) == ('<PAGE><XSTRING LENGTH="17"'
                                  ' TEXT="/DOC/A\'hi&#160;there|B"/></PAGE>')
    back = unfold(out)
    assert structural_equal(back, inner)


def test_nested_fold_tiny_document():
    out = fold(parse_xml("<X/>"), parse_xml("<PAGE><XSTRING/></PAGE>"))
    attrs = slot_attrs(out)
    assert attrs == {"LENGTH": "2", "TEXT": "/X"}


def test_fold_leaves_host_alone():
    host = parse_xml("<PAGE><XSTRING/></PAGE>")
    fold(parse_xml("<X/>"), host)
    assert slot_attrs(host) == {}


def test_nested_fold_overwrites_slot():
    host = parse_xml(XHTML_PAGE_XML)
    out = fold(parse_xml("<X/>"), host)
    attrs = slot_attrs(out)
    assert attrs["LENGTH"] == "2"
    assert attrs["TEXT"] == "/X"


def test_nested_chain_three_levels():
    page = parse_xml(XHTML_PAGE_XML)
    f1 = fold(page, parse_xml(XHTML_HOST2_XML))
    f2 = fold(f1, parse_xml(XHTML_HOST3_XML))
    f3 = fold(f2, parse_xml(XHTML_HOST4_XML))
    assert structural_equal(unfold(f3), f2)
    assert structural_equal(unfold(unfold(f3)), f1)
    assert structural_equal(unfold(unfold(unfold(f3))), page)


def test_nested_chain_escapes_stack_up():
    page = parse_xml(XHTML_PAGE_XML)
    f1 = fold(page, parse_xml(XHTML_HOST2_XML))
    f2 = fold(f1, parse_xml(XHTML_HOST3_XML))
    t1 = slot_attrs(f1)["TEXT"]
    t2 = slot_attrs(f2)["TEXT"]
    # each nesting escapes the stored layer again, so the text grows
    assert len(t2) > len(t1)
    # layer 1 keeps its slashes raw; layer 2 stores them entity-escaped
    # and the fold escape then hits the ampersand of that entity
    assert "/HTML" in t1
    assert "&#38;#47;HTML" in t2


def test_length_counts_raw_characters():
    for doc in (parse_xml(XHTML_PAGE_XML), parse_xml("<A>x y z</A>")):
        out = fold(doc, parse_xml(XHTML_HOST2_XML))
        attrs = slot_attrs(out)
        raw = unescape_fold_attr(attrs["TEXT"])
        assert int(attrs["LENGTH"]) == len(raw)


def test_multi_fold_golden_chain():
    inner = parse_xml("<DOC><A>hi there</A><B/></DOC>")
    m1 = fold(inner, parse_xml("<PAGE><XSTRING/></PAGE>"), FoldMode.MULTI)
    a1 = slot_attrs(m1)
    assert a1 == {"COUNT": "1", "LENGTH_0": "17",
                  "TEXT_0": "/DOC/A'hi&#160;there|B"}
    m2 = fold(m1, parse_xml("<PAGE><XSTRING/></PAGE>"), FoldMode.MULTI)
    a2 = slot_attrs(m2)
    # layer 0 moves up verbatim, no second escaping pass
    assert a2["LENGTH_0"] == a1["LENGTH_0"]
    assert a2["TEXT_0"] == a1["TEXT_0"]
    # layer 1 is m1 with its slot reset to a bare element
    assert a2 == {"COUNT": "2", "LENGTH_0": "17",
                  "TEXT_0": "/DOC/A'hi&#160;there|B",
                  "LENGTH_1": "13", "TEXT_1": "/PAGE/XSTRING"}


def test_multi_chain_three_levels():
    page = parse_xml(XHTML_PAGE_BARE_XML)
    f1 = fold(page, parse_xml(XHTML_HOST2_XML), FoldMode.MULTI)
    f2 = fold(f1, parse_xml(XHTML_HOST3_XML), FoldMode.MULTI)
    f3 = fold(f2, parse_xml(XHTML_HOST4_XML), FoldMode.MULTI)
    assert slot_attrs(f1)["COUNT"] == "1"
    assert slot_attrs(f2)["COUNT"] == "2"
    assert slot_attrs(f3)["COUNT"] == "3"
    # peel one layer at a time
    assert structural_equal(unfold(f3), f2)
    assert structural_equal(unfold(unfold(f3)), f1)
    assert structural_equal(unfold(unfold(unfold(f3))), page)


def test_multi_unfold_skips_to_any_layer():
    page = parse_xml(XHTML_PAGE_BARE_XML)
    f1 = fold(page, parse_xml(XHTML_HOST2_XML), FoldMode.MULTI)
    f2 = fold(f1, parse_xml(XHTML_HOST3_XML), FoldMode.MULTI)
    assert structural_equal(unfold(f2, 0), page)
    assert structural_equal(unfold(f2, 1), f1)
    assert structural_equal(unfold(f2), f1)


def test_multi_fold_collapses_fresh_inner_slot():
    # an inner slot holding COUNT="0" is the fresh state; it folds and
    # unfolds as a bare slot
    page = parse_xml(XHTML_PAGE_COUNT_XML)
    f1 = fold(page, parse_xml(XHTML_HOST2_XML), FoldMode.MULTI)
    back = unfold(f1)
    assert not structural_equal(back, page)
    assert structural_equal(back, parse_xml(XHTML_PAGE_BARE_XML))


def test_multi_pairs_stay_single_escaped():
    page = parse_xml(XHTML_PAGE_BARE_XML)
    f1 = fold(page, parse_xml(XHTML_HOST2_XML), FoldMode.MULTI)
    f2 = fold(f1, parse_xml(XHTML_HOST3_XML), FoldMode.MULTI)
    f3 = fold(f2, parse_xml(XHTML_HOST4_XML), FoldMode.MULTI)
    for attrs in (slot_attrs(f2), slot_attrs(f3)):
        for name, value in attrs.items():
            if name.startswith("TEXT_"):
                assert "&#38;#" not in value


def test_multi_accepts_count_zero_host():
    host = parse_xml('<PAGE><XSTRING COUNT="0"/></PAGE>')
    out = fold(parse_xml("<X/>"), host, FoldMode.MULTI)
    assert slot_attrs(out)["COUNT"] == "1"


def test_no_slot():
    with pytest.raises(NoSlot):
        fold(parse_xml("<X/>"), parse_xml("<PAGE/>"))
    with pytest.raises(NoSlot):
        unfold(parse_xml("<PAGE><OTHER/></PAGE>"))


def test_multiple_slots():
    host = parse_xml("<PAGE><XSTRING/><XSTRING/></PAGE>")
    with pytest.raises(MultipleSlots):
        fold(parse_xml("<X/>"), host)
    inner = parse_xml("<DOC><XSTRING/><SUB><XSTRING/></SUB></DOC>")
    with pytest.raises(MultipleSlots):
        fold(inner, parse_xml("<PAGE><XSTRING/></PAGE>"), FoldMode.MULTI)


def test_nested_fold_rejects_multi_slot():
    host = parse_xml(XHTML_PAGE_COUNT_XML)
    with pytest.raises(MixedSlot):
        fold(parse_xml("<X/>"), host)


def test_multi_fold_rejects_occupied_host():
    # slot already carries nested attributes
    with pytest.raises(MixedSlot):
        fold(parse_xml("<X/>"), parse_xml(XHTML_PAGE_XML), FoldMode.MULTI)
    # slot already carries folded layers
    held = fold(parse_xml("<X/>"), parse_xml(XHTML_HOST2_XML), FoldMode.MULTI)
    with pytest.raises(MixedSlot):
        fold(parse_xml("<Y/>"), held, FoldMode.MULTI)


def test_multi_fold_rejects_nested_inner_slot():
    inner = fold(parse_xml("<X/>"), parse_xml(XHTML_HOST2_XML))
    with pytest.raises(MixedSlot):
        fold(inner, parse_xml(XHTML_HOST3_XML), FoldMode.MULTI)


def test_unfold_rejects_mixed_attributes():
    doc = parse_xml('<PAGE><XSTRING COUNT="1" LENGTH="2" TEXT="/X"'
                    ' LENGTH_0="2" TEXT_0="/X"/></PAGE>')
    with pytest.raises(MixedSlot):
        unfold(doc)


def test_unknown_fold_mode():
    with pytest.raises(ValueError):
        fold(parse_xml("<X/>"), parse_xml("<PAGE><XSTRING/></PAGE>"), "sideways")


def test_index_out_of_range():
    nested = fold(parse_xml("<X/>"), parse_xml(XHTML_HOST2_XML))
    with pytest.raises(IndexOutOfRange):
        unfold(nested, 1)
    multi = fold(parse_xml("<X/>"), parse_xml(XHTML_HOST2_XML), FoldMode.MULTI)
    with pytest.raises(IndexOutOfRange):
        unfold(multi, 1)
    with pytest.raises(IndexOutOfRange):
        unfold(multi, -1)


def test_tampered_text_caught():
    out = fold(parse_xml("<DOC><A>hi there</A></DOC>"),
               parse_xml(XHTML_HOST2_XML))
    text = serialize_xml(out).replace("hi&#160;there", "hi&#160;theremore")
    with pytest.raises(LengthMismatch):
        unfold(parse_xml(text))


def test_bad_length_values():
    with pytest.raises(LengthMismatch):
        unfold(parse_xml('<P><XSTRING LENGTH="abc" TEXT="/X"/></P>'))
    with pytest.raises(LengthMismatch):
        unfold(parse_xml('<P><XSTRING LENGTH="-1" TEXT="/X"/></P>'))
    with pytest.raises(LengthMismatch):
        unfold(parse_xml('<P><XSTRING COUNT="x" LENGTH_0="2" TEXT_0="/X"/></P>'))
    with pytest.raises(LengthMismatch):
        unfold(parse_xml('<P><XSTRING COUNT="-2"/></P>'))


def test_unfold_empty_slot_is_a_decode_error():
    with pytest.raises(EmptyStream):
        unfold(parse_xml("<PAGE><XSTRING/></PAGE>"))


def test_fold_round_trip_on_corpus():
    host = parse_xml("<PAGE><XSTRING/></PAGE>")
    for doc in corpus()[:60]:
        for mode in (FoldMode.NESTED, FoldMode.MULTI):
            out = fold(doc, host, mode)
            reparsed = parse_xml(serialize_xml(out))
            assert structural_equal(unfold(reparsed), doc)


@pytest.mark.parametrize("count", ["0_6", " 6 ", "+6", "٦", "６",
                                   "6" * 5000])
def test_counts_are_ascii_digits(count):
    # int() reads each of these but the last as 6; a folded document is
    # outside input, so its counts are plain ASCII digits or nothing
    with pytest.raises(LengthMismatch, match="is not a number"):
        unfold(parse_xml(f'<P><XSTRING LENGTH="{count}" TEXT="/X"/></P>'))
    with pytest.raises(LengthMismatch, match="is not a number"):
        unfold(parse_xml(f'<P><XSTRING COUNT="{count}"/></P>'))


@pytest.mark.parametrize("count", ["-1", "-0"])
def test_signed_counts_are_negative(count):
    with pytest.raises(LengthMismatch, match="is negative"):
        unfold(parse_xml(f'<P><XSTRING LENGTH="{count}" TEXT="/X"/></P>'))


def test_host_count_zero_is_ascii():
    # "0_0" is not the explicit zero that marks a fresh slot
    host = parse_xml('<PAGE><XSTRING COUNT="0_0"/></PAGE>')
    with pytest.raises(LengthMismatch, match="is not a number"):
        fold(parse_xml("<X/>"), host, FoldMode.MULTI)


def test_layer_suffix_is_ascii():
    # TEXT_٣ is no layer's attribute: the slot stays fresh and keeps it
    host = parse_xml('<PAGE><XSTRING TEXT_٣="x"/></PAGE>')
    out = fold(parse_xml("<X/>"), host, FoldMode.MULTI)
    assert slot_attrs(out)["TEXT_٣"] == "x"
    assert slot_attrs(out)["COUNT"] == "1"
