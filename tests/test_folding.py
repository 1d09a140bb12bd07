"""Tests for folding encoded documents into host attributes."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from xstring import XmlDocument, XmlNode, parse_xml
from xstring.codec import EmptyStream
from xstring.folding import (
    FoldMode,
    IndexOutOfRange,
    LengthMismatch,
    MixedSlot,
    MultipleSlots,
    NoSlot,
    SLOT_NAME,
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
from folding_oracle import oracle_fold, oracle_unfold
from steps import lines_run

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


def test_multi_fold_rejects_a_host_count_alone():
    # a COUNT above 0 with no pairs claims layers; COUNT="0" is fresh
    host = parse_xml('<h><XSTRING COUNT="2"/></h>')
    with pytest.raises(MixedSlot) as err:
        fold(parse_xml("<r/>"), host, FoldMode.MULTI)
    assert str(err.value) == ("host slot already holds folded layers; "
                              "fold the host as the inner document instead")
    host = parse_xml('<h><XSTRING COUNT="0"/></h>')
    assert serialize_xml(fold(parse_xml("<r/>"), host, FoldMode.MULTI)) == (
        '<h><XSTRING COUNT="1" LENGTH_0="2" TEXT_0="/r"/></h>')


def test_slot_search_reads_an_element_prolog():
    # the search walks the document, so a hand-built element prolog named
    # XSTRING is a slot like one under the root
    root = parse_xml("<h><XSTRING/></h>").root
    with pytest.raises(MultipleSlots, match="^host has 2 XSTRING elements$"):
        fold(parse_xml("<r/>"), XmlDocument(root, XmlNode.element(SLOT_NAME)))
    out = fold(parse_xml("<r/>"),
               XmlDocument(XmlNode.element("h"), XmlNode.element(SLOT_NAME)))
    assert out.prolog.attributes == [("LENGTH", "2"), ("TEXT", "/r")]
    assert serialize_xml(unfold(out)) == "<r/>"


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


# differential checks against the attribute-at-a-time layout code kept in
# folding_oracle.py

def outcome(fn, *args):
    """The serialized tree a call returns, or its error's class and text."""
    try:
        return serialize_xml(fn(*args))
    except Exception as err:
        return type(err), str(err)


def assert_same_unfolds(doc):
    """unfold agrees with the oracle at every index and one past the end."""
    count = slot_attrs(doc).get("COUNT", "0")
    indexes = range(int(count) + 1) if count.isdigit() else range(2)
    for index in [None, *indexes]:
        assert outcome(unfold, doc, index) == outcome(oracle_unfold, doc,
                                                      index)


COUNT_AMONG_OTHERS = ('<PAGE><B><XSTRING id="s" COUNT="0" z="9"/></B><C/>'
                      '</PAGE>')
DIFF_HOSTS = [
    "<PAGE><XSTRING/></PAGE>",
    XHTML_PAGE_XML,  # LENGTH="0" TEXT=""
    XHTML_PAGE_COUNT_XML,  # COUNT="0"
    # other attributes before, between and after the fold attributes
    '<PAGE a="1"><XSTRING id="s" LENGTH="" class="c" TEXT="old" z="9"/>'
    '</PAGE>',
    COUNT_AMONG_OTHERS,
    '<PAGE><XSTRING id="s" TEXT="" z=""/></PAGE>',
]


@pytest.mark.parametrize("mode", [FoldMode.NESTED, FoldMode.MULTI])
@pytest.mark.parametrize("host_xml", DIFF_HOSTS, ids=[
    "bare", "nested", "count_zero", "nested_among_others",
    "count_among_others", "text_only"])
def test_fold_matches_oracle_on_corpus(host_xml, mode):
    host = parse_xml(host_xml)
    for doc in corpus()[:80]:
        got = outcome(fold, doc, host, mode)
        assert got == outcome(oracle_fold, doc, host, mode)
        if isinstance(got, str):
            assert_same_unfolds(parse_xml(got))


CHAIN_HOSTS = [XHTML_HOST2_XML, COUNT_AMONG_OTHERS, XHTML_HOST3_XML]


@pytest.mark.parametrize("modes", list(itertools.product(
    [FoldMode.NESTED, FoldMode.MULTI], repeat=3)))
def test_fold_chains_match_oracle(modes):
    for first in (XHTML_PAGE_BARE_XML, XHTML_PAGE_COUNT_XML,
                  *map(serialize_xml, corpus()[:4])):
        doc = parse_xml(first)
        for mode, host_xml in zip(modes, CHAIN_HOSTS):
            host = parse_xml(host_xml)
            got = outcome(fold, doc, host, mode)
            assert got == outcome(oracle_fold, doc, host, mode)
            if not isinstance(got, str):
                break
            doc = parse_xml(got)
            assert_same_unfolds(doc)


# slots the parent already handled, some malformed, where nothing changes
ODD_SLOTS = [
    "<XSTRING/>",
    '<XSTRING LENGTH="" TEXT=""/>',
    '<XSTRING LENGTH="" TEXT="/X"/>',
    '<XSTRING LENGTH="2" TEXT="/X" LENGTH_0="9"/>',
    '<XSTRING COUNT="0"/>',
    '<XSTRING COUNT="0" keep="1"/>',
    '<XSTRING COUNT="x" LENGTH_0="2" TEXT_0="/X"/>',
    '<XSTRING COUNT="-1"/>',
    '<XSTRING COUNT="1" LENGTH_0="" TEXT_0=""/>',
    '<XSTRING COUNT="1" LENGTH_0="2" TEXT_0="/X" TEXT_x_3="y" TEXT_٣="z"/>',
    '<XSTRING COUNT="2" LENGTH_0="" TEXT_0="" LENGTH_1="13"'
    ' TEXT_1="/PAGE/XSTRING"/>',
    '<XSTRING COUNT="2" LENGTH_0="2" TEXT_0="/X" LENGTH_1="13"'
    ' TEXT_1="/PAGE/XSTRING" LENGTH_2="9"/>',
    '<XSTRING COUNT="2" LENGTH_0="2" TEXT_0="/X" LENGTH_1="2"'
    ' TEXT_1="/Y"/>',
    '<XSTRING LENGTH_0="2" TEXT_0="/X"/>',
]


@pytest.mark.parametrize("slot", ODD_SLOTS)
def test_odd_slots_match_oracle(slot):
    doc = parse_xml(f"<PAGE><A/>{slot}</PAGE>")
    assert_same_unfolds(doc)
    for mode in (FoldMode.NESTED, FoldMode.MULTI):
        for inner, host in ((doc, parse_xml("<P><XSTRING/></P>")),
                            (parse_xml("<X/>"), doc)):
            assert (outcome(fold, inner, host, mode)
                    == outcome(oracle_fold, inner, host, mode))


@pytest.mark.parametrize("slot, missing", [
    ('<XSTRING COUNT="2" LENGTH_1="13" TEXT_1="/PAGE/XSTRING"/>',
     "LENGTH_0"),
    ('<XSTRING COUNT="2" LENGTH_0="2" LENGTH_1="13"'
     ' TEXT_1="/PAGE/XSTRING"/>', "TEXT_0"),
    ('<XSTRING COUNT="3" LENGTH_0="2" TEXT_0="/X" LENGTH_1="13"'
     ' TEXT_1="/PAGE/XSTRING"/>', "LENGTH_2"),
])
def test_missing_pair_below_count_is_named(slot, missing):
    # the oracle reads a missing layer as empty when unfolding and invents
    # a ("0", "") pair for it when folding
    doc = parse_xml(f"<PAGE>{slot}</PAGE>")
    oracle_fold(doc, parse_xml("<P><XSTRING/></P>"), FoldMode.MULTI)
    error = f"COUNT says {slot_attrs(doc)['COUNT']} layers but the slot " \
            f"has no {missing}"
    with pytest.raises(LengthMismatch, match=f"^{error}$"):
        unfold(doc)
    with pytest.raises(LengthMismatch, match=f"^{error}$"):
        fold(doc, parse_xml("<P><XSTRING/></P>"), FoldMode.MULTI)


@pytest.mark.parametrize("slot", [
    '<XSTRING COUNT="1" LENGTH="2" TEXT="/X" LENGTH_0="2" TEXT_0="/X"/>',
    '<XSTRING COUNT="1" TEXT="" LENGTH_0="2" TEXT_0="/X"/>',
])
def test_multi_fold_rejects_mixed_inner_slot(slot):
    # the rule unfold applies; the oracle lifts the pairs and drops the
    # nested attributes
    inner = parse_xml(f"<D>{slot}</D>")
    host = parse_xml("<P><XSTRING/></P>")
    assert_same_unfolds(inner)
    oracle_fold(inner, host, FoldMode.MULTI)
    with pytest.raises(MixedSlot, match="^slot mixes nested and multi fold"
                                        " attributes$"):
        fold(inner, host, FoldMode.MULTI)


SLOT_NAMES = ["COUNT", "LENGTH", "TEXT", "LENGTH_0", "TEXT_0", "LENGTH_1",
              "TEXT_1", "LENGTH_2", "TEXT_2", "TEXT_x_1", "LENGTH_01", "a"]
SLOT_VALUES = ["", "0", "1", "2", "3", "13", "x", "-1", "/X", "/PAGE/XSTRING"]


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SLOT_NAMES),
                          st.sampled_from(SLOT_VALUES)),
                max_size=8, unique_by=lambda attr: attr[0]))
def test_random_slots_match_oracle_but_for_the_new_errors(attrs):
    slot = "".join(f' {name}="{value}"' for name, value in attrs)
    doc = parse_xml(f"<PAGE><A/><XSTRING{slot}/></PAGE>")
    bare = parse_xml("<P><XSTRING/></P>")
    calls = [(unfold, oracle_unfold, (doc, i)) for i in (None, 0, 1, 2, 3)]
    for mode in (FoldMode.NESTED, FoldMode.MULTI):
        calls.append((fold, oracle_fold, (doc, bare, mode)))
        calls.append((fold, oracle_fold, (parse_xml("<X/>"), doc, mode)))
    for new, old, args in calls:
        got = outcome(new, *args)
        if got == outcome(old, *args):
            continue
        missing_pair = (isinstance(got, tuple) and got[0] is LengthMismatch
                        and "layers but the slot has no" in got[1])
        mixed_inner = (args[0] is doc and args[-1] == FoldMode.MULTI
                       and got == (MixedSlot, "slot mixes nested and multi"
                                              " fold attributes"))
        assert missing_pair or mixed_inner, (args, got)


# cost: reading a slot is bounded by its attributes, whatever COUNT says

def layer_pairs(n):
    return "".join(f' LENGTH_{i}="2" TEXT_{i}="/X"' for i in range(n))


def folded_layers(n, claimed=None, below=None):
    """A multi fold of n layers whose top layer holds a slot; claimed
    overrides COUNT and below the number of pairs under the top one."""
    below = n - 1 if below is None else below
    return parse_xml(f'<P><XSTRING COUNT="{claimed or n}"{layer_pairs(below)}'
                     f' LENGTH_{n - 1}="10" TEXT_{n - 1}="/P/XSTRING"/></P>')


def test_fold_takes_linear_steps_in_layers():
    host = parse_xml("<PAGE><XSTRING/></PAGE>")

    def steps(n):
        inner = parse_xml(f'<DOC><XSTRING COUNT="{n}"{layer_pairs(n)}/></DOC>')
        return lines_run(fold, inner, host, FoldMode.MULTI)

    assert steps(1000) < 2.2 * steps(500)


def test_unfold_takes_linear_steps_in_layers():
    def steps(n):
        return lines_run(unfold, folded_layers(n))

    assert steps(1000) < 2.2 * steps(500)


# enough for a few pairs and the encode or decode of a small layer
FEW_STEPS = 5000


@pytest.mark.parametrize("claimed", ["100000", "1000000000"])
def test_unfold_reads_no_more_than_the_slot_holds(claimed):
    doc = folded_layers(int(claimed), below=0)
    with pytest.raises(LengthMismatch, match="has no LENGTH_0$"):
        lines_run(unfold, doc, limit=FEW_STEPS)


@pytest.mark.parametrize("claimed", ["300", "1000000000"])
def test_fold_reads_no_more_than_the_inner_slot_holds(claimed):
    inner = parse_xml(f'<DOC><XSTRING COUNT="{claimed}"/></DOC>')
    host = parse_xml("<PAGE><XSTRING/></PAGE>")
    with pytest.raises(LengthMismatch, match="has no LENGTH_0$"):
        lines_run(fold, inner, host, FoldMode.MULTI, limit=FEW_STEPS)
