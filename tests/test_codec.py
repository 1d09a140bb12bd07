"""Decode state machine and the two encoders."""

import pytest

from xstring import (
    AttrAfterContent,
    BadToken,
    BudgetConflict,
    BudgetOverrun,
    ContentAfterRoot,
    DanglingAttr,
    DuplicateAttr,
    EmptyStream,
    BadStreamStart,
    EncodeMode,
    EncodeOptions,
    EscapeMode,
    NodeKind,
    PrefixKind,
    Unencodable,
    UnknownKey,
    XmlDocument,
    XmlNode,
    XsDocument,
    XsToken,
    build_substitution,
    decode,
    descendant_count,
    encode,
    parse_xml,
    render,
    serialize_xml,
    structural_equal,
    tokenize,
)

from corpus import (
    DEPTH1_XML,
    DEPTH1_XS,
    DEPTH3_XML,
    DEPTH3_XS,
    MIXED_KINDS_XML,
    MIXED_KINDS_XS,
    PROPERTIES_XML,
    PROPERTIES_XS,
    ROWS_XML,
    ROWS_XS,
    ROWS_XS_CANONICAL,
    XHTML_PAGE_XML,
    make_corpus,
)


def dec(text, escaping=EscapeMode.ENTITY):
    return decode(tokenize(text, escaping))


# decoding

def test_decode_sibling_stream():
    doc = dec(PROPERTIES_XS)
    assert structural_equal(doc, parse_xml(PROPERTIES_XML))


def test_decode_depth_pair_distinct_trees():
    three = dec(DEPTH3_XS)
    one = dec(DEPTH1_XS)
    assert structural_equal(three, parse_xml(DEPTH3_XML))
    assert structural_equal(one, parse_xml(DEPTH1_XML))
    assert not structural_equal(three, one)
    # depth 3: TAG encloses all three data nodes
    tag = three.root.children[0]
    assert [n.kind for n in tag.children] == [NodeKind.PROC_INSTR,
                                              NodeKind.COMMENT, NodeKind.TEXT]
    # depth 1: only the instruction is inside TAG
    tag = one.root.children[0]
    assert [n.kind for n in tag.children] == [NodeKind.PROC_INSTR]
    assert [n.kind for n in one.root.children] == [
        NodeKind.ELEMENT, NodeKind.COMMENT, NodeKind.TEXT]


def test_decode_without_marker_attaches_innermost():
    doc = dec("/XML/TAG?PI-comment'text")
    assert structural_equal(doc, parse_xml(DEPTH3_XML))


def test_decode_depth_zero():
    doc = dec(MIXED_KINDS_XS)
    assert structural_equal(doc, parse_xml(MIXED_KINDS_XML))


def test_decode_sibling_name_match():
    doc = dec(ROWS_XS)
    assert structural_equal(doc, parse_xml(ROWS_XML))


def test_decode_canonical_form():
    doc = dec(ROWS_XS_CANONICAL)
    assert structural_equal(doc, parse_xml(ROWS_XML))


def test_decode_attributes():
    doc = dec("/X@NAME=Jon@FLAG'body")
    assert doc.root.attributes == [("NAME", "Jon"), ("FLAG", None)]
    assert doc.root.children[0].content == "body"


def test_decode_prolog():
    doc = dec("?xml version&#61;&#34;1.0&#34;/A")
    assert doc.prolog is not None
    assert doc.prolog.name == "xml"
    assert doc.prolog.content == 'version="1.0"'
    assert doc.root.name == "A"


def test_decode_pi_target_split():
    doc = dec("/A?target rest of it")
    pi = doc.root.children[0]
    assert pi.name == "target"
    assert pi.content == "rest of it"
    bare = dec("/A?target")
    assert bare.root.children[0].content == ""


def test_end_of_stream_closes_everything():
    doc = dec("/A/B/C'deep")
    c = doc.root.children[0].children[0]
    assert c.name == "C"
    assert c.children[0].content == "deep"
    # unsatisfied budgets are not an error at end of stream
    doc = dec("/A+5/B")
    assert doc.root.children[0].name == "B"


def test_decode_errors():
    with pytest.raises(EmptyStream):
        decode(XsDocument([]))
    with pytest.raises(BadStreamStart):
        dec("'text")
    with pytest.raises(BadStreamStart):
        dec("?a?b/X")
    with pytest.raises(ContentAfterRoot):
        dec("/A+0'x")
    with pytest.raises(ContentAfterRoot):
        dec("/A+0/B")
    with pytest.raises(BudgetConflict):
        dec("/A/B|A")          # sibling of the root
    with pytest.raises(BudgetConflict):
        dec("/R/A/B+5'x|A")    # crossing an unfilled budget
    with pytest.raises(BudgetConflict):
        dec("/R/A+5|B")        # innermost close with budget left
    with pytest.raises(BudgetConflict):
        dec("/R|B")            # nothing to close
    with pytest.raises(BudgetOverrun):
        dec("/R+1/A+2'x'y")
    with pytest.raises(AttrAfterContent):
        dec("/A'x@N")
    with pytest.raises(DuplicateAttr):
        dec("/A@N@N")
    with pytest.raises(DanglingAttr):
        dec("/A=v")
    with pytest.raises(DanglingAttr):
        dec("/A@N=v=w")
    with pytest.raises(BadToken):
        decode(XsDocument([XsToken(PrefixKind.CHILD, "A"),
                           XsToken(PrefixKind.PROC_INSTR, " x")]))
    with pytest.raises(UnknownKey):
        dec("/A/5'x")


def test_descendant_count():
    assert descendant_count(XmlNode.element("X")) == 0
    rows = parse_xml(ROWS_XML).root
    assert descendant_count(rows) == 10
    for row in rows.children:
        assert descendant_count(row) == 4


# encoding

def test_encode_sibling_golden():
    doc = parse_xml(PROPERTIES_XML)
    assert render(encode(doc)) == PROPERTIES_XS


def test_encode_repair_golden():
    doc = parse_xml(MIXED_KINDS_XML)
    assert render(encode(doc)) == MIXED_KINDS_XS


def test_encode_rows_sibling_golden():
    doc = parse_xml(ROWS_XML)
    assert render(encode(doc)) == ROWS_XS


def test_encode_canonical_golden():
    doc = parse_xml(ROWS_XML)
    opts = EncodeOptions(mode=EncodeMode.CANONICAL)
    assert render(encode(doc, opts)) == ROWS_XS_CANONICAL


def test_encode_page_with_empty_attributes():
    doc = parse_xml(XHTML_PAGE_XML)
    xs = render(encode(doc))
    assert xs == ("/HTML/HEAD+2/TITLE'Example XHTML/BODY"
                  "/XSTRING@LENGTH=0@TEXT=|CENTER/H3'Example")
    assert structural_equal(dec(xs), doc)


def test_no_marker_needed_for_trailing_data():
    doc = parse_xml(DEPTH3_XML)
    assert render(encode(doc)) == "/XML/TAG?PI-comment'text"


def test_marker_added_when_data_follows_a_close():
    doc = parse_xml(DEPTH1_XML)
    assert render(encode(doc)) == DEPTH1_XS


def test_encode_prolog():
    doc = parse_xml('<?xml version="1.0"?><A/>')
    xs = encode(doc)
    assert render(xs) == "?xml version&#61;&#34;1.0&#34;/A"
    assert structural_equal(decode(xs), doc)


def test_encode_whitespace_dropped_by_default():
    doc = parse_xml("<A>\n  <B/>\n</A>")
    assert render(encode(doc)) == "/A/B"
    kept = encode(doc, EncodeOptions(drop_insignificant_whitespace=False))
    back = decode(kept)
    assert structural_equal(back, doc, whitespace_significant=True)


# no-break space, ideographic space and form feed are text, not whitespace:
# XML whitespace is space, tab, CR and LF only
NON_XML_SPACE_DOCS = ["<a>\xa0</a>", "<a>\u3000</a>", "<a>\x0c</a>"]


@pytest.mark.parametrize("text", NON_XML_SPACE_DOCS)
@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_non_xml_space_text_survives(text, mode, escaping):
    doc = parse_xml(text)
    xs = encode(doc, EncodeOptions(mode=mode, escaping=escaping))
    back = decode(tokenize(render(xs), escaping))
    assert serialize_xml(back) == text
    assert structural_equal(back, doc, whitespace_significant=True)


def test_non_xml_space_text_is_not_insignificant():
    assert not structural_equal(parse_xml("<a>\xa0</a>"), parse_xml("<a/>"))


def test_text_dual_selection():
    doc = XmlDocument(XmlNode.element("X", children=[XmlNode.text("huh?")]))
    xs = encode(doc)
    assert render(xs) == '/X"huh?"'
    # a trailing double quote cannot use the dual form
    doc = XmlDocument(XmlNode.element("X", children=[XmlNode.text('say "')]))
    assert render(encode(doc)) == "/X'say &#34;"
    # sentinel mode never needs the dual form
    doc = XmlDocument(XmlNode.element("X", children=[XmlNode.text("end/")]))
    assert render(encode(doc, EncodeOptions(escaping=EscapeMode.SENTINEL))) == \
        "\0/X\0'end/"


def test_dual_not_emitted_after_bare_equals():
    doc = XmlDocument(XmlNode.element(
        "X", [("A", "")], [XmlNode.text("end/")]))
    xs = encode(doc)
    text = render(xs)
    assert text == "/X@A='end&#47;"
    assert structural_equal(dec(text), doc)


def test_unencodable_names_and_data():
    with pytest.raises(Unencodable):
        encode(XmlDocument(XmlNode.element("a b")))
    with pytest.raises(Unencodable):
        encode(XmlDocument(XmlNode.element("42")))
    with pytest.raises(Unencodable):
        encode(XmlDocument(XmlNode.element("X", [("a b", "1")])))
    with pytest.raises(Unencodable):
        encode(XmlDocument(XmlNode.element("X", children=[XmlNode.text("a\0b")])))
    with pytest.raises(Unencodable):
        encode(XmlDocument(XmlNode.element("X", [("A", "a\0b")])))


def test_encode_options_validation():
    with pytest.raises(ValueError):
        EncodeOptions(mode="fancy")
    with pytest.raises(ValueError):
        build_substitution(encode(parse_xml("<r/>")), threshold=1)


def test_round_trip_sample():
    for doc in make_corpus(count=60, seed=7):
        for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
            for esc in (EscapeMode.ENTITY, EscapeMode.SENTINEL):
                xs = encode(doc, EncodeOptions(mode=mode, escaping=esc))
                assert structural_equal(decode(xs), doc)
                # and through the rendered text
                again = tokenize(render(xs), esc)
                assert again.tokens == xs.tokens


def test_canonical_mode_has_no_siblings():
    for doc in make_corpus(count=30, seed=11):
        xs = encode(doc, EncodeOptions(mode=EncodeMode.CANONICAL))
        assert all(t.kind is not PrefixKind.SIBLING for t in xs.tokens)
        for t in xs.tokens:
            if t.kind is PrefixKind.CHILD:
                assert t.depth is not None


def test_deep_sibling_chains():
    # same-name nesting exercises the nearest-match sibling rule
    xml = "<A><B><C><B><D/></B></C></B><B/></A>"
    doc = parse_xml(xml)
    xs = encode(doc)
    assert structural_equal(decode(xs), doc)
    assert structural_equal(dec(render(xs)), doc)
