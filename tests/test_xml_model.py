"""Parser, well-formedness checking, and serialization."""

import pytest

from xstring import (
    EncodeMode,
    EncodeOptions,
    NodeKind,
    PrefixKind,
    WellFormednessError,
    XmlDocument,
    XmlNode,
    XmlSyntaxError,
    check_well_formed,
    encode,
    parse_xml,
    serialize_xml,
    structural_equal,
)

from corpus import PROPERTIES_XML, RECORDS_XML, XHTML_PAGE_XML
from steps import lines_run


def test_parse_basic_tree():
    doc = parse_xml("<A><B>hi</B><C x=\"1\" y/></A>")
    root = doc.root
    assert root.kind is NodeKind.ELEMENT
    assert root.name == "A"
    b, c = root.children
    assert b.name == "B"
    assert b.children[0].kind is NodeKind.TEXT
    assert b.children[0].content == "hi"
    assert c.attributes == [("x", "1"), ("y", None)]
    assert c.children == []


def test_parse_all_node_kinds():
    doc = parse_xml("<R><!--note--><![CDATA[raw<>&]]><?go now?>"
                    "<!ELEMENT R ANY>text</R>")
    kinds = [n.kind for n in doc.root.children]
    assert kinds == [NodeKind.COMMENT, NodeKind.CDATA, NodeKind.PROC_INSTR,
                     NodeKind.DTD, NodeKind.TEXT]
    comment, cdata, pi, dtd, text = doc.root.children
    assert comment.content == "note"
    assert cdata.content == "raw<>&"
    assert pi.name == "go" and pi.content == "now"
    assert dtd.content == "ELEMENT R ANY"
    assert text.content == "text"


def test_declaration_prolog():
    doc = parse_xml('<?xml version="1.0"?>\n<A/>')
    assert doc.prolog is not None
    assert doc.prolog.name == "xml"
    assert doc.prolog.content == 'version="1.0"'
    assert doc.root.name == "A"


def test_entities_kept_verbatim():
    doc = parse_xml("<A>x &#47; y &amp; z</A>")
    assert doc.root.children[0].content == "x &#47; y &amp; z"


def test_attributes_preserve_order_and_quotes():
    doc = parse_xml("<A one=\"1\" two='second' bare/>")
    assert doc.root.attributes == [("one", "1"), ("two", "second"),
                                   ("bare", None)]


def _encoded_texts(doc):
    """The text payloads each encode mode writes for doc."""
    texts = []
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        xs = encode(doc, EncodeOptions(mode=mode))
        texts.append([t.payload for t in xs.tokens
                      if t.kind in (PrefixKind.TEXT, PrefixKind.TEXT_DUAL)])
    return texts


def test_whitespace_text_kept_in_tree():
    text = "<A>\n  <B/>\n</A>"
    doc = parse_xml(text)
    kinds = [n.kind for n in doc.root.children]
    assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]
    # encode leaves the whitespace out of the stream, not out of the tree
    assert _encoded_texts(doc) == [[], []]
    assert serialize_xml(doc) == text


def test_mixed_content_whitespace_is_significant():
    text = "<A>one <B/> two</A>"
    doc = parse_xml(text)
    assert _encoded_texts(doc) == [["one ", " two"]] * 2
    assert serialize_xml(doc) == text


@pytest.mark.parametrize("text", [
    "<A/>",
    "<A></A>",
    "<A>text</A>",
    '<A b="1" c/>',
    "<A><B>x</B><B>y</B></A>",
    '<?xml version="1.0"?><R><!--c--><![CDATA[d]]><?p i?><!DT x>t</R>',
    PROPERTIES_XML,
    RECORDS_XML,
    XHTML_PAGE_XML,
])
def test_serialize_reparse_identity(text):
    doc = parse_xml(text)
    again = parse_xml(serialize_xml(doc))
    assert structural_equal(again, doc, whitespace_significant=True)


def test_serialize_shapes():
    assert serialize_xml(parse_xml("<A></A>")) == "<A/>"
    assert serialize_xml(parse_xml("<A x='1'/>")) == '<A x="1"/>'
    doc = XmlDocument(XmlNode.element("A", [("q", 'say "hi"')]))
    assert serialize_xml(doc) == "<A q='say \"hi\"'/>"
    both = XmlDocument(XmlNode.element("A", [("q", "\"'")]))
    assert serialize_xml(both) == '<A q="&#34;\'"/>'


def test_serialize_prolog():
    doc = parse_xml('<?xml version="1.0"?><A/>')
    assert serialize_xml(doc) == '<?xml version="1.0"?><A/>'


# One fixture per well-formedness rule.
RULE_FIXTURES = [
    (1, "<A/><B/>"),
    (2, "<A><B></B>"),
    (3, '<A><?xml version="1.0"?></A>'),
    (4, "<A><B></A></B>"),
    (5, '<A b="1"></A c="2">'),
    (6, "<A b=1/>"),
    (7, "<1A/>"),
    (8, "<A>x & y</A>"),
]


@pytest.mark.parametrize("rule,text", RULE_FIXTURES)
def test_rule_violation_raises(rule, text):
    with pytest.raises(WellFormednessError) as exc:
        parse_xml(text)
    assert exc.value.rule == rule


@pytest.mark.parametrize("rule,text", RULE_FIXTURES)
def test_rule_violation_reported(rule, text):
    report = check_well_formed(text)
    assert not report.ok
    assert rule in [v.rule for v in report.violations]


def test_duplicate_attribute_is_rule_6():
    with pytest.raises(WellFormednessError) as exc:
        parse_xml("<X a='1' a='2'/>")
    assert exc.value.rule == 6


def test_doctype_before_root_rejected():
    with pytest.raises(WellFormednessError) as exc:
        parse_xml("<!DOCTYPE html><A/>")
    assert exc.value.rule == 1


def test_non_xml_space_outside_root_is_rule_1():
    # only space, tab, CR and LF may stand outside the root element
    assert check_well_formed(" \t\r\n<A/>\n").ok
    with pytest.raises(WellFormednessError) as exc:
        parse_xml("<A/>\xa0")
    assert (exc.value.rule, exc.value.offset) == (1, 4)


def test_report_clean_on_valid_input():
    for text in (PROPERTIES_XML, RECORDS_XML, XHTML_PAGE_XML):
        report = check_well_formed(text)
        assert report.ok
        assert report.violations == []


def test_syntax_errors():
    with pytest.raises(XmlSyntaxError):
        parse_xml("<A><!--unterminated</A>")
    with pytest.raises(XmlSyntaxError):
        parse_xml("<A>< </A>")
    with pytest.raises(XmlSyntaxError):
        parse_xml("<A><![CDATA[open</A>")


def test_syntax_error_collected_without_rule():
    report = check_well_formed("<A><!--unterminated</A>")
    assert not report.ok
    assert any(v.rule is None for v in report.violations)


def test_error_message_shape():
    err = WellFormednessError(4, 17, "overlap")
    assert str(err) == "rule 4 at offset 17: overlap"


def test_structural_equal_whitespace_modes():
    a = parse_xml("<A>\n<B/>\n</A>")
    b = parse_xml("<A><B/></A>")
    assert structural_equal(a, b)
    assert not structural_equal(a, b, whitespace_significant=True)


def test_structural_equal_attribute_order():
    a = parse_xml('<A x="1" y="2"/>')
    b = parse_xml('<A y="2" x="1"/>')
    assert not structural_equal(a, b)


def test_structural_equal_prolog():
    a = parse_xml('<?xml version="1.0"?><A/>')
    b = parse_xml("<A/>")
    assert not structural_equal(a, b)


def test_node_copy_is_deep():
    doc = parse_xml('<A x="1"><B/></A>')
    dup = doc.copy()
    dup.root.attributes.append(("y", "2"))
    dup.root.children[0].name = "C"
    assert doc.root.attributes == [("x", "1")]
    assert doc.root.children[0].name == "B"


def test_mismatched_close_tags_take_linear_steps():
    def steps(n):
        return lines_run(check_well_formed, "<r>" + "<a>" * n + "</b>" * n)

    assert steps(1000) < 2.2 * steps(500)


@pytest.mark.parametrize("tag", [
    lambda n: "<a" + "".join(f" b{i}='{i}'" for i in range(n)) + "/>",
    lambda n: "<a b=" + "c" * n + "/>",
    lambda n: "<a" + " " * n + "/>",
], ids=["attributes", "unquoted_value", "whitespace"])
def test_start_tag_takes_linear_steps(tag):
    def steps(n):
        return lines_run(check_well_formed, tag(n))

    assert steps(1000) < 2.2 * steps(500)
