"""The one-walk encoder against the up-front check and the tree copy it
replaced: the same first error, and no tree built that it does not need."""

import random

import pytest

from xstring import (
    EncodeMode,
    EncodeOptions,
    NodeKind,
    PrefixKind,
    Unencodable,
    XmlDocument,
    XmlNode,
    decode,
    encode,
    parse_xml,
    render,
    structural_equal,
    tokenize,
)

import corpus as fixtures
from sibling_oracle import _check_encodable, drop_insignificant_whitespace
from steps import nodes_built
from walk_oracle import walk

MODES = (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL)
BAD_NAMES = ("", "a b", "a\tb", "a\x00b", "12", "007")


def _inject(node: XmlNode, rng: random.Random) -> None:
    """Make node, or one of its attributes, impossible to write."""
    roll = rng.random()
    element = node.kind is NodeKind.ELEMENT
    if (element or node.kind is NodeKind.PROC_INSTR) and roll < 0.4:
        node.name = rng.choice(BAD_NAMES)
    elif element and roll < 0.7:
        value = rng.choice((None, "v", ""))
        node.attributes.insert(rng.randint(0, len(node.attributes)),
                               (rng.choice(BAD_NAMES), value))
    elif element and node.attributes and roll < 0.85:
        i = rng.randrange(len(node.attributes))
        node.attributes[i] = (node.attributes[i][0], "v\x00")
    elif not element:
        node.content += "\x00"


def test_first_error_matches_the_up_front_check():
    rng = random.Random(7)
    checked = 0
    for doc in fixtures.corpus():
        doc = doc.copy()
        nodes = [n for n, entering in walk(doc.root) if entering]
        if doc.prolog is not None:
            nodes.append(doc.prolog)
        for _ in range(rng.randint(1, 3)):
            _inject(rng.choice(nodes), rng)
        try:
            _check_encodable(doc)
            continue  # the injections missed, e.g. an element's content
        except Unencodable as e:
            expected = str(e)
        for mode in MODES:
            for drop in (True, False):
                opts = EncodeOptions(mode=mode,
                                     drop_insignificant_whitespace=drop)
                with pytest.raises(Unencodable) as got:
                    encode(doc, opts)
                assert str(got.value) == expected
        checked += 1
    assert checked > 400


@pytest.mark.parametrize("mode", MODES)
def test_skipping_whitespace_matches_dropping_it_first(mode):
    for doc in fixtures.corpus():
        skipped = encode(doc, EncodeOptions(mode=mode))
        dropped = encode(drop_insignificant_whitespace(doc), EncodeOptions(
            mode=mode, drop_insignificant_whitespace=False))
        assert render(skipped) == render(dropped)


@pytest.mark.parametrize("drop", [True, False])
def test_no_tree_copy(monkeypatch, drop):
    # neither form builds a node: the sibling form is verified on the
    # caller's own tree
    for doc in fixtures.corpus()[:100]:
        for mode in MODES:
            opts = EncodeOptions(mode=mode, drop_insignificant_whitespace=drop)
            assert nodes_built(monkeypatch, lambda: encode(doc, opts)) == 0


@pytest.mark.parametrize("mode", MODES)
def test_no_dual_after_bare_equals(mode):
    # '/' ends the text, which otherwise takes the dual form; right after
    # an empty value a dual would read back as the quoted value
    doc = parse_xml('<a b=""><c d="">x/</c>y/</a>')
    xs = encode(doc, EncodeOptions(mode=mode))
    kinds = [tok.kind for tok in xs.tokens]
    assert kinds.count(PrefixKind.TEXT) == 1
    assert kinds.count(PrefixKind.TEXT_DUAL) == 1
    assert structural_equal(decode(tokenize(render(xs))), doc,
                            whitespace_significant=True)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("prolog", [XmlNode.comment("c"), XmlNode.text("t"),
                                    XmlNode.element("e")])
def test_prolog_must_be_an_instruction(mode, prolog):
    doc = XmlDocument(XmlNode.element("r"), prolog)
    with pytest.raises(Unencodable, match="only a processing instruction"):
        encode(doc, EncodeOptions(mode=mode))


@pytest.mark.parametrize("mode", MODES)
def test_duplicate_attributes_are_unencodable(mode):
    doc = XmlDocument(XmlNode.element("r", [("a", "1"), ("b", None),
                                            ("a", "2")]))
    with pytest.raises(Unencodable, match="duplicate attribute 'a'"):
        encode(doc, EncodeOptions(mode=mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("node", [
    XmlNode(NodeKind.ELEMENT, "e", content="x"),
    XmlNode(NodeKind.TEXT, "n", content="x"),
    XmlNode(NodeKind.COMMENT, content="x", attributes=[("a", "1")]),
    XmlNode(NodeKind.CDATA, content="x", children=[XmlNode.element("e")]),
])
def test_fields_a_kind_cannot_carry_are_unencodable(mode, node):
    # the stream has no place for them, so decoding would drop them
    doc = XmlDocument(XmlNode.element("r", children=[XmlNode.element("a"),
                                                     node]))
    with pytest.raises(Unencodable, match="cannot be written"):
        encode(doc, EncodeOptions(mode=mode))
