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

from xstring import codec
from xstring.grammar import reads_as_key
from xstring.xml_model import walk as walk_model

import corpus as fixtures
from sibling_oracle import _check_encodable, drop_insignificant_whitespace
from steps import lines_run, nodes_built, python_calls
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


def _digit_targets_prefixed(doc: XmlDocument) -> XmlDocument:
    """A copy of doc whose instruction targets of ASCII digits start with
    a letter.  The up-front check refuses such a target as a name that
    would read back as a key, but a target is data and reads back as it
    was written."""
    doc = doc.copy()
    tops = [doc.root] if doc.prolog is None else [doc.prolog, doc.root]
    for node in (n for top in tops for n, entering in walk(top) if entering):
        if node.kind is NodeKind.PROC_INSTR and reads_as_key(node.name):
            node.name = "p" + node.name
    return doc


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
            _check_encodable(_digit_targets_prefixed(doc))
            expected = None  # the injections missed, or hit only a target
        except Unencodable as e:
            expected = str(e)
        for mode in MODES:
            for drop in (True, False):
                opts = EncodeOptions(mode=mode,
                                     drop_insignificant_whitespace=drop)
                if expected is None:
                    assert structural_equal(decode(encode(doc, opts)), doc,
                                            whitespace_significant=not drop)
                    continue
                with pytest.raises(Unencodable) as got:
                    encode(doc, opts)
                assert str(got.value) == expected
        checked += expected is not None
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
def test_encode_makes_few_python_calls_per_token(mode):
    # one walk over the document feeds both the emitter loop and the
    # sibling form's verifier, which calls one sink method per node, and
    # the loop checks each node in its own frame, a name once per encode:
    # about 4.73 and 2.78 calls per token on these streams, where a second
    # walk for the verifier and a helper call per node made 6.76 and 3.98,
    # a stack class driven through a closure 7.65 sibling, and a generator
    # around the walk and a second sink call per node 10.3 and 4.9
    docs = fixtures.corpus()
    opts = EncodeOptions(mode=mode)
    streams = []
    calls = python_calls(lambda: [streams.append(encode(doc, opts))
                                  for doc in docs])
    tokens = sum(len(xs.tokens) for xs in streams)
    assert calls / tokens <= (5.2 if mode == EncodeMode.SAFE_SIBLING
                              else 3.2)


@pytest.mark.parametrize("mode", MODES)
def test_encode_walks_each_document_once(monkeypatch, mode):
    # the emitter and the verifier read the same walk
    walked = []

    def counted(tops, drop=False):
        walked.append(tops)
        return walk_model(tops, drop)

    monkeypatch.setattr(codec, "walk", counted)
    docs = fixtures.corpus()[:50]
    for doc in docs:
        encode(doc, EncodeOptions(mode=mode))
    assert walked == docs


def test_sibling_encode_takes_linear_steps_at_depth():
    # a same-name spine: each <a> holds its child, then text, then <a/>,
    # so the text at every level gives the child before it a depth marker
    # that closes the whole chain of finished elements above that level
    def spine(n):
        return parse_xml("<a>" * n + "<a/>" + "t<a/></a>" * n)

    def steps(n):
        return lines_run(encode, spine(n))

    assert render(encode(spine(3))).startswith("/a/a+6/a+3/a+0't")
    assert steps(1000) < 2.2 * steps(500)


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
