"""The emitters that read codec.written_nodes against the walk-based ones
they replaced, kept in emitter_oracle.py: the same tokens (kind, payload,
depth, key), or the same error class and message, in both modes, with
whitespace dropped and kept, in both escape modes.  Two differences: a
root that is not an element is refused up front, and with whitespace
dropped, whitespace-only text with children is refused as a data node
with children, where the oracle skipped the node and wrote its children
one level up."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from xstring import (
    EncodeMode,
    EncodeOptions,
    EscapeMode,
    NodeKind,
    Unencodable,
    XmlDocument,
    XmlNode,
    encode,
)
from xstring.codec import written_nodes

import corpus as fixtures
from emitter_oracle import oracle_encode
from test_encoder_walk import _inject
from walk_oracle import walk

OPTIONS = [EncodeOptions(mode=mode, escaping=escaping,
                         drop_insignificant_whitespace=drop)
           for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL)
           for escaping in EscapeMode for drop in (True, False)]


def outcome(fn, doc, opts):
    """What fn makes of doc: its tokens, or its error."""
    try:
        got = fn(doc, opts)
    except Exception as err:
        return None, (type(err), str(err))
    return [(t.kind, t.payload, t.depth, t.subst_key)
            for t in got.tokens], None


def _whitespace_parents(doc):
    return [node for top in (doc.prolog, doc.root) if top is not None
            for node, entering in walk(top)
            if entering and node.children and node.is_whitespace_text()]


def written_as_data(doc):
    """A copy of doc whose whitespace-only text nodes with children hold
    text that is not whitespace, so that the oracle writes each of them,
    and refuses it, even when whitespace is dropped."""
    doc = copy.deepcopy(doc)
    for node in _whitespace_parents(doc):
        node.content = "x"
    return doc


def assert_encodes_as_oracle(doc):
    marked = written_as_data(doc) if _whitespace_parents(doc) else doc
    for opts in OPTIONS:
        want = marked if opts.drop_insignificant_whitespace else doc
        assert outcome(encode, doc, opts) == outcome(oracle_encode, want,
                                                     opts), (doc, opts)


def test_corpus_matches_oracle():
    for doc in fixtures.corpus():
        assert_encodes_as_oracle(doc)


def test_injected_faults_match_oracle():
    # the faults of test_encoder_walk.py, each seen in every option
    rng = random.Random(7)
    for doc in fixtures.corpus():
        doc = doc.copy()
        nodes = [n for n, entering in walk(doc.root) if entering]
        if doc.prolog is not None:
            nodes.append(doc.prolog)
        for _ in range(rng.randint(1, 3)):
            _inject(rng.choice(nodes), rng)
        assert_encodes_as_oracle(doc)


@pytest.mark.parametrize("doc", [
    # a data node with children, dropped whitespace or not
    XmlDocument(XmlNode.element("r", children=[
        XmlNode(NodeKind.COMMENT, content="c",
                children=[XmlNode.element("e")])])),
    XmlDocument(XmlNode.element("r", children=[
        XmlNode(NodeKind.TEXT, content=" ", children=[XmlNode.text("t")])])),
    # whitespace-only text with a child, which drop skips but not the child
    XmlDocument(XmlNode.element("r", children=[
        XmlNode.element("a"),
        XmlNode(NodeKind.TEXT, content=" ", children=[
            XmlNode.element("a", children=[XmlNode.text("x")]),
            XmlNode.element("b")]),
        XmlNode.element("a")])),
    XmlDocument(XmlNode.element("r", children=[
        XmlNode(NodeKind.TEXT, content="\t", children=[
            XmlNode(NodeKind.TEXT, content=" ",
                    children=[XmlNode.comment("c")])]),
        XmlNode.text("y")])),
    # every prolog kind that is not an instruction, and an instruction
    *[XmlDocument(XmlNode.element("r", children=[XmlNode.text("t")]), prolog)
      for prolog in (XmlNode.comment("c"), XmlNode.text("t"),
                     XmlNode.text(" \n"), XmlNode.cdata("d"), XmlNode.dtd("x"),
                     XmlNode.element("e"), XmlNode.pi("p", "q"))],
], ids=lambda doc: repr(doc)[:60])
def test_malformed_trees_match_oracle(doc):
    assert_encodes_as_oracle(doc)


# faults are rare enough that most trees encode: a bad name, a NUL, a
# data node with children
_NAMES = st.sampled_from(["a", "b", "c"] * 5 + ["", "1", "a b"])
_TEXTS = st.sampled_from(["", " ", "\n\t", "x", "y/", "z'", "a=", "w"] * 3
                         + ["\x00"])
_DATA = st.one_of(
    st.builds(XmlNode.text, _TEXTS),
    st.builds(XmlNode.comment, st.sampled_from(["c"] * 9 + ["c\x00"])),
    st.builds(XmlNode.pi, _NAMES, st.sampled_from(["", "q"])),
    st.builds(XmlNode.cdata, st.just("d")),
    st.builds(XmlNode.dtd, st.just("x")),
)
_ATTRS = st.lists(st.tuples(_NAMES, st.sampled_from([None, "", "v"])),
                  max_size=2)


def _tree(children):
    element = st.builds(XmlNode.element, _NAMES, _ATTRS,
                        st.lists(children, max_size=4))
    data = st.builds(lambda node, kids: XmlNode(node.kind, node.name,
                                                content=node.content,
                                                children=kids),
                     _DATA, st.lists(children, min_size=1, max_size=2))
    return st.sampled_from([element] * 9 + [data]).flatmap(lambda s: s)


_NODES = st.recursive(st.one_of(_DATA, st.builds(XmlNode.element, _NAMES)),
                      _tree, max_leaves=20)


@settings(max_examples=300)
@given(_NODES, st.one_of(st.none(), _DATA, st.builds(XmlNode.element,
                                                     _NAMES)))
def test_generated_trees_match_oracle(root, prolog):
    doc = XmlDocument(root, prolog)
    bad_prolog = prolog is not None and prolog.kind is not NodeKind.PROC_INSTR
    if root.kind is NodeKind.ELEMENT or bad_prolog:
        assert_encodes_as_oracle(doc)
    else:
        for opts in OPTIONS:
            with pytest.raises(Unencodable, match="the root must be an"):
                encode(doc, opts)


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("root", [
    XmlNode.text("t"), XmlNode.comment("c"), XmlNode.cdata("d"),
    XmlNode.dtd("x"), XmlNode.pi("p"),
])
def test_root_must_be_an_element(mode, root):
    # canonical encode wrote a stream decode rejects, and the sibling form
    # failed only the verifier's check
    doc = XmlDocument(root)
    with pytest.raises(Unencodable) as got:
        encode(doc, EncodeOptions(mode=mode))
    assert str(got.value) == (f"root {root.kind.value} node cannot be "
                              "written: the root must be an element")


def test_whitespace_parent_is_refused_when_dropped():
    # whitespace-only or empty text with a child: skipping the text wrote
    # its child one level up, /r+1/A+0 in canonical mode
    for content in (" ", "\n\t", ""):
        doc = XmlDocument(XmlNode.element("r", children=[
            XmlNode(NodeKind.TEXT, content=content,
                    children=[XmlNode.element("A")])]))
        for opts in OPTIONS:
            with pytest.raises(Unencodable) as got:
                encode(doc, opts)
            assert str(got.value) == ("text node with a name, attributes or "
                                      "children cannot be written")


def test_written_nodes_yield_parent_and_ancestor_count():
    c = XmlNode.element("c")
    ws_parent = XmlNode(NodeKind.TEXT, content=" ", children=[c])
    b = XmlNode.element("b")
    a = XmlNode.element("a", children=[XmlNode.text(" "), b])
    r = XmlNode.element("r", children=[a, ws_parent, XmlNode.text("\n")])
    p = XmlNode.pi("p")
    got = list(written_nodes(XmlDocument(r, p), drop=True))
    assert got == [(p, None, 0), (r, None, 0), (a, r, 1), (b, a, 2),
                   (ws_parent, r, 1), (c, ws_parent, 2)]
    kept = list(written_nodes(XmlDocument(r), drop=False))
    assert [(n.name or n.content, depth) for n, _, depth in kept] == [
        ("r", 0), ("a", 1), (" ", 2), ("b", 2), (" ", 1), ("c", 2),
        ("\n", 1)]
