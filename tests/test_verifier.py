"""The sibling encoder's verifier against the decode-and-compare check it
replaced: on mutated streams both reject exactly the same ones."""

from dataclasses import replace

import pytest

from xstring import (
    BadStreamStart,
    DecodeError,
    EncodeOptions,
    EscapeMode,
    NodeKind,
    PrefixKind,
    Unencodable,
    XmlDocument,
    XmlNode,
    XsDocument,
    decode,
    encode,
    parse_xml,
    structural_equal,
    tokenize,
)
from xstring import codec
from xstring.xml_model import walk

import corpus as fixtures
from steps import python_calls

ELEMENT_KINDS = (PrefixKind.CHILD, PrefixKind.SIBLING)


def _mutations(tok):
    """The element token with its depth marker dropped, moved by one,
    added as +0, and with its kind flipped."""
    if tok.depth is None:
        yield replace(tok, depth=0)
    else:
        yield replace(tok, depth=None)
        yield replace(tok, depth=tok.depth + 1)
        if tok.depth > 0:
            yield replace(tok, depth=tok.depth - 1)
    flipped = ELEMENT_KINDS[tok.kind is PrefixKind.CHILD]
    yield replace(tok, kind=flipped)


def _decodes_to(doc, tokens, escaping):
    try:
        decoded = decode(XsDocument(tokens, escaping))
    except DecodeError:
        return False
    return structural_equal(decoded, doc)


def _verifies(doc, tokens):
    try:
        codec._verify(list(walk(doc, True)), tokens)
    except Unencodable:
        return False
    return True


@pytest.mark.parametrize("escaping", [EscapeMode.ENTITY, EscapeMode.SENTINEL])
def test_verifier_rejects_exactly_what_decoding_rejects(escaping):
    checked = rejected = 0
    for doc in fixtures.corpus():
        tokens = encode(doc, EncodeOptions(escaping=escaping)).tokens
        assert _verifies(doc, tokens)
        for i, tok in enumerate(tokens):
            if tok.kind not in ELEMENT_KINDS:
                continue
            for bad in _mutations(tok):
                mutated = tokens[:i] + [bad] + tokens[i + 1:]
                expected = _decodes_to(doc, mutated, escaping)
                assert _verifies(doc, mutated) == expected
                checked += 1
                rejected += not expected
    # both outcomes occur, so the comparison means something
    assert checked > 5000
    assert 0 < rejected < checked


def _break_emitter(monkeypatch, damage):
    emit = codec._emit

    def broken(written, escaping, canonical, tokens):
        emit(written, escaping, canonical, tokens)
        damage(tokens)

    monkeypatch.setattr(codec, "_emit", broken)


def test_encode_catches_a_dropped_depth_marker(monkeypatch):
    def drop_marker(tokens):
        next(t for t in tokens if t.depth is not None).depth = None

    doc = parse_xml("<b><b><b><?p?><a/></b>t<a/></b><b/></b>")
    _break_emitter(monkeypatch, drop_marker)
    with pytest.raises(Unencodable) as got:
        encode(doc)
    assert got.value.__cause__ is None  # a node landed under a wrong parent


@pytest.mark.parametrize("xml", ["<r><a/>t</r>", "<r><a x='1'/></r>"])
def test_encode_catches_a_dropped_token(monkeypatch, xml):
    # every token decodes in place, but one node or attribute value is
    # never written
    _break_emitter(monkeypatch, list.pop)
    with pytest.raises(Unencodable):
        encode(parse_xml(xml))


def test_encode_catches_an_instruction_written_as_an_element(monkeypatch):
    # <p/> and <?p?> share the name and have no content
    def as_element(tokens):
        tokens[1] = replace(tokens[1], kind=PrefixKind.CHILD)

    _break_emitter(monkeypatch, as_element)
    with pytest.raises(Unencodable):
        encode(parse_xml("<r><?p?></r>"))


@pytest.mark.parametrize("xml, left_out", [
    ("<r><a/>t<b/></r>", 2),  # a text node
    ("<r><a x='1'/><b/></r>", slice(1, 4)),  # an element and its attribute
])
def test_encode_catches_a_node_left_out(monkeypatch, xml, left_out):
    def leave_out(tokens):
        del tokens[left_out]

    _break_emitter(monkeypatch, leave_out)
    with pytest.raises(Unencodable):
        encode(parse_xml(xml))


def test_encode_catches_whitespace_left_out(monkeypatch):
    # kept whitespace is a node like any other
    def leave_out(tokens):
        del tokens[1]

    _break_emitter(monkeypatch, leave_out)
    with pytest.raises(Unencodable):
        encode(parse_xml("<r> <a/></r>"),
               EncodeOptions(drop_insignificant_whitespace=False))


def test_encode_catches_swapped_data_siblings(monkeypatch):
    # text and a comment with the same content, in the wrong order
    def swap(tokens):
        tokens[1], tokens[2] = tokens[2], tokens[1]

    _break_emitter(monkeypatch, swap)
    with pytest.raises(Unencodable):
        encode(parse_xml("<r>t<!--t--></r>"))


@pytest.mark.parametrize("xml, i, j, payloads", [
    # two elements that differ only in their names
    ("<r><a/><b/></r>", 1, 2, "r a b"),
    # two <a>s that differ only in an attribute value, last in the stream
    # and before another node
    ("<r><a x='1'/><a x='2'/></r>", 3, 6, "r a x 1 a x 2"),
    ("<r><a x='1'/><a x='2'/>t</r>", 3, 6, "r a x 1 a x 2 t"),
])
def test_encode_catches_swapped_element_siblings(monkeypatch, xml, i, j,
                                                 payloads):
    # the two payloads trade places, so each token decodes where the
    # other element belongs
    def swap(tokens):
        tokens[i], tokens[j] = (replace(tokens[i], payload=tokens[j].payload),
                                replace(tokens[j], payload=tokens[i].payload))

    doc = parse_xml(xml)
    assert [t.payload for t in encode(doc).tokens] == payloads.split()
    _break_emitter(monkeypatch, swap)
    with pytest.raises(Unencodable) as got:
        encode(doc)
    assert got.value.__cause__ is None  # the stream itself decodes


@pytest.mark.parametrize("at", [-1, 1])
def test_encode_catches_a_duplicated_token(monkeypatch, at):
    # one token more than the tree has nodes: Unencodable, not StopIteration
    def duplicate(tokens):
        tokens.append(tokens[at])

    _break_emitter(monkeypatch, duplicate)
    with pytest.raises(Unencodable):
        encode(parse_xml("<r><a/>t</r>"))


def test_encode_wraps_a_decode_error(monkeypatch):
    def root_as_sibling(tokens):
        tokens[0] = replace(tokens[0], kind=PrefixKind.SIBLING)

    _break_emitter(monkeypatch, root_as_sibling)
    with pytest.raises(Unencodable) as got:
        encode(parse_xml("<r><a/></r>"))
    assert isinstance(got.value.__cause__, BadStreamStart)


def test_encode_catches_swapped_data_contents(monkeypatch):
    # two text nodes trade contents: every kind and parent still matches
    def swap(tokens):
        tokens[1], tokens[3] = (replace(tokens[1], payload=tokens[3].payload),
                                replace(tokens[3], payload=tokens[1].payload))

    doc = parse_xml("<r>t<a/>u</r>")
    assert [t.payload for t in encode(doc).tokens] == "r t a u".split()
    _break_emitter(monkeypatch, swap)
    with pytest.raises(Unencodable) as got:
        encode(doc)
    assert got.value.__cause__ is None


def test_encode_catches_a_changed_attribute_after_others(monkeypatch):
    # the attributes of every element are compared, not only the first
    # element's that has some
    def change_last(tokens):
        tokens[-1] = replace(tokens[-1], payload="3")

    doc = parse_xml("<r><a x='1'/><b y='2'/></r>")
    assert [t.payload for t in encode(doc).tokens] == "r a x 1 b y 2".split()
    _break_emitter(monkeypatch, change_last)
    with pytest.raises(Unencodable) as got:
        encode(doc)
    assert got.value.__cause__ is None


def test_verify_makes_few_python_calls_per_token():
    # the verifier runs decode's one-frame core, so a node costs feed plus
    # the sink's _node, which is handed the parent, the walk's next node
    # and, for an element, its open entry's constructor and push: about 3.7
    # calls per token on these streams, where a second sink call per node
    # and a generator around the walk made 4.5 and per-token handlers 6.8
    cases = [(doc, encode(doc).tokens) for doc in fixtures.corpus()]
    calls = python_calls(lambda: [
        codec._verify(list(walk(doc, True)), tokens) for doc, tokens in cases])
    tokens = sum(len(tokens) for _, tokens in cases)
    assert calls / tokens <= 4.0


def test_stream_root_pairs_only_with_a_node_without_parent():
    # a hand-built tree whose root is an instruction with a child: the
    # stream's prolog takes that root and its root the child, whose parent
    # is the instruction, so the stream does not decode to the tree
    root = XmlNode(NodeKind.PROC_INSTR, "p", children=[XmlNode.element("c")])
    with pytest.raises(Unencodable):
        codec._verify(list(walk(XmlDocument(root), True)),
                      tokenize("?p/c").tokens)
