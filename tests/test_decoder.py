"""The close-count decoder against the budget-counter decoder it replaced."""

import pytest
from hypothesis import example, given, settings, strategies as st

from xstring import (
    AttrAfterContent,
    BudgetConflict,
    BudgetOverrun,
    DanglingAttr,
    DecodeError,
    DuplicateAttr,
    EncodeMode,
    EncodeOptions,
    EscapeMode,
    PrefixKind,
    XsDocument,
    XsToken,
    decode,
    encode,
    structural_equal,
    to_child_depth,
    tokenize,
)

import corpus as fixtures
from decoder_oracle import oracle_decode
from steps import python_calls


def outcome(decoder, doc):
    try:
        return decoder(doc), None
    except Exception as err:
        return None, (type(err), str(err))


def assert_same(doc):
    new, new_err = outcome(decode, doc)
    old, old_err = outcome(oracle_decode, doc)
    assert new_err == old_err
    if new_err is None:
        assert structural_equal(new, old, whitespace_significant=True)
    return new_err


_NAMES = st.sampled_from("abc")
_DEPTHS = st.one_of(st.none(), st.integers(0, 4))
_KEYS = st.integers(0, 1)


def _weighted(*pairs):
    # st.one_of flattens nested choices and picks among them evenly
    return st.sampled_from([strategy for weight, strategy in pairs
                            for _ in range(weight)]).flatmap(lambda s: s)


def _name_token(kinds, depths):
    plain = st.builds(XsToken, kinds, _NAMES, depth=depths)
    binder = st.builds(XsToken, kinds, _NAMES, depth=depths, subst_key=_KEYS)
    reference = st.builds(lambda kind, depth, key: XsToken(
        kind, "", depth=depth, subst_key=key), kinds, depths, _KEYS)
    return _weighted((8, plain), (1, binder), (1, reference))


def _one(kind, payloads):
    return st.builds(XsToken, st.just(kind), st.sampled_from(payloads))


_ELEMENT = _name_token(
    st.sampled_from([PrefixKind.CHILD, PrefixKind.SIBLING]), _DEPTHS)
_ATTR_NAME = _name_token(st.just(PrefixKind.ATTR_NAME), st.none())
_ATTR_VALUE = _one(PrefixKind.ATTR_VALUE, ["v", ""])
_DATA = st.one_of(
    *[_one(kind, ["t", "u"]) for kind in (
        PrefixKind.TEXT, PrefixKind.TEXT_DUAL, PrefixKind.COMMENT,
        PrefixKind.CDATA, PrefixKind.DTD)],
    _one(PrefixKind.PROC_INSTR,
         ["p", "p x", "p", "p x", "", " x", "0", "12 x"]))

# Chunks keep most streams valid for long enough that depth markers,
# sibling closures and attributes interact; a lone value, an element
# first or a reference to an unbound key still give the invalid orders.
_CHUNKS = _weighted(
    (12, st.tuples(_ELEMENT)),
    (2, st.tuples(_ELEMENT, _ATTR_NAME, _ATTR_VALUE)),
    (1, st.tuples(_ELEMENT, _ATTR_NAME)),
    (6, st.tuples(_DATA)),
    (1, st.tuples(_ATTR_NAME, _ATTR_VALUE)),
    (1, st.tuples(_ATTR_VALUE)),
)
_FIRST = _weighted(
    (16, st.builds(XsToken, st.just(PrefixKind.CHILD), _NAMES,
                   depth=_DEPTHS)),
    (1, _one(PrefixKind.PROC_INSTR, ["xml v"])),
    (1, _ELEMENT), (1, _DATA), (1, _ATTR_NAME))
_STREAMS = st.builds(lambda first, chunks: [first] + [
    tok for chunk in chunks for tok in chunk],
    _FIRST, st.lists(_CHUNKS, max_size=24))


@settings(max_examples=600, deadline=None)
@given(_STREAMS)
def test_random_streams_match_oracle(tokens):
    assert_same(XsDocument(tokens, EscapeMode.ENTITY))


@settings(max_examples=300, deadline=None)
@given(_STREAMS)
@example(tokenize("/r?0").tokens)
@example(tokenize("/r?12 x").tokens)
def test_decoded_streams_encode_again(tokens):
    # whatever decode accepts, the canonical rewrite and both encodings
    # write back; an instruction target of digits is data, not a key
    xs = XsDocument(tokens, EscapeMode.ENTITY)
    try:
        doc = decode(xs)
    except DecodeError:
        return
    canon = to_child_depth(xs)
    assert all(tok.kind is not PrefixKind.SIBLING for tok in canon.tokens)
    assert structural_equal(decode(canon), doc, whitespace_significant=True)
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        again = encode(doc, EncodeOptions(
            mode=mode, drop_insignificant_whitespace=False))
        assert structural_equal(decode(again), doc,
                                whitespace_significant=True)


@pytest.mark.parametrize("wire, error", [
    ("/a+1/b+5't", BudgetOverrun),
    ("/r/a/b+3|a", BudgetConflict),
    ("/r/a+2|b", BudgetConflict),
    ("/r/a/b|r", BudgetConflict),
    ("/r+3/a+0/b|a", None),
    ("/r/a+3/b+1/c't'u", None),
    ("/r/a/b/a/b|a|b|c", None),
])
def test_budget_cases_match_oracle(wire, error):
    err = assert_same(tokenize(wire))
    assert (err and err[0]) == error


@pytest.mark.parametrize("wire, error", [
    ("/a@x/b@y|b@x@x", DuplicateAttr),
    ("/a@x/b+0@x", None),
    ("/a@x/b+0't@x", AttrAfterContent),
    ("/a@x/b@x|b@x", None),
    ("/r/a@x/b@x|a@x@x", DuplicateAttr),
    ("=v", DanglingAttr),
])
def test_attribute_cases_match_oracle(wire, error):
    # an attribute for any element but the one opened last finds it
    # holding content, so only that element's names need remembering
    err = assert_same(tokenize(wire))
    assert (err and err[0]) == error


def test_duplicate_attribute_check_is_linear():
    class Name(str):
        compared = 0

        def __eq__(self, other):
            Name.compared += 1
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    n = 1000
    tokens = [XsToken(PrefixKind.CHILD, "r")]
    tokens += [XsToken(PrefixKind.ATTR_NAME, Name(f"a{i}")) for i in range(n)]
    assert len(decode(XsDocument(tokens)).root.attributes) == n
    assert Name.compared <= n


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("escaping", [EscapeMode.ENTITY, EscapeMode.SENTINEL])
def test_corpus_streams_match_oracle(mode, escaping):
    opts = EncodeOptions(mode=mode, escaping=escaping)
    for doc in fixtures.corpus():
        assert assert_same(encode(doc, opts)) is None


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
def test_decode_makes_few_python_calls_per_token(mode):
    # feed reads each token in its own frame and keeps the stack there,
    # its entries plain tuples: only the sink's _node, which is handed the
    # parent, and the node's constructor are calls, and the kind tables
    # are keyed by StrEnum members, which hash as str does in C.  That is
    # 2.13 calls per token on these streams in both forms, a read and a
    # finish per stream included, where an open entry's constructor per
    # element made 2.34, push, pop and truncate calls and an Enum-keyed
    # lookup per data token 3.18, a second sink call per node 3.6 and a
    # handler, name resolution and open per token 6.3
    streams = [encode(doc, EncodeOptions(mode=mode))
               for doc in fixtures.corpus()]
    calls = python_calls(lambda: [decode(xs) for xs in streams])
    tokens = sum(len(xs.tokens) for xs in streams)
    assert calls / tokens <= 2.2
