"""Tokens the library builds without XsToken's checks still hold them.

The tokenizer, the encoders and the substitution passes build tokens with
XsToken.unchecked; each token they return must be one that XsToken(...)
accepts and rebuilds equal.  The last three tests bound the Python calls
the tokenizer and the renderer make per token: cost guards that read no
clock.
"""

import pytest
from hypothesis import given, strategies as st

from xstring import (EncodeMode, EncodeOptions, EscapeMode, SubstitutionTable,
                     XsDocument, XsToken, build_substitution, encode,
                     expand_substitution, render, tokenize)

import corpus as fixtures
from steps import python_calls
from test_grammar import _token_lists


def assert_checked(tokens):
    for t in tokens:
        assert t == XsToken(t.kind, t.payload, depth=t.depth,
                            subst_key=t.subst_key), t


def assert_substitution_checked(doc):
    """Key doc's names, expand them again, and check both streams."""
    _, keyed = build_substitution(doc, 2)
    assert_checked(keyed.tokens)
    assert_checked(expand_substitution(keyed).tokens)


_DOCS = fixtures.corpus() + fixtures.fixture_documents()


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_corpus_tokens_pass_the_public_checks(mode, escaping):
    opts = EncodeOptions(mode=mode, escaping=escaping)
    for doc in _DOCS:
        xs = encode(doc, opts)
        assert_checked(xs.tokens)
        read = tokenize(render(xs), escaping)
        assert_checked(read.tokens)
        assert_substitution_checked(read)


# a table naming every key the generated streams may reference
_TABLE = SubstitutionTable([f"k{k}" for k in range(100)])


@given(_token_lists(), st.sampled_from(list(EscapeMode)))
def test_generated_tokens_pass_the_public_checks(tokens, mode):
    read = tokenize(render(XsDocument(tokens, mode)), mode)
    assert_checked(read.tokens)
    expanded = expand_substitution(read, _TABLE)
    assert_checked(expanded.tokens)
    assert_substitution_checked(expanded)


def test_table_names_keep_the_public_checks():
    # the caller's table is input from outside: a name that cannot be one
    # fails as it would in XsToken(...)
    with pytest.raises(ValueError, match="whitespace"):
        expand_substitution(tokenize("/0"), SubstitutionTable(["a b"]))


def _tokenize_calls(escaping, mode=EncodeMode.SAFE_SIBLING):
    """Python calls tokenize makes over the corpus streams, and the tokens
    it reads."""
    wires = [render(encode(doc, EncodeOptions(mode=mode, escaping=escaping)))
             for doc in fixtures.corpus()]
    read = []
    calls = python_calls(lambda: [read.append(tokenize(wire, escaping))
                                  for wire in wires])
    return calls, sum(len(doc.tokens) for doc in read)


def test_tokenize_makes_few_python_calls_per_token():
    # one match per token and no checks on the tokens it builds, and in
    # entity mode one reference fold per stream: about 1.2 calls per
    # token on these streams, where a callback per reference made 1.6
    # and reading each payload with a second match and checking each
    # token nearly six
    counts = [_tokenize_calls(escaping) for escaping in EscapeMode]
    assert sum(c for c, _ in counts) / sum(t for _, t in counts) <= 1.5


def test_entity_tokenize_costs_about_what_sentinel_does():
    # the references of a stream are folded in one pass after the loop,
    # not one callback each: 1.25 against 1.20 calls per token, where
    # the callbacks made it 1.91
    entity, sentinel = (_tokenize_calls(escaping) for escaping in
                        (EscapeMode.ENTITY, EscapeMode.SENTINEL))
    assert entity[0] / entity[1] <= sentinel[0] / sentinel[1] + 0.3


@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_canonical_tokenize_costs_about_what_sibling_does(escaping):
    # an element's own depth marker is read in the element's match: 1.25
    # (entity) and 1.20 (sentinel) calls per token on these streams, the
    # same as their sibling forms, where a second match per marker with
    # an _attach_depth and an _integer call made 1.62 and 1.57
    calls, tokens = _tokenize_calls(escaping, EncodeMode.CANONICAL)
    assert calls / tokens <= 1.35


def test_render_makes_few_python_calls_per_token():
    # one escape pass over each stream's joined payloads and one loop
    # with no call per token: about 0.13 calls per token on these
    # streams, where a render_token call and an escaper call per token
    # made 1.6
    streams = [encode(doc, EncodeOptions(escaping=escaping))
               for escaping in EscapeMode for doc in fixtures.corpus()]
    calls = python_calls(lambda: [render(xs) for xs in streams])
    tokens = sum(len(xs.tokens) for xs in streams)
    assert calls / tokens <= 0.5
