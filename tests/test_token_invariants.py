"""Tokens the library builds without XsToken's checks still hold them.

The tokenizer, the encoders and the substitution passes build tokens with
XsToken.unchecked; each token they return must be one that XsToken(...)
accepts and rebuilds equal.  The last two tests bound the Python calls
the tokenizer and the renderer make per token: cost guards that read no
clock.
"""

import sys

import pytest
from hypothesis import given, strategies as st

from xstring import (EncodeMode, EncodeOptions, EscapeMode, SubstitutionTable,
                     XsDocument, XsToken, build_substitution, encode,
                     expand_substitution, render, tokenize)

import corpus as fixtures
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


def python_calls(fn):
    """Python function calls made while fn runs, counted by a profiler."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_tokenize_makes_few_python_calls_per_token():
    # one match per token and no checks on the tokens it builds: about two
    # calls per token on these streams, where reading each payload with a
    # second match and checking each token made nearly six
    streams = [(render(encode(doc, EncodeOptions(escaping=escaping))), escaping)
               for escaping in EscapeMode for doc in fixtures.corpus()]
    read = []

    def tokenize_all():
        for wire, escaping in streams:
            read.append(tokenize(wire, escaping))
    calls = python_calls(tokenize_all)
    tokens = sum(len(doc.tokens) for doc in read)
    assert calls / tokens <= 2.5


def test_render_makes_few_python_calls_per_token():
    # render_token and, in entity mode, the escaper per token: about 1.6
    # calls per token on these streams, where reading each prefix
    # character through Enum.value made 3.6
    streams = [encode(doc, EncodeOptions(escaping=escaping))
               for escaping in EscapeMode for doc in fixtures.corpus()]
    calls = python_calls(lambda: [render(xs) for xs in streams])
    tokens = sum(len(xs.tokens) for xs in streams)
    assert calls / tokens <= 3.0
