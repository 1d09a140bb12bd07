"""The pattern tokenizer against the per-character tokenizer it replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from xstring import (EncodeMode, EncodeOptions, EscapeMode, PREFIX_CHARS,
                     build_substitution, encode, render, tokenize)

import corpus as fixtures
from tokenizer_oracle import tokenize as oracle_tokenize

# single characters and the multi-character pieces where the two scanners
# could part ways: references the tokenizer folds back (one with a leading
# zero), a reference introducer without digits, and the sentinel-mode dual
# terminator
PIECES = (list(PREFIX_CHARS) + list("0123456789") + list(" \t\r\n")
          + ["\0", "&", ";", "a", "&#47;", "&#047;", "&#35;", "&#34;", "&#",
             '\0"'])


def outcome(tokenizer, text, mode):
    try:
        return tokenizer(text, mode).tokens, None
    except Exception as err:
        return None, (type(err), getattr(err, "offset", None), str(err))


def assert_same(text, mode):
    new = outcome(tokenize, text, mode)
    assert new == outcome(oracle_tokenize, text, mode), (text, mode)
    return new


_WIRE = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


@settings(max_examples=1500, deadline=None)
@given(_WIRE, st.sampled_from(list(EscapeMode)))
def test_random_wire_strings_match_oracle(text, mode):
    assert_same(text, mode)


@given(st.sampled_from(list(EscapeMode)), st.data())
def test_wire_strings_with_sentinels_match_oracle(mode, data):
    # a token lead keeps more of the string inside payloads
    lead = data.draw(st.sampled_from(["/a", "\0/a", "'", "\0'", '"', '\0"',
                                      "/a=", "\0/a\0="]))
    assert_same(lead + data.draw(_WIRE), mode)


@pytest.mark.parametrize("text", ["/a+", "/a#", "/a'&#", "/a'&#1", '/a"x&#',
                                  '/a"x&#34', '/a"x', "/a=\"x", "/a'x&", "/a ",
                                  "\0/a\0", "\0/a\0+", '\0/a\0"x\0', '\0"',
                                  "/a'x\0", "\0/a'"])
@pytest.mark.parametrize("mode", list(EscapeMode))
def test_end_of_input_matches_oracle(text, mode):
    assert_same(text, mode)


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_corpus_streams_match_oracle(mode, escaping):
    opts = EncodeOptions(mode=mode, escaping=escaping)
    keys = 0
    for doc in fixtures.corpus() + fixtures.fixture_documents():
        table, keyed = build_substitution(encode(doc, opts), 4)
        keys += len(table.names)
        tokens, err = assert_same(render(keyed), escaping)
        assert err is None
    # the fixture documents bind keys, so binders and references are read
    assert keys > 0
