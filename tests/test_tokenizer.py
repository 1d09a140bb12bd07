"""The pattern tokenizer against the per-character tokenizer it replaced."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from xstring import (EncodeMode, EncodeOptions, EscapeMode, PREFIX_CHARS,
                     StrayData, build_substitution, encode, render, tokenize)

import corpus as fixtures
import steps
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


@pytest.mark.parametrize("text, offset, message", [
    ("/r#5&x", 4, "data outside any token at offset 4"),
    ("/r#5\0", 4, "NUL in entity-mode stream at offset 4"),
    ("/r@a#3&#47;", 6, "data outside any token at offset 6")])
def test_marker_whose_run_stopped_matches_oracle(text, offset, message):
    # a key marker's digits stop at a character no marker can hold: the
    # error is the one for data outside any token, at that character
    got = assert_same(text, EscapeMode.ENTITY)
    assert got[1] == (StrayData, offset, message)


def assert_same_digits_unlimited(text, mode=EscapeMode.ENTITY,
                                 lift_for_tokenize=False):
    """assert_same, with the oracle reading references and markers of any
    length: it reads their digits with int(), which refuses more than
    sys.get_int_max_str_digits() of them.  The tokenizer reads a reference
    as text, so by default it runs under the default limit and must keep
    an overlong reference verbatim; lift_for_tokenize runs it with the
    limit lifted too, for markers, whose digits it converts."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not lift_for_tokenize:
        new = outcome(tokenize, text, mode)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if lift_for_tokenize:
            new = outcome(tokenize, text, mode)
        assert new == outcome(oracle_tokenize, text, mode), (text, mode)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return new


# the order references are folded in: the '#' of '&#35;' must not start
# a reference read again, zero padding names the same character, and
# other codes stay verbatim
_FOLDS = ["&&#35;47;", "&#047;", "&#00035;", "&#0;", "&#1047;", "&#35;35;",
          "&&#035;47;", "&#" + "1" * 5000 + ";"]


@pytest.mark.parametrize("payload", _FOLDS,
                         ids=lambda p: p if len(p) < 20 else "long")
@pytest.mark.parametrize("lead", ["/a'", "/", '/a"'])
def test_reference_fold_order_matches_oracle(lead, payload):
    text = lead + payload + ('"' if lead.endswith('"') else "")
    tokens, err = assert_same_digits_unlimited(text)
    assert err is None


def test_references_of_many_payloads_match_oracle():
    # the payloads of a stream are folded together
    tokens, err = assert_same_digits_unlimited(
        "/a" + "".join(f"'{p}\"{p}\"@{p}={p}" for p in _FOLDS))
    assert len(tokens) == 1 + 4 * len(_FOLDS)


def test_a_dual_keeps_other_references_verbatim():
    # a dual folds only '"' and '#'
    tokens, _ = assert_same('/a"&#47;&#34;&#035;"', EscapeMode.ENTITY)
    assert tokens[1].payload == '&#47;"#'


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


# An element's own depth marker is read in the element's match; a marker
# anywhere else is a match of its own.  Each pair is one stream in entity
# and in sentinel mode: a second marker, one without digits, a key
# reference or binder beside a marker, markers after an attribute name or
# value, after padding and after data, names holding an '&', and what may
# follow a marker's digits.
_MARKED = [
    ("/a+1+2", "\0/a\0+1\0+2"),
    ("/a+", "\0/a\0+"),
    ("/3+2", "\0/3\0+2"),
    ("/a#3+2", "\0/a\0#3\0+2"),
    ("/a+2#3", "\0/a\0+2\0#3"),
    ("@x+2", "\0@x\0+2"),
    ("/r@x+2", "\0/r\0@x\0+2"),
    ("@a=v+2", "\0@a\0=v\0+2"),
    ("/r@a=v+2", "\0/r\0@a\0=v\0+2"),
    ("/a +2", "\0/a \0+2"),
    ("'t+2", "\0't\0+2"),
    ("/r't+2", "\0/r\0't\0+2"),
    ("/r|a+0|a+1", "\0/r\0|a\0+0\0|a\0+1"),
    ("/a&+1", "\0/a&\0+1"),
    ("/a&#+1", "\0/a&#\0+1"),
    ("/a+1&", "\0/a\0+1&"),
    ("/a+1&#1;", "\0/a\0+1&#1;"),
    ("/a+1\0", "\0/a\0+1\0"),
    ("/+1", "\0/\0+1"),
]


@pytest.mark.parametrize("entity, sentinel", _MARKED)
def test_element_markers_match_oracle(entity, sentinel):
    assert_same(entity, EscapeMode.ENTITY)
    assert_same(sentinel, EscapeMode.SENTINEL)


@pytest.mark.parametrize("entity, sentinel", [
    ("/a+", "\0/a\0+"), ("/3+", "\0/3\0+"), ("'t+", "\0't\0+"),
    ("/r@x+", "\0/r\0@x\0+")])
def test_long_markers_match_oracle(entity, sentinel):
    # 5 000 digits, past int()'s default limit: with the limit lifted both
    # read the same depth, or refuse the marker with the same error
    digits = "9" * 5000
    assert_same_digits_unlimited(entity + digits, EscapeMode.ENTITY,
                                 lift_for_tokenize=True)
    assert_same_digits_unlimited(sentinel + digits, EscapeMode.SENTINEL,
                                 lift_for_tokenize=True)


def _rendered_streams():
    """The rendered streams of the corpus documents: sibling and canonical,
    keyed by build_substitution(..., 4) or not, in either escape mode."""
    streams = []
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        for escaping in EscapeMode:
            opts = EncodeOptions(mode=mode, escaping=escaping)
            for doc in fixtures.corpus()[:40] + fixtures.fixture_documents():
                stream = encode(doc, opts)
                streams.append((render(stream), escaping))
                streams.append((render(build_substitution(stream, 4)[1]),
                                escaping))
    return streams


_RENDERED = _rendered_streams()


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_RENDERED), st.sampled_from(["insert", "delete",
                                                    "replace"]),
       st.sampled_from(PIECES), st.floats(0, 1, exclude_max=True))
def test_one_edit_to_a_rendered_stream_matches_oracle(stream, edit, piece,
                                                      where):
    # the first fault sits behind as many good tokens as the edit offset
    # leaves before it, where the random strings above hold at most 30
    # pieces
    text, mode = stream
    at = int(where * (len(text) + (edit == "insert")))
    if edit == "insert":
        text = text[:at] + piece + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    else:
        text = text[:at] + piece + text[at + 1:]
    assert_same(text, mode)


def test_tokenize_runs_few_lines_per_token():
    # Python visits only the rows that need it: markers, names made of
    # digits, depth markers off an element and the first fault.  Over the
    # corpus streams in both forms and escape modes this reads 2.3 (sibling,
    # sentinel) to 4.2 (canonical, entity) lines per token, most of them a
    # call's fixed cost and the reference fold over streams of about 25
    # tokens; the per-match loop it replaced read 20.4 to 24.1
    docs = fixtures.corpus() + fixtures.fixture_documents()
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        for escaping in EscapeMode:
            opts = EncodeOptions(mode=mode, escaping=escaping)
            lines = tokens = 0
            for doc in docs:
                wire = render(encode(doc, opts))
                lines += steps.lines_run(tokenize, wire, escaping)
                tokens += len(tokenize(wire, escaping).kinds)
            assert lines / tokens <= 5, (mode, escaping, lines / tokens)
