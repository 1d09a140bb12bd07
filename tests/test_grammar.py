"""Token grammar: escaping, rendering, tokenizing."""

import re

import pytest
from hypothesis import example, given, strategies as st

from xstring import (
    BadDepth,
    BadKey,
    DanglingEscape,
    EmptyName,
    EscapeMode,
    MalformedEntity,
    NodeKind,
    PREFIX_CHARS,
    PrefixKind,
    StrayData,
    UnterminatedDual,
    XsDocument,
    XsToken,
    escape_data,
    render,
    tokenize,
    unescape_data,
)

from xstring.errors import BadArgument
from xstring.grammar import stream_escaping

from corpus import PROPERTIES_XS


def T(kind, payload="", **kw):
    return XsToken(kind, payload, **kw)


def test_prefix_characters():
    assert PREFIX_CHARS == "/|'\"@=-?[!+#"
    assert len(PREFIX_CHARS) == 12
    assert PrefixKind.CHILD.value == "/"
    assert PrefixKind.SIBLING.value == "|"
    assert PrefixKind.TEXT.value == "'"
    assert PrefixKind.TEXT_DUAL.value == '"'
    assert PrefixKind.ATTR_NAME.value == "@"
    assert PrefixKind.ATTR_VALUE.value == "="
    assert PrefixKind.COMMENT.value == "-"
    assert PrefixKind.PROC_INSTR.value == "?"
    assert PrefixKind.CDATA.value == "["
    assert PrefixKind.DTD.value == "!"
    assert PrefixKind.DEPTH.value == "+"
    assert PrefixKind.SUBST_KEY.value == "#"


def test_tokenize_sibling_stream():
    doc = tokenize(PROPERTIES_XS)
    got = [(t.kind, t.payload) for t in doc.tokens]
    assert got == [
        (PrefixKind.CHILD, "ENVIRONMENT"),
        (PrefixKind.CHILD, "TERM"),
        (PrefixKind.TEXT, "ANSI"),
        (PrefixKind.SIBLING, "CURRENCY"),
        (PrefixKind.TEXT, "DOLLAR"),
        (PrefixKind.SIBLING, "KEYBOARD"),
        (PrefixKind.TEXT, "PC101"),
        (PrefixKind.SIBLING, "USER"),
        (PrefixKind.TEXT, "jdoe"),
    ]


def test_tokenize_depth_marker():
    doc = tokenize("/XML/TAG+3?PI-comment'text")
    kinds = [t.kind for t in doc.tokens]
    assert kinds == [PrefixKind.CHILD, PrefixKind.CHILD, PrefixKind.PROC_INSTR,
                     PrefixKind.COMMENT, PrefixKind.TEXT]
    assert doc.tokens[0].depth is None
    assert doc.tokens[1].depth == 3


def test_tokenize_dual_text():
    doc = tokenize('/X"huh?"')
    assert doc.tokens[1].kind is PrefixKind.TEXT_DUAL
    assert doc.tokens[1].payload == "huh?"


def test_tokenize_attributes():
    doc = tokenize("/X@NAME=Jon")
    assert [(t.kind, t.payload) for t in doc.tokens] == [
        (PrefixKind.CHILD, "X"),
        (PrefixKind.ATTR_NAME, "NAME"),
        (PrefixKind.ATTR_VALUE, "Jon"),
    ]
    bare = tokenize("/X@NAME")
    assert [t.kind for t in bare.tokens] == [PrefixKind.CHILD,
                                             PrefixKind.ATTR_NAME]


def test_tokenize_quoted_attribute_value():
    doc = tokenize('/X@TEXT="a b/c"')
    assert doc.tokens[2].payload == "a b/c"
    empty = tokenize('/X@TEXT=""')
    assert empty.tokens[2].payload == ""


def test_tokenize_padding_after_names():
    doc = tokenize("/EMP /ROW 'John")
    assert [(t.kind, t.payload) for t in doc.tokens] == [
        (PrefixKind.CHILD, "EMP"),
        (PrefixKind.CHILD, "ROW"),
        (PrefixKind.TEXT, "John"),
    ]


def test_payload_whitespace_preserved():
    doc = tokenize("/X' John |Y")
    assert doc.tokens[1].payload == " John "


def test_tokenize_sentinel_stream():
    text = "\0/GREETING\0''Hello World!!!'"
    doc = tokenize(text, EscapeMode.SENTINEL)
    assert [(t.kind, t.payload) for t in doc.tokens] == [
        (PrefixKind.CHILD, "GREETING"),
        (PrefixKind.TEXT, "'Hello World!!!'"),
    ]
    assert render(doc) == text


@pytest.mark.parametrize("text, mode", [
    ("", EscapeMode.ENTITY),
    (" \t\r\n", EscapeMode.ENTITY),
    ("\0/r", EscapeMode.SENTINEL),
    (" \r\n\0/r", EscapeMode.SENTINEL),
    ("/r", EscapeMode.ENTITY),
], ids=["empty", "padding", "sentinel", "padded-sentinel", "entity"])
def test_stream_escaping(text, mode):
    assert stream_escaping(text) is mode


def test_stream_escaping_reads_only_the_first_lead():
    # a NUL after an entity-mode token is stray data, as it always was
    text = "/r\0/x"
    assert stream_escaping(text) is EscapeMode.ENTITY
    with pytest.raises(StrayData) as info:
        tokenize(text, stream_escaping(text))
    assert info.value.offset == 2
    assert info.value.reason == "NUL in entity-mode stream"


def test_sentinel_names_may_hold_prefix_characters():
    doc = XsDocument([T(PrefixKind.CHILD, "A/B-C")], EscapeMode.SENTINEL)
    text = render(doc)
    assert tokenize(text, EscapeMode.SENTINEL).tokens == doc.tokens


def test_entity_names_with_prefix_characters_round_trip():
    doc = XsDocument([T(PrefixKind.CHILD, "A/B-C")])
    text = render(doc)
    assert text == "/A&#47;B&#45;C"
    assert tokenize(text).tokens == doc.tokens


def test_escape_data_entity():
    assert escape_data("a/b|c") == "a&#47;b&#124;c"
    assert escape_data("plain text.") == "plain text."
    # every prefix character gets a reference
    for c in PREFIX_CHARS:
        assert escape_data(c) == f"&#{ord(c)};"


def test_escape_data_sentinel_identity():
    assert escape_data("a/b|c", EscapeMode.SENTINEL) == "a/b|c"
    assert unescape_data("a/b|c", EscapeMode.SENTINEL) == "a/b|c"


def test_unescape_keeps_foreign_references():
    assert unescape_data("&amp;") == "&amp;"
    assert unescape_data("&#160;") == "&#160;"
    assert unescape_data("a & b") == "a & b"
    assert unescape_data("&#47;") == "/"


# unescape_data as it was before the references of a payload were folded
# by ordered str.replace passes: one regex scan, a callback per reference
_OLD_CODES = {str(ord(c)): c for c in PREFIX_CHARS}


def _old_unescape(s):
    if re.search("&#(?![0-9]+;)", s):
        raise MalformedEntity(0, "")
    return re.sub("&#0*([0-9]+);", lambda m: _OLD_CODES.get(m[1], m[0]), s)


def _outcome(fn, s):
    try:
        return fn(s)
    except MalformedEntity:
        return MalformedEntity


# where ordered replacement could part from one scan: the '#' a
# reference folds to, zero padding, other codes, digits and ';'
_REFERENCE_PIECES = st.lists(st.sampled_from(
    ["&", "#", "&#", ";", "0", "3", "4", "5", "7", "1", "a", "/",
     "&#35;", "&#035;", "&#47;", "&#047;", "&#0047;", "&#34;", "&#124;",
     "&#1047;", "&#0;", "&#00;", "&#160;", "&amp;"]), max_size=12)


@given(_REFERENCE_PIECES.map("".join))
def test_unescape_matches_one_reference_scan(s):
    assert _outcome(unescape_data, s) == _outcome(_old_unescape, s)


@pytest.mark.parametrize("s", ["&&#35;47;", "&&#035;47;", "&#35;35;",
                               "&#047;", "&#00035;", "&#0;", "&#1047;",
                               "&#" + "0" * 5000 + "124;",
                               "&#" + "9" * 5000 + ";", "&&#35;0047;"])
def test_unescape_examples_match_one_reference_scan(s):
    assert unescape_data(s) == _old_unescape(s)


@pytest.mark.parametrize("mode", list(EscapeMode))
@pytest.mark.parametrize("kind", [PrefixKind.TEXT, PrefixKind.TEXT_DUAL,
                                  PrefixKind.CHILD],
                         ids=lambda kind: f"PrefixKind.{kind.name}")
def test_render_refuses_a_nul_payload(kind, mode):
    # a payload set after the checks of XsToken(...): the stream it
    # would make does not read back
    bad = T(kind, "a")
    bad.payload = "a\0b"
    doc = XsDocument([T(PrefixKind.CHILD, "r"), bad], mode)
    with pytest.raises(BadArgument, match="NUL"):
        render(doc)


def test_unescape_rejects_non_decimal_reference():
    with pytest.raises(MalformedEntity):
        unescape_data("&#x41;")
    with pytest.raises(MalformedEntity):
        unescape_data("&#12")


def test_dual_render_escapes_delimiter_and_hash():
    doc = XsDocument([T(PrefixKind.TEXT_DUAL, 'say "hi" #1/')])
    text = render(doc)
    assert text == '"say &#34;hi&#34; &#35;1/"'
    assert tokenize(text).tokens == doc.tokens
    # '#' is escaped before the '&#34;' that holds one is written, and a
    # reference already in the text escapes its own '#'
    payload = 'a"b#c&#35;d'
    for mode, wire in ((EscapeMode.ENTITY, '"a&#34;b&#35;c&&#35;35;d"'),
                       (EscapeMode.SENTINEL, '\0"a"b#c&#35;d\0"')):
        doc = XsDocument([T(PrefixKind.TEXT_DUAL, payload)], mode)
        assert render(doc) == wire
        assert tokenize(wire, mode).tokens == doc.tokens


def test_render_reference_and_binder():
    binder = XsDocument([T(PrefixKind.CHILD, "NAME", subst_key=0)])
    assert render(binder) == "/NAME#0"
    ref = XsDocument([T(PrefixKind.CHILD, "", subst_key=0)])
    assert render(ref) == "/0"
    assert tokenize("/0").tokens[0].is_reference()


def test_render_depth():
    doc = XsDocument([T(PrefixKind.CHILD, "X", depth=12)])
    assert render(doc) == "/X+12"
    assert tokenize("/X+12").tokens == doc.tokens


def test_tokenize_errors():
    with pytest.raises(StrayData):
        tokenize("junk")
    with pytest.raises(StrayData):
        tokenize("/X'a\0b")
    with pytest.raises(EmptyName):
        tokenize("/@N")
    with pytest.raises(EmptyName):
        tokenize("/ 'x")
    with pytest.raises(BadDepth):
        tokenize("/X+")
    with pytest.raises(BadDepth):
        tokenize("+3'x")
    with pytest.raises(BadDepth):
        tokenize("/X't+3")
    with pytest.raises(BadDepth):
        tokenize("/X+1+2")
    with pytest.raises(BadKey):
        tokenize("/X#")
    with pytest.raises(BadKey):
        tokenize("#0")
    with pytest.raises(BadKey):
        tokenize("/X#1#2")
    with pytest.raises(UnterminatedDual):
        tokenize('/X"open')
    with pytest.raises(DanglingEscape):
        tokenize("\0/X\0", EscapeMode.SENTINEL)
    with pytest.raises(DanglingEscape):
        tokenize("\0/X\0x", EscapeMode.SENTINEL)
    with pytest.raises(StrayData):
        tokenize("x\0/X", EscapeMode.SENTINEL)


@pytest.mark.parametrize("wire, error, offset", [
    ("/X+" + "9" * 5000, BadDepth, 2),
    ("/X#" + "9" * 5000, BadKey, 2),
    ("/X'a|" + "9" * 5000, BadKey, 4),
    ("\0/X\0+" + "9" * 5000, BadDepth, 3),
], ids=["depth", "key", "reference", "sentinel-depth"])
def test_overlong_digit_runs_are_typed(wire, error, offset):
    escaping = EscapeMode.SENTINEL if wire[0] == "\0" else EscapeMode.ENTITY
    with pytest.raises(error) as info:
        tokenize(wire, escaping)
    assert info.value.offset == offset
    assert "too many digits" in info.value.reason


def test_overlong_reference_stays_verbatim():
    ref = "&#" + "9" * 5000 + ";"
    assert tokenize(f"/X'{ref}").tokens[1].payload == ref
    assert tokenize(f'/X"{ref}"').tokens[1].payload == ref
    assert unescape_data(ref) == ref
    # leading zeros do not change which character a reference names
    assert tokenize("/X'&#" + "0" * 5000 + "47;").tokens[1].payload == "/"


def test_token_validation():
    with pytest.raises(ValueError):
        XsToken(PrefixKind.CHILD, "a b")
    with pytest.raises(ValueError):
        XsToken(PrefixKind.CHILD, "")
    with pytest.raises(ValueError):
        XsToken(PrefixKind.CHILD, "42")
    with pytest.raises(ValueError):
        XsToken(PrefixKind.TEXT, "a\0b")
    with pytest.raises(ValueError):
        XsToken(PrefixKind.TEXT, "x", depth=1)
    with pytest.raises(ValueError):
        XsToken(PrefixKind.TEXT, "x", subst_key=1)
    with pytest.raises(ValueError):
        XsToken(PrefixKind.DEPTH)
    with pytest.raises(ValueError):
        XsToken(PrefixKind.CHILD, "X", depth=-1)
    with pytest.raises(ValueError, match="depth on a non-element token"):
        XsToken(PrefixKind.ATTR_NAME, "a", depth=1)
    with pytest.raises(ValueError, match="negative key"):
        XsToken(PrefixKind.CHILD, "a", subst_key=-1)
    # non-ASCII digits do not read back as keys, so they are allowed
    XsToken(PrefixKind.CHILD, "١٢")


@pytest.mark.parametrize("kind, fields", [
    ("/", {}),
    (NodeKind.ELEMENT, {}),
    (None, {}),
    (PrefixKind.CHILD, {"depth": 1.5}),
    (PrefixKind.CHILD, {"depth": True}),
    (PrefixKind.CHILD, {"depth": "2"}),
    (PrefixKind.CHILD, {"subst_key": "3"}),
], ids=["char", "node_kind", "none", "float_depth", "bool_depth",
        "str_depth", "str_key"])
def test_token_fields_have_their_types(kind, fields):
    # a plain '/' equals PrefixKind.CHILD and True equals 1, so no later
    # check refuses them; unchecked, each of these made decode, render or
    # pack go wrong, or raised a bare TypeError here
    with pytest.raises(BadArgument):
        XsToken(kind, "r", **fields)


@pytest.mark.parametrize("build", [
    lambda: XsDocument(tokenize("/r/a").tokens, "sentinel"),
    lambda: XsDocument(escaping=None),
    lambda: XsDocument.from_columns([], [], [], [], "sentinel"),
], ids=["tokens", "none", "columns"])
def test_a_document_refuses_an_escaping_that_is_no_mode(build):
    # checked once, where the document is built, so decode, pack and
    # build_substitution never see a mode that render would refuse
    with pytest.raises(BadArgument, match="unknown escape mode"):
        build()


def test_document_columns_hold_its_tokens():
    tokens = [T(PrefixKind.CHILD, "r", depth=2), T(PrefixKind.ATTR_NAME, "a"),
              T(PrefixKind.ATTR_VALUE, "1"),
              T(PrefixKind.SIBLING, "", subst_key=3)]
    doc = XsDocument(tokens=tokens, escaping=EscapeMode.SENTINEL)
    assert doc.kinds == [PrefixKind.CHILD, PrefixKind.ATTR_NAME,
                         PrefixKind.ATTR_VALUE, PrefixKind.SIBLING]
    assert doc.payloads == ["r", "a", "1", ""]
    assert doc.depths == [2, None, None, None]
    assert doc.keys == [None, None, None, 3]
    assert doc.tokens == tuple(tokens)
    assert doc == XsDocument.from_columns(doc.kinds[:], doc.payloads[:],
                                          doc.depths[:], doc.keys[:],
                                          EscapeMode.SENTINEL)
    assert doc != XsDocument(tokens)  # another escaping
    # the tokens are built anew on each read, as a tuple that refuses writes
    doc.tokens[0].payload = "x"
    assert doc.payloads[0] == "r"
    with pytest.raises(AttributeError):
        doc.tokens.append(tokens[0])
    with pytest.raises(TypeError):
        doc.tokens[0] = tokens[0]
    with pytest.raises(TypeError):
        del doc.tokens[0]
    with pytest.raises(BadArgument, match="different lengths"):
        XsDocument.from_columns([PrefixKind.CHILD], ["r"], [], [None])


def test_document_compares_and_shows_as_its_tokens():
    doc = XsDocument([T(PrefixKind.CHILD, "r", depth=1),
                      T(PrefixKind.TEXT, "a")], EscapeMode.SENTINEL)
    # against anything else == falls back to identity, so it is False
    assert doc.__eq__(doc.tokens) is NotImplemented
    assert doc != doc.tokens
    assert doc != render(doc)
    assert repr(doc) == (
        "XsDocument((XsToken(kind=<PrefixKind.CHILD: '/'>, payload='r', "
        "depth=1, subst_key=None), XsToken(kind=<PrefixKind.TEXT: \"'\">, "
        "payload='a', depth=None, subst_key=None)), "
        "<EscapeMode.SENTINEL: 'sentinel'>)")


@given(st.text(alphabet=st.characters(blacklist_characters="\0",
                                      blacklist_categories=("Cs",))))
def test_escape_unescape_inverse(s):
    assert unescape_data(escape_data(s)) == s


@given(st.text(alphabet=st.characters(blacklist_characters="\0",
                                      blacklist_categories=("Cs",))))
def test_dual_round_trip(s):
    doc = XsDocument([T(PrefixKind.TEXT_DUAL, s)])
    assert tokenize(render(doc)).tokens == doc.tokens


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_.:-]{0,8}", fullmatch=True)
_payloads = st.text(alphabet=st.characters(blacklist_characters="\0",
                                           blacklist_categories=("Cs",)),
                    max_size=20)


@st.composite
def _token_lists(draw):
    tokens = []
    for _ in range(draw(st.integers(1, 12))):
        pick = draw(st.integers(0, 9))
        if pick <= 1:
            kind = PrefixKind.CHILD if pick == 0 else PrefixKind.SIBLING
            depth = draw(st.one_of(st.none(), st.integers(0, 30)))
            key = draw(st.one_of(st.none(), st.integers(0, 99)))
            tokens.append(XsToken(kind, draw(_names), depth=depth,
                                  subst_key=key))
        elif pick == 2:
            tokens.append(XsToken(PrefixKind.CHILD, "",
                                  subst_key=draw(st.integers(0, 99))))
        elif pick == 3:
            tokens.append(XsToken(PrefixKind.ATTR_NAME, draw(_names)))
        elif pick == 4:
            tokens.append(XsToken(PrefixKind.ATTR_VALUE, draw(_payloads)))
        elif pick == 5:
            tokens.append(XsToken(PrefixKind.TEXT_DUAL, draw(_payloads)))
        else:
            kind = [PrefixKind.TEXT, PrefixKind.COMMENT, PrefixKind.PROC_INSTR,
                    PrefixKind.CDATA, PrefixKind.DTD][pick - 6]
            tokens.append(XsToken(kind, draw(_payloads)))
    # a dual right after a bare = reads back as a quoted value
    for i in range(1, len(tokens)):
        if (tokens[i].kind is PrefixKind.TEXT_DUAL
                and tokens[i - 1].kind is PrefixKind.ATTR_VALUE
                and not tokens[i - 1].payload):
            tokens[i] = XsToken(PrefixKind.TEXT, tokens[i].payload)
    return tokens


@given(_token_lists(), st.sampled_from(list(EscapeMode)))
@example([], EscapeMode.ENTITY)
@example([], EscapeMode.SENTINEL)
def test_render_tokenize_identity(tokens, mode):
    doc = XsDocument(tokens, mode)
    assert tokenize(render(doc), mode).tokens == doc.tokens
