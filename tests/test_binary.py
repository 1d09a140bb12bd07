"""Tests for the nibble-packed binary form.

The one-pass pack and unpack are compared with the reader and writer they
replaced, kept in binary_oracle.py: the same bytes or tokens, or the same
error class and message.
"""

import functools
import random

import pytest
from hypothesis import given, strategies as st

from xstring.binary import (
    BadMagic,
    BadNibble,
    BadPayload,
    BadVersion,
    MalformedVarint,
    PackError,
    StrayMarker,
    TrailingBytes,
    Truncated,
    _read_varint,
    _write_varint,
    pack,
    pack_envelope,
    unpack,
    unpack_envelope,
)
from xstring.codec import EncodeMode, EncodeOptions, encode
from xstring.grammar import EscapeMode, PrefixKind, XsDocument, XsToken
from xstring.transforms import build_substitution

from binary_oracle import oracle_pack, oracle_unpack
from corpus import corpus
from test_grammar import _token_lists
from test_token_invariants import python_calls


def doc_of(*tokens):
    return XsDocument(list(tokens))


def test_pack_golden_name_and_text():
    doc = doc_of(XsToken(PrefixKind.CHILD, "XML"),
                 XsToken(PrefixKind.TEXT, "XMLTEXT"))
    data = pack(doc)
    assert data == bytes.fromhex("0F03584D4C07584D4C54455854")
    assert len(data) == 13


def test_pack_single_token_pads():
    data = pack(doc_of(XsToken(PrefixKind.CHILD, "X")))
    # odd unit count: pad code 0xE fills the low nibble
    assert data == bytes([0x0E, 0x01, 0x58])


def test_pack_depth_expands_to_own_unit():
    data = pack(doc_of(XsToken(PrefixKind.CHILD, "X", depth=2)))
    assert data == bytes([0x09, 0x01, 0x58, 0x02])


def test_pack_key_expands_to_own_unit():
    doc = doc_of(XsToken(PrefixKind.CHILD, "NAME", subst_key=0),
                 XsToken(PrefixKind.TEXT, "a"))
    data = pack(doc)
    assert data == bytes.fromhex("0A044E414D4500FE0161")


def test_pack_empty_stream():
    assert pack(doc_of()) == b""
    assert unpack(b"").tokens == []


def test_unpack_goldens():
    doc = unpack(bytes.fromhex("0F03584D4C07584D4C54455854"))
    assert doc.tokens == [XsToken(PrefixKind.CHILD, "XML"),
                          XsToken(PrefixKind.TEXT, "XMLTEXT")]
    doc = unpack(bytes([0x09, 0x01, 0x58, 0x02]))
    assert doc.tokens == [XsToken(PrefixKind.CHILD, "X", depth=2)]
    doc = unpack(bytes.fromhex("0A044E414D4500FE0161"))
    assert doc.tokens == [XsToken(PrefixKind.CHILD, "NAME", subst_key=0),
                          XsToken(PrefixKind.TEXT, "a")]


def test_unpack_escaping_is_callers_choice():
    data = pack(doc_of(XsToken(PrefixKind.CHILD, "X")))
    assert unpack(data).escaping is EscapeMode.ENTITY
    assert unpack(data, EscapeMode.SENTINEL).escaping is EscapeMode.SENTINEL


def test_envelope_round_trip():
    doc = doc_of(XsToken(PrefixKind.CHILD, "X"),
                 XsToken(PrefixKind.TEXT, "hi"))
    data = pack_envelope(doc)
    assert data[:4] == b"XSB1"
    assert data[4] == 1
    assert data[5:] == pack(doc)
    assert unpack_envelope(data).tokens == doc.tokens


def test_envelope_bad_magic():
    with pytest.raises(BadMagic):
        unpack_envelope(b"NOPE\x01\x0e\x01\x58")
    with pytest.raises(BadMagic):
        unpack_envelope(b"")


def test_envelope_bad_version():
    with pytest.raises(BadVersion):
        unpack_envelope(b"XSB1\x02\x0e\x01\x58")


def test_envelope_truncated_before_version():
    with pytest.raises(Truncated):
        unpack_envelope(b"XSB1")


def test_unassigned_nibbles_rejected():
    for byte in (0xB0, 0xC0, 0xD0, 0x0B, 0x0C, 0x0D):
        with pytest.raises(BadNibble):
            unpack(bytes([byte]))


def test_pad_in_high_nibble_rejected():
    with pytest.raises(BadNibble):
        unpack(bytes([0xE0]))
    with pytest.raises(BadNibble):
        unpack(bytes([0xEE]))


def test_trailing_bytes_after_pad():
    with pytest.raises(TrailingBytes):
        unpack(bytes([0x0E, 0x01, 0x58, 0x00]))


def test_truncated_inside_body():
    # length varint promises 3 bytes, only 1 present
    with pytest.raises(Truncated):
        unpack(bytes([0x0E, 0x03, 0x58]))
    # pair byte alone, no bodies at all
    with pytest.raises(Truncated):
        unpack(bytes([0x0F]))


def test_truncated_inside_varint():
    with pytest.raises(Truncated):
        unpack(b"\x0e" + b"\x80" * 10)


def test_varint_over_64_bits():
    # eleven bytes, and ten whose last carries more than bit 63
    for data in (b"\x0e" + b"\x80" * 11, b"\x0e" + b"\xff" * 9 + b"\x02"):
        with pytest.raises(MalformedVarint, match="longer than 64 bits"):
            unpack(data)


def test_pack_refuses_what_unpack_refuses():
    for field in ("depth", "subst_key"):
        # a negative value, which only an unchecked token can hold, would
        # write 0xff bytes without end
        for value in (2 ** 64, -1):
            over = XsToken.unchecked(PrefixKind.CHILD, "X", **{field: value})
            with pytest.raises(MalformedVarint, match="does not fit in 64"):
                pack(XsDocument([over]))
        top = XsToken(PrefixKind.CHILD, "X", **{field: 2 ** 64 - 1})
        assert unpack(pack(XsDocument([top]))).tokens == [top]


def test_pack_refuses_a_payload_utf8_cannot_hold():
    # XsToken(...) accepts a lone surrogate, which has no UTF-8 form
    doc = XsDocument([XsToken(PrefixKind.CHILD, "X"),
                      XsToken(PrefixKind.TEXT, "a\ud800")])
    for fn in (pack, pack_envelope):
        with pytest.raises(BadPayload, match="not encodable as UTF-8"):
            fn(doc)


def test_stray_depth_marker():
    # depth unit with nothing before it
    with pytest.raises(StrayMarker):
        unpack(bytes([0x9E, 0x00]))
    # depth after a text unit
    with pytest.raises(StrayMarker):
        unpack(bytes([0xF9, 0x01, 0x61, 0x05]))
    # second depth on the same element
    with pytest.raises(StrayMarker):
        unpack(bytes([0x09, 0x01, 0x58, 0x02, 0x9E, 0x03]))


def test_stray_key_marker():
    with pytest.raises(StrayMarker):
        unpack(bytes([0xAE, 0x00]))
    # second key on the same name
    with pytest.raises(StrayMarker):
        unpack(bytes([0x0A, 0x01, 0x61, 0x00, 0xAE, 0x01]))


def test_bad_payload_invalid_utf8():
    with pytest.raises(BadPayload):
        unpack(bytes([0x0E, 0x01, 0xFF]))


def test_bad_payload_name_with_space():
    with pytest.raises(BadPayload):
        unpack(bytes([0x0E, 0x03]) + b"a b")


def test_bad_payload_digits_only_name():
    with pytest.raises(BadPayload):
        unpack(bytes([0x0E, 0x02]) + b"42")


@pytest.mark.parametrize("data, token", [
    (bytes([0x0E, 0x03]) + b"a b", (PrefixKind.CHILD, "a b")),
    (bytes([0x0E, 0x02]) + b"42", (PrefixKind.CHILD, "42")),
    (bytes([0xFE, 0x03]) + b"a\0b", (PrefixKind.TEXT, "a\0b")),
    (bytes([0x0E, 0x00]), (PrefixKind.CHILD, "")),
])
def test_bad_payload_says_what_the_constructor_says(data, token):
    # unpack reads input from outside: its tokens get every check of
    # XsToken(...), reported in the constructor's words
    with pytest.raises(ValueError) as expected:
        XsToken(*token)
    with pytest.raises(BadPayload) as got:
        unpack(data)
    assert str(got.value) == str(expected.value)


@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_varint_round_trip(value):
    out = bytearray()
    _write_varint(value, out)
    got, pos = _read_varint(bytes(out), 0)
    assert got == value
    assert pos == len(out)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 32), max_size=8))
def test_varint_sequence_round_trip(values):
    out = bytearray()
    for value in values:
        _write_varint(value, out)
    pos = 0
    got = []
    for _ in values:
        value, pos = _read_varint(bytes(out), pos)
        got.append(value)
    assert got == values
    assert pos == len(out)


def all_kind_tokens():
    return [
        XsToken(PrefixKind.CHILD, "A", depth=3),
        XsToken(PrefixKind.ATTR_NAME, "N"),
        XsToken(PrefixKind.ATTR_VALUE, "v v"),
        XsToken(PrefixKind.SIBLING, "LONGNAME", subst_key=7),
        XsToken(PrefixKind.COMMENT, "note"),
        XsToken(PrefixKind.PROC_INSTR, "pi data"),
        XsToken(PrefixKind.CDATA, "0xFF"),
        XsToken(PrefixKind.DTD, "ELEMENT A (#PCDATA)"),
        XsToken(PrefixKind.TEXT, "plain"),
        XsToken(PrefixKind.TEXT_DUAL, "end/"),
        XsToken(PrefixKind.TEXT, ""),
    ]


def test_every_kind_survives_round_trip():
    doc = doc_of(*all_kind_tokens())
    assert unpack(pack(doc)).tokens == doc.tokens
    assert unpack_envelope(pack_envelope(doc)).tokens == doc.tokens


def test_unpack_pack_identity_on_corpus():
    docs = corpus()[:120]
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        for escaping in (EscapeMode.ENTITY, EscapeMode.SENTINEL):
            opts = EncodeOptions(mode=mode, escaping=escaping)
            for doc in docs:
                xs = encode(doc, opts)
                back = unpack(pack(xs), escaping)
                assert back.tokens == xs.tokens
                assert back.escaping is escaping


def test_fuzz_never_crashes():
    rng = random.Random(4243)
    base = pack_envelope(doc_of(XsToken(PrefixKind.CHILD, "XML", depth=2),
                                XsToken(PrefixKind.ATTR_NAME, "N"),
                                XsToken(PrefixKind.ATTR_VALUE, "v"),
                                XsToken(PrefixKind.TEXT, "body")))
    for trial in range(1000):
        if trial % 2:
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 24)))
        else:
            data = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data[:rng.randrange(1, len(data) + 1)])
        try:
            unpack_envelope(data)
        except PackError:
            pass


# ---------------------------------------------------------------------------
# the one-pass reader and writer against the oracle

def outcome(fn, arg):
    """What fn makes of arg: its tokens or bytes, or its error."""
    try:
        got = fn(arg)
    except Exception as err:
        return None, (type(err), str(err))
    if isinstance(got, XsDocument):
        got = [(t.kind, t.payload, t.depth, t.subst_key) for t in got.tokens]
    return got, None


def assert_unpacks_as_oracle(data):
    assert outcome(unpack, data) == outcome(oracle_unpack, data), data


def assert_packs_as_oracle(doc):
    assert outcome(pack, doc) == outcome(oracle_pack, doc), doc.tokens


@functools.cache
def corpus_streams():
    """Every corpus document, sibling and canonical, in both escape modes,
    plain and keyed at threshold 4."""
    streams = []
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        for escaping in EscapeMode:
            opts = EncodeOptions(mode=mode, escaping=escaping)
            for doc in corpus():
                xs = encode(doc, opts)
                streams += [xs, build_substitution(xs, 4)[1]]
    return tuple(streams)


def test_corpus_streams_match_oracle():
    for xs in corpus_streams():
        assert_packs_as_oracle(xs)
        assert_unpacks_as_oracle(pack(xs))


# the pair bytes of names, markers, the pad and text; a continued varint
# byte, a byte of no UTF-8 sequence, short lengths and payload characters
_UNIT_BYTES = bytes([0x0E, 0x09, 0x0A, 0x7E, 0x9E, 0xAE, 0xFE, 0x00, 0x01,
                     0x02, 0x03, 0x80, 0xFF]) + b"a 1\t"


def test_mutated_and_random_bytes_match_oracle():
    rng = random.Random(1414)
    blobs = [pack(xs) for xs in corpus_streams()]
    for trial in range(20000):
        if trial % 4 == 0:
            data = bytes(rng.choice(_UNIT_BYTES)
                         for _ in range(rng.randrange(12)))
        else:
            data = bytearray(rng.choice(blobs))
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(data))
                if rng.randrange(2):
                    data[at] = rng.randrange(256)
                else:
                    data[at] = rng.choice(_UNIT_BYTES)
            if trial % 4 == 1:
                del data[rng.randrange(len(data) + 1):]
            data = bytes(data)
        assert_unpacks_as_oracle(data)


@given(st.binary(max_size=40))
def test_random_bytes_match_oracle(data):
    assert_unpacks_as_oracle(data)


@given(st.lists(st.sampled_from(list(_UNIT_BYTES)), max_size=24).map(bytes))
def test_unit_byte_strings_match_oracle(data):
    assert_unpacks_as_oracle(data)


@given(_token_lists())
def test_generated_streams_match_oracle(tokens):
    doc = XsDocument(tokens)
    assert_packs_as_oracle(doc)
    assert_unpacks_as_oracle(pack(doc))


_MARKER_VALUES = st.one_of(
    st.none(), st.integers(0, 300),
    st.sampled_from([-1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 70]))


@given(st.lists(st.tuples(st.sampled_from([PrefixKind.CHILD,
                                          PrefixKind.ATTR_NAME,
                                          PrefixKind.TEXT]),
                          st.text(max_size=200), _MARKER_VALUES,
                          _MARKER_VALUES), max_size=6))
def test_unchecked_streams_pack_as_oracle(fields):
    # unchecked tokens may hold any depth or key, in or out of 64 bits
    doc = XsDocument([XsToken.unchecked(*f) for f in fields])
    assert_packs_as_oracle(doc)


def test_out_of_range_markers_pack_as_oracle():
    for field in ("depth", "subst_key"):
        for value in (2 ** 64, -1, 2 ** 64 - 1, 0x7F, 0x80):
            # the marker unit in either slot of its pair
            for lead in ([], [XsToken(PrefixKind.TEXT, "t")]):
                doc = XsDocument(lead + [XsToken.unchecked(
                    PrefixKind.CHILD, "X", **{field: value})])
                assert_packs_as_oracle(doc)


# ---------------------------------------------------------------------------
# cost guards, which count calls and read no clock

def keyed_corpus_streams():
    return [build_substitution(encode(doc, EncodeOptions(escaping=e)), 4)[1]
            for e in EscapeMode for doc in corpus()]


def test_unpack_makes_few_python_calls_per_token():
    # one XsToken.unchecked per token and the body of each unit read where
    # it lies: about 1.1 calls per token on these streams, where a helper
    # per unit and a checked constructor per token made 6.8
    blobs = [(pack(xs), xs.escaping) for xs in keyed_corpus_streams()]
    read = []
    calls = python_calls(lambda: [read.append(unpack(b, e)) for b, e in blobs])
    tokens = sum(len(doc.tokens) for doc in read)
    assert calls / tokens <= 3.0


def test_pack_makes_few_python_calls_per_token():
    # every unit written inline, a call only for a varint of two bytes or
    # more: about 0.05 calls per token, where a list of unit tuples and a
    # helper per unit made 3.25
    streams = keyed_corpus_streams()
    calls = python_calls(lambda: [pack(xs) for xs in streams])
    tokens = sum(len(xs.tokens) for xs in streams)
    assert calls / tokens <= 2.5
