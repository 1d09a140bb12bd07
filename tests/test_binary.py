"""Tests for the nibble-packed binary form."""

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

from corpus import corpus


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
        except ValueError:
            pass
