"""Tests for the nibble-packed binary form, format version 3.

pack and unpack are compared with the format version 2 reader and writer
they replaced, kept in binary_v2_oracle.py, which writes each string body
in place in the unit stream.  v3_of moves those bodies into their string
containers, so a version 2 payload has a version 3 twin, and unpack reads
the twin as the oracle reads the payload: the same tokens or the same
error class and message.  pack writes the same structure and string
containers as v3_of makes of the oracle's bytes, deflated or not, and
fails as the oracle does, or on a payload that holds NUL.
"""

import functools
import random
import zlib

import pytest
from hypothesis import given, strategies as st

from xstring.binary import (
    MAGIC,
    VERSION,
    BadContainer,
    BadMagic,
    BadNameIndex,
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
from xstring.grammar import (NAME_KINDS, NUL, EscapeMode, PrefixKind,
                             XsDocument, XsToken, name_fault)
from xstring.transforms import build_substitution
from xstring.xml_model import parse_xml

import binary_v2_oracle as v2
from corpus import corpus
from steps import python_calls
from test_grammar import _names, _payloads, _token_lists
from test_memory import _table, deflate_bomb, deflated_text, dense_bomb, split


def _unchecked(fields):
    """A document whose columns hold each (kind, payload, depth, key) as it
    is, without XsToken's checks."""
    columns = ([], [], [], [])
    for token in fields:
        for column, value in zip(columns, token):
            column.append(value)
    return XsDocument.from_columns(*columns)


def _marker(field, value):
    """The (depth, key) pair holding value in field and None in the other."""
    return (value, None) if field == "depth" else (None, value)


def doc_of(*tokens):
    return XsDocument(list(tokens))


def _varint(value):
    out = bytearray()
    _write_varint(value, out)
    return bytes(out)


# the structure's number where a container is named by number; a string
# container's is its own, 0 to 6
STRUCTURE = 7


def payload(units, boxes=None, deflate=()):
    """A version 3 payload written by hand: the structure's units and each
    string container's raw body by number, those numbered in deflate
    deflated."""
    bodies = {STRUCTURE: units, **(boxes or {})}
    head = bytearray([sum(1 << box for box in boxes or ()),
                      sum(1 << box for box in deflate)])
    stored = []
    for box in (STRUCTURE, *sorted(boxes or ())):
        raw = bodies[box]
        head += _varint(len(raw))
        if box in deflate:
            raw = zlib.compress(raw, 9, -15)
            head += _varint(len(raw))
        stored.append(raw)
    return bytes(head) + b"".join(stored)


# each string code's container: names; text and dual text; attribute
# values; comments; instructions; CDATA; declarations
_CONTAINER = {0x0: 0, 0x1: 0, 0x7: 0, 0xF: 1, 0x6: 1, 0x8: 2, 0x2: 3,
              0x3: 4, 0x4: 5, 0x5: 6}


def v3_of(data):
    """The version 3 payload of the units of the version 2 payload data:
    its string bodies moved, in order, to their containers, and nothing
    deflated.  ValueError where data is not a whole unit stream at the
    byte level, or a body holds NUL, which version 3 cannot carry."""
    units = bytearray()
    boxes = {}
    pos = 0
    try:
        while pos < len(data):
            byte = data[pos]
            pos += 1
            units.append(byte)
            if byte >> 4 == 0xE:
                raise ValueError("pad in the first slot")
            for code in (byte >> 4, byte & 0xF):
                if code == 0xE:
                    if pos != len(data):
                        raise ValueError("data after the pad")
                    break
                start = pos
                value, pos = _read_varint(data, pos)
                if code not in _CONTAINER:
                    units += data[start:pos]
                    continue
                body = data[pos:pos + value]
                pos += value
                if len(body) < value or 0 in body:
                    raise ValueError("a body cut short or holding NUL")
                boxes.setdefault(_CONTAINER[code], []).append(body)
    except PackError as err:  # a varint cut short or too long
        raise ValueError(err) from None
    return payload(bytes(units), {box: b"\0".join(bodies)
                                  for box, bodies in boxes.items()})


def test_pack_golden_name_and_text():
    doc = doc_of(XsToken(PrefixKind.CHILD, "XML"),
                 XsToken(PrefixKind.TEXT, "XMLTEXT"))
    data = pack(doc)
    # present: names and text; nothing deflated; lengths 1, 3 and 7
    assert data == bytes.fromhex("0300 010307 0F 584D4C 584D4C54455854")
    assert data == payload(b"\x0f", {0: b"XML", 1: b"XMLTEXT"})
    assert len(data) == 16


def test_pack_single_token_pads():
    data = pack(doc_of(XsToken(PrefixKind.CHILD, "X")))
    # odd unit count: pad code 0xE fills the low nibble
    assert data == bytes([0x01, 0x00, 0x01, 0x01, 0x0E, 0x58])


def test_pack_depth_expands_to_own_unit():
    data = pack(doc_of(XsToken(PrefixKind.CHILD, "X", depth=2)))
    assert data == payload(bytes([0x09, 0x02]), {0: b"X"})


def test_pack_key_expands_to_own_unit():
    doc = doc_of(XsToken(PrefixKind.CHILD, "NAME", subst_key=0),
                 XsToken(PrefixKind.TEXT, "a"))
    data = pack(doc)
    assert data == bytes.fromhex("0300 030401 0A00FE 4E414D45 61")


def test_pack_empty_stream():
    # no string container, and an empty structure
    assert pack(doc_of()) == b"\x00\x00\x00"
    assert unpack(b"\x00\x00\x00").tokens == ()


def test_unpack_goldens():
    doc = unpack(bytes.fromhex("0300 010307 0F 584D4C 584D4C54455854"))
    assert doc.tokens == (XsToken(PrefixKind.CHILD, "XML"),
                          XsToken(PrefixKind.TEXT, "XMLTEXT"))
    doc = unpack(payload(bytes([0x09, 0x02]), {0: b"X"}))
    assert doc.tokens == (XsToken(PrefixKind.CHILD, "X", depth=2),)
    doc = unpack(bytes.fromhex("0300 030401 0A00FE 4E414D45 61"))
    assert doc.tokens == (XsToken(PrefixKind.CHILD, "NAME", subst_key=0),
                          XsToken(PrefixKind.TEXT, "a"))


def test_unpack_escaping_is_callers_choice():
    data = pack(doc_of(XsToken(PrefixKind.CHILD, "X")))
    assert unpack(data).escaping is EscapeMode.ENTITY
    assert unpack(data, EscapeMode.SENTINEL).escaping is EscapeMode.SENTINEL


def test_envelope_round_trip():
    doc = doc_of(XsToken(PrefixKind.CHILD, "X"),
                 XsToken(PrefixKind.TEXT, "hi"))
    data = pack_envelope(doc)
    assert data[:4] == b"XSB1"
    assert data[4] == 3
    assert data[5:] == pack(doc)
    assert unpack_envelope(data).tokens == doc.tokens


def test_envelope_bad_magic():
    with pytest.raises(BadMagic):
        unpack_envelope(b"NOPE\x01\x0e\x01\x58")
    with pytest.raises(BadMagic):
        unpack_envelope(b"")


def test_envelope_bad_version():
    # versions 1 and 2, each string body in the unit stream, are read no
    # more
    for version in (0, 1, 2, 4):
        with pytest.raises(BadVersion,
                           match=f"^unsupported format version {version}$"):
            unpack_envelope(b"XSB1" + bytes([version]) + b"\x0e\x01\x58")
    # two envelopes format version 1 wrote, every name a string: /r'a and
    # /list/item@id=1|item@id=2
    for data in ("58534231010f01720161",
                 "585342310100046c697374046974656d78026964013117046974656d02"
                 "69648e0132"):
        with pytest.raises(BadVersion, match="^unsupported format version 1$"):
            unpack_envelope(bytes.fromhex(data))


def test_envelope_truncated_before_version():
    with pytest.raises(Truncated):
        unpack_envelope(b"XSB1")


def test_index_units():
    # 0xB, 0xC and 0xD are a child, sibling or attribute name by index:
    # "X" is index 0 of the table, whatever the kind that wrote it
    for code, kind in ((0xB, PrefixKind.CHILD), (0xC, PrefixKind.SIBLING),
                       (0xD, PrefixKind.ATTR_NAME)):
        doc = doc_of(XsToken(PrefixKind.CHILD, "X"), XsToken(kind, "X"))
        data = payload(bytes([code, 0x00]), {0: b"X"})
        assert pack(doc) == data
        assert unpack(data) == doc
        # in either slot of its pair
        doc = doc_of(XsToken(PrefixKind.CHILD, "X"),
                     XsToken(PrefixKind.TEXT, "t"), XsToken(kind, "X"))
        data = payload(bytes([0x0F, code << 4 | 0xE, 0x00]),
                       {0: b"X", 1: b"t"})
        assert pack(doc) == data
        assert unpack(data) == doc


def test_index_units_take_markers():
    # a depth and a key follow an index unit as they follow a name unit
    doc = doc_of(XsToken(PrefixKind.CHILD, "ab"),
                 XsToken(PrefixKind.ATTR_NAME, "ab"),
                 XsToken(PrefixKind.SIBLING, "ab", depth=2, subst_key=300))
    data = pack(doc)
    assert data == payload(bytes.fromhex("0D 00 C9 00 02 AE AC02"),
                           {0: b"ab"})
    assert unpack(data) == doc
    # an attribute name takes no depth, by index or not
    with pytest.raises(StrayMarker, match="depth without an element"):
        unpack(payload(bytes([0x0D, 0x00, 0x9E, 0x01]), {0: b"X"}))


def test_index_past_the_table():
    with pytest.raises(BadNameIndex,
                       match="^name index 0 is past the table's 0 names$"):
        unpack(payload(bytes([0xBE, 0x00])))
    with pytest.raises(BadNameIndex, match="index 1 is past the table's 1"):
        unpack(payload(bytes([0x0C, 0x01]), {0: b"X"}))
    # an empty name is a key reference and never goes into the table
    with pytest.raises(BadNameIndex, match="index 0 is past the table's 0"):
        unpack(payload(bytes([0x0A, 0x05, 0xBE, 0x00]), {0: b""}))
    # at the 64-bit limit the index is read, and is past the table; one
    # bit more and the varint is malformed
    top = _varint(2 ** 64 - 1)
    with pytest.raises(BadNameIndex, match=f"index {2 ** 64 - 1} is past"):
        unpack(payload(b"\xde" + top))
    with pytest.raises(MalformedVarint, match="longer than 64 bits"):
        unpack(payload(b"\xde" + b"\xff" * 9 + b"\x02"))


def test_index_error_is_held_as_a_token_error():
    # held, so a byte-level error after it wins
    with pytest.raises(TrailingBytes):
        unpack(payload(bytes([0xBE, 0x00, 0x00])))
    with pytest.raises(TrailingBytes, match="strings past its units"):
        unpack(payload(bytes([0xBE, 0x00]), {1: b"t"}))
    # and an earlier token-level error comes first: a name that fails its
    # check goes into no table, so the index after it is past the table
    with pytest.raises(BadPayload, match="names must not contain whitespace"):
        unpack(payload(bytes([0x0B, 0x00]), {0: b"a b"}))


def test_index_is_written_only_where_shorter():
    # 128 names fill the one-byte indexes.  At index 128 an index takes
    # two bytes, as much as "a" and the NUL after it in container 0, so
    # its repeat stays a string; "ab" at 129 takes its index, and so does
    # "n5" at 5.  The string "a" is not tabled again, else "ab" would be
    # at 130
    names = [f"n{i}" for i in range(128)]
    doc = doc_of(*(XsToken(PrefixKind.CHILD, n)
                   for n in names + ["a", "a", "ab", "ab", "n5"]))
    data = pack(doc)
    assert split(data) == {
        STRUCTURE: bytes(65) + bytes.fromhex("0B 8101 BE 05"),
        0: "\0".join(names + ["a", "a", "ab"]).encode()}
    assert unpack(data) == doc


def test_repeated_name_utf8_cannot_hold_is_bad_payload():
    # the repeat of a lone surrogate at index 128 is priced by its
    # surrogatepass form and goes by index, and container 0's join refuses
    # its first occurrence as it refuses any payload UTF-8 cannot hold
    doc = XsDocument([XsToken(PrefixKind.CHILD, "r")]
                     + [XsToken(PrefixKind.ATTR_NAME, f"n{i}")
                        for i in range(127)]
                     + [XsToken(PrefixKind.CHILD, "\ud800"),
                        XsToken(PrefixKind.SIBLING, "\ud800")])
    for fn in (pack, pack_envelope):
        with pytest.raises(BadPayload, match="not encodable as UTF-8"):
            fn(doc)


def test_pad_in_high_nibble_rejected():
    for byte in (0xE0, 0xEE, 0xEB, 0xED):
        with pytest.raises(BadNibble,
                           match="pad may only fill the second slot"):
            unpack(payload(bytes([byte])))


def test_trailing_bytes_after_pad():
    with pytest.raises(TrailingBytes, match="after the pad code"):
        unpack(payload(bytes([0x0E, 0x00]), {0: b"X"}))


def test_truncated_inside_body():
    # the header states 3 bytes of names, and 2 are there
    with pytest.raises(Truncated, match="ends inside a container"):
        unpack(payload(b"\x0e", {0: b"XYZ"})[:-1])
    # pair byte alone, and no string for either unit
    with pytest.raises(Truncated, match="container ends before its units"):
        unpack(payload(bytes([0x0F])))
    # the input ends inside the header
    for data in (b"", b"\x01", b"\x01\x00", b"\x01\x00\x01"):
        with pytest.raises(Truncated):
            unpack(data)


def test_truncated_inside_varint():
    with pytest.raises(Truncated, match="inside a varint"):
        unpack(payload(b"\x9e" + b"\x80" * 9))
    # in the header too
    with pytest.raises(Truncated, match="inside a varint"):
        unpack(b"\x00\x00\x80")


def test_varint_over_64_bits():
    # eleven bytes, and ten whose last carries more than bit 63
    for units in (b"\x9e" + b"\x80" * 11, b"\x9e" + b"\xff" * 9 + b"\x02"):
        with pytest.raises(MalformedVarint, match="longer than 64 bits"):
            unpack(payload(units))


def test_pack_refuses_what_unpack_refuses():
    for field in ("depth", "subst_key"):
        # a negative value, which only columns built unchecked can hold,
        # would write 0xff bytes without end
        for value in (2 ** 64, -1):
            over = _unchecked([(PrefixKind.CHILD, "X",
                                *_marker(field, value))])
            with pytest.raises(MalformedVarint, match="does not fit in 64"):
                pack(over)
        top = XsToken(PrefixKind.CHILD, "X", **{field: 2 ** 64 - 1})
        assert unpack(pack(XsDocument([top]))).tokens == (top,)
    # NUL, which separates the strings of a container, in a payload that
    # only columns built unchecked can hold; version 2 wrote it, and
    # unpack and render refused it
    for kind, name in ((PrefixKind.TEXT, "r"), (PrefixKind.CHILD, "r"),
                       (PrefixKind.CHILD, "a\x00b")):
        nul = XsDocument.from_columns([PrefixKind.CHILD, kind],
                                      [name, "a\x00b"], [None, None],
                                      [None, None])
        for fn in (pack, pack_envelope):
            with pytest.raises(BadPayload,
                               match="^payload must not contain NUL$"):
                fn(nul)


def test_pack_error_order():
    # a marker past 64 bits raises where the unit loop meets it, ahead of
    # a bad payload before it; then the containers go by number: a NUL in
    # a name, container 0, ahead of a lone surrogate in text, container 1
    bad_text = (PrefixKind.TEXT, "a\ud800", None, None)
    over = _unchecked([(PrefixKind.CHILD, "X", None, None), bad_text,
                       (PrefixKind.CHILD, "Y", *_marker("depth", 2 ** 64))])
    with pytest.raises(MalformedVarint, match="does not fit in 64"):
        pack(over)
    nul_name = _unchecked([(PrefixKind.CHILD, "X", None, None), bad_text,
                           (PrefixKind.CHILD, "a\x00b", None, None)])
    with pytest.raises(BadPayload, match="^payload must not contain NUL$"):
        pack(nul_name)
    # within one container, a payload UTF-8 cannot hold wins
    both = _unchecked([(PrefixKind.CHILD, "X", None, None),
                       (PrefixKind.TEXT, "a\x00b", None, None), bad_text])
    with pytest.raises(BadPayload, match="not encodable as UTF-8"):
        pack(both)


def test_pack_refuses_a_payload_utf8_cannot_hold():
    # XsToken(...) accepts a lone surrogate, which has no UTF-8 form
    doc = XsDocument([XsToken(PrefixKind.CHILD, "X"),
                      XsToken(PrefixKind.TEXT, "a\ud800")])
    for fn in (pack, pack_envelope):
        with pytest.raises(BadPayload, match="not encodable as UTF-8"):
            fn(doc)


def test_pack_names_the_payload_utf8_cannot_hold():
    # in the words of that payload's own encode error, as version 2 wrote
    # them, and not the container's
    doc = XsDocument([XsToken(PrefixKind.CHILD, "X"),
                      XsToken(PrefixKind.TEXT, "abc"),
                      XsToken(PrefixKind.TEXT, "a\ud800")])
    with pytest.raises(BadPayload) as got:
        pack(doc)
    assert outcome(pack, doc) == outcome(v2.pack, doc)
    assert "in position 1: surrogates not allowed" in str(got.value)


def test_stray_depth_marker():
    # depth unit with nothing before it
    with pytest.raises(StrayMarker):
        unpack(payload(bytes([0x9E, 0x00])))
    # depth after a text unit
    with pytest.raises(StrayMarker):
        unpack(payload(bytes([0xF9, 0x05]), {1: b"a"}))
    # second depth on the same element
    with pytest.raises(StrayMarker):
        unpack(payload(bytes([0x09, 0x02, 0x9E, 0x03]), {0: b"X"}))


def test_stray_key_marker():
    with pytest.raises(StrayMarker):
        unpack(payload(bytes([0xAE, 0x00])))
    # second key on the same name
    with pytest.raises(StrayMarker):
        unpack(payload(bytes([0x0A, 0x00, 0xAE, 0x01]), {0: b"a"}))


def test_bad_payload_invalid_utf8():
    with pytest.raises(BadPayload, match="string body is not UTF-8"):
        unpack(payload(b"\x0e", {0: b"\xff"}))
    # a container is decoded whole, so a sequence cut by NUL is refused
    with pytest.raises(BadPayload, match="string body is not UTF-8"):
        unpack(payload(b"\xff", {1: "é".encode()[:1] + b"\0a"}))


def test_bad_payload_name_with_space():
    with pytest.raises(BadPayload):
        unpack(payload(b"\x0e", {0: b"a b"}))


def test_bad_payload_digits_only_name():
    with pytest.raises(BadPayload):
        unpack(payload(b"\x0e", {0: b"42"}))


@pytest.mark.parametrize("data, token", [
    (bytes([0x0E, 0x03]) + b"a b", (PrefixKind.CHILD, "a b")),
    (bytes([0x0E, 0x02]) + b"42", (PrefixKind.CHILD, "42")),
    (bytes([0x0E, 0x00]), (PrefixKind.CHILD, "")),
])
def test_bad_payload_says_what_the_constructor_says(data, token):
    # unpack reads input from outside: its tokens get every check of
    # XsToken(...), reported in the constructor's words.  data holds each
    # string body in place, as version 2 wrote it
    with pytest.raises(ValueError) as expected:
        XsToken(*token)
    with pytest.raises(BadPayload) as got:
        unpack(v3_of(data))
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# containers

def test_string_containers_by_kind():
    # each kind's strings go to its container, in unit order
    doc = doc_of(XsToken(PrefixKind.DTD, "d"),
                 XsToken(PrefixKind.CHILD, "r"),
                 XsToken(PrefixKind.ATTR_NAME, "a"),
                 XsToken(PrefixKind.ATTR_VALUE, "v"),
                 XsToken(PrefixKind.COMMENT, "c"),
                 XsToken(PrefixKind.PROC_INSTR, "p"),
                 XsToken(PrefixKind.CDATA, "x"),
                 XsToken(PrefixKind.TEXT, "t"),
                 XsToken(PrefixKind.TEXT_DUAL, "u"),
                 XsToken(PrefixKind.CHILD, "", subst_key=3))
    assert split(pack(doc)) == {
        STRUCTURE: bytes.fromhex("50 78 23 4F 60 AE 03"),
        0: b"r\0a\0", 1: b"t\0u", 2: b"v", 3: b"c", 4: b"p", 5: b"x",
        6: b"d"}


def test_container_deflated_only_where_shorter():
    text = "the quick brown fox " * 20  # 400 bytes, which deflate well
    doc = doc_of(XsToken(PrefixKind.CHILD, "r"),
                 XsToken(PrefixKind.TEXT, text))
    data = pack(doc)
    assert data[1] == 1 << 1  # the text container, and only it
    assert len(data) < 100
    assert split(data)[1] == text.encode()
    assert unpack(data) == doc
    # 256 bytes that do not: kept as they are
    rng = random.Random(7)
    noise = bytes(rng.randrange(1, 128) for _ in range(256))
    doc = doc_of(XsToken(PrefixKind.CHILD, "r"),
                 XsToken(PrefixKind.TEXT, noise.decode()))
    data = pack(doc)
    assert data[1] == 0
    assert data.endswith(noise)
    # and a short one is not tried
    doc = doc_of(XsToken(PrefixKind.CHILD, "r"),
                 XsToken(PrefixKind.TEXT, "ab" * 127))
    assert pack(doc)[1] == 0


def test_structure_deflated():
    doc = doc_of(XsToken(PrefixKind.CHILD, "r"),
                 *[XsToken(PrefixKind.CHILD, "", subst_key=5, depth=0)] * 200)
    data = pack(doc)
    assert data[1] == 1 << STRUCTURE
    assert unpack(data) == doc


def test_present_and_deflated_bits():
    with pytest.raises(BadContainer, match="past string container 6"):
        unpack(b"\x80\x00\x00")
    with pytest.raises(BadContainer, match="of an absent string container"):
        unpack(b"\x00\x01\x00")
    # a container that is there holds one string at least, the empty one
    assert unpack(payload(b"\xfe", {1: b""})).tokens == (
        XsToken(PrefixKind.TEXT, ""),)


def test_container_string_counts():
    # one string too few, and one too many
    with pytest.raises(Truncated, match="ends before its units do"):
        unpack(payload(b"\xff", {1: b"a"}))
    with pytest.raises(TrailingBytes, match="strings past its units"):
        unpack(payload(b"\xfe", {1: b"a\0b"}))
    # and bytes after the last container
    with pytest.raises(TrailingBytes, match="after the last container"):
        unpack(payload(b"\xfe", {1: b"a"}) + b"b")
    with pytest.raises(TrailingBytes, match="after the last container"):
        unpack(payload(b"\xfe", {1: b"a" * 300}, deflate=(1,)) + b"\0")


def test_corrupt_deflate_body():
    text = b"abc" * 100
    body = zlib.compress(text, 9, -15)
    assert deflated_text(300, body) == payload(b"\xfe", {1: text},
                                               deflate=(1,))
    unfinished = zlib.compressobj(9, zlib.DEFLATED, -15)
    unfinished = unfinished.compress(text) + unfinished.flush(
        zlib.Z_SYNC_FLUSH)
    for bad in (b"\xff" * len(body),  # no valid block
                body[:-2],  # cut short of its end
                unfinished,  # every byte, and no final block
                zlib.compress(text[3:], 9, -15),  # shorter than stated
                zlib.compress(text + b"abc", 9, -15),  # longer
                body + b"\0"):  # bytes after the stream's end
        with pytest.raises(BadContainer):
            unpack(deflated_text(300, bad))


def test_deflate_bomb_is_refused():
    # stored longer than the 1 000 bytes it states, refused from the
    # header; and stored shorter, refused once it passes them
    with pytest.raises(BadContainer, match="no shorter than its raw"):
        unpack(deflate_bomb())
    with pytest.raises(BadContainer, match="inflate to its stated length"):
        unpack(dense_bomb())
    # a raw length past the 1032 bytes deflate makes of each stored byte,
    # refused from the header; one at 2**63 or more is also past what zlib
    # takes as a length
    for raw in (1033, 2 ** 63, 2 ** 64 - 1):
        with pytest.raises(BadContainer, match="more than its stored"):
            unpack(deflated_text(raw, b"\x03"))
        with pytest.raises(BadContainer):
            unpack_envelope(MAGIC + bytes([VERSION])
                            + deflated_text(raw, b"\x03"))
    # and at the bound, read until the stream ends short of it
    with pytest.raises(BadContainer, match="inflate to its stated length"):
        unpack(deflated_text(1032, b"\x03"))


def test_dense_container_unpacks():
    # a megabyte run of one character at zlib's level 9, which makes more
    # than 1 000 bytes of each stored byte, within the bound, unpacks
    size = 1 << 20
    body = zlib.compress(b"a" * size, 9, -15)
    assert size > 1000 * len(body)
    got = unpack(deflated_text(size, body)).tokens
    assert got == (XsToken(PrefixKind.TEXT, "a" * size),)


def test_packed_table_is_smaller_than_zlib():
    # the record tables of the benchmark's wide workload's shape, keyed:
    # smaller packed than the XML at zlib's level 9
    for rows in (40, 450, 2000):
        xml = _table(rows)
        keyed = build_substitution(encode(parse_xml(xml)), 8)[1]
        assert len(pack_envelope(keyed)) < len(zlib.compress(xml.encode(),
                                                             9)), rows


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
            # the empty stream too, in each mode
            streams = [encode(doc, opts) for doc in docs]
            for xs in streams + [XsDocument([], escaping)]:
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
# pack and unpack against the version 2 oracle

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
    """unpack reads the version 3 twin of the version 2 payload data as
    the oracle reads data, a body that is not UTF-8 refused by class alone,
    since its offset is the container's; data that has no twin the oracle
    refuses."""
    want = outcome(v2.unpack, data)
    try:
        twin = v3_of(data)
    except ValueError:
        assert want[1] is not None, data
        return
    got = outcome(unpack, twin)
    if want[1] is not None and want[1][1].startswith("string body is not"):
        assert got[1][0] is BadPayload, (data, got)
        assert got[1][1].startswith("string body is not UTF-8"), (data, got)
    else:
        assert got == want, data


def _repeats_a_name(doc):
    names = [name for kind, name in zip(doc.kinds, doc.payloads)
             if kind in NAME_KINDS and name]
    return len(set(names)) < len(names)


# how much longer than version 2 pack may write a stream whose containers
# are each below 16 KB: the two bytes of present and deflated bits, and a
# length of two bytes at most for the structure and each string container,
# less the NUL it spares, where version 2 wrote a length per string.  Below
# 128 bytes each, 3
HEADER_BOUND = 2 + 2 + 7


def assert_packs_as_oracle(doc):
    """pack writes the containers v3_of makes of the oracle's bytes, at
    most HEADER_BOUND bytes more than it, or fails as the oracle does: on
    the same first marker past 64 bits, else on a payload UTF-8 cannot
    hold or one that holds NUL."""
    got, want = outcome(pack, doc), outcome(v2.pack, doc)
    if want[1] is not None:
        if want[1][0] is MalformedVarint:
            assert got == want, doc.tokens
        else:
            assert got[1][0] in (BadPayload, MalformedVarint), doc.tokens
    elif any(NUL in p for p in doc.payloads):
        assert got == (None, (BadPayload, "payload must not contain NUL"))
    else:
        assert got[1] is None, (doc.tokens, got)
        assert split(got[0]) == split(v3_of(want[0])), doc.tokens
        assert len(got[0]) <= len(want[0]) + HEADER_BOUND


def assert_packs_and_unpacks(doc):
    assert_packs_as_oracle(doc)
    assert unpack(pack(doc), doc.escaping) == doc
    # the oracle's bytes have a twin, which unpacks as they do
    assert_unpacks_as_oracle(v2.pack(doc))


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
        assert_packs_and_unpacks(xs)
        # below 128 bytes a container's length is one byte
        assert len(pack(xs)) <= len(v2.pack(xs)) + HEADER_BOUND
    # the corpus's names are random, but some repeat, and some containers
    # deflate
    assert any(map(_repeats_a_name, corpus_streams()))
    assert any(pack(xs)[1] for xs in corpus_streams())


# the pair bytes of names, markers, the pad and text; a continued varint
# byte, a byte of no UTF-8 sequence, short lengths and payload characters
_UNIT_BYTES = bytes([0x0E, 0x09, 0x0A, 0x7E, 0x9E, 0xAE, 0xFE, 0x00, 0x01,
                     0x02, 0x03, 0x80, 0xFF]) + b"a 1\t"
# the same with pair bytes of index units
_INDEX_UNIT_BYTES = _UNIT_BYTES + bytes([0xBE, 0xCE, 0xDE, 0x0B, 0x0C, 0x7D,
                                         0xB9, 0xBA, 0xDA])


def test_mutated_and_random_bytes_match_oracle():
    rng = random.Random(1414)
    blobs = [v2.pack(xs) for xs in corpus_streams()]
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
                    data[at] = rng.choice(_INDEX_UNIT_BYTES)
            if trial % 4 == 1:
                del data[rng.randrange(len(data) + 1):]
            data = bytes(data)
        assert_unpacks_as_oracle(data)


def _unpacks_or_raises(data):
    """unpack reads data or raises a PackError; what it reads packs and
    unpacks back."""
    try:
        doc = unpack(data)
    except PackError:
        return
    assert unpack(pack(doc)) == doc


def test_mutated_version_3_payloads_unpack_or_raise():
    # headers, structures and string containers, deflated or not
    rng = random.Random(3131)
    blobs = [pack(xs) for xs in corpus_streams()]
    deflated = [blob for blob in blobs if blob[1]]
    for trial in range(20000):
        data = bytearray(rng.choice(deflated if trial % 2 else blobs))
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(min(len(data), 12) if trial % 3 else len(data))
            data[at] = rng.randrange(256)
        if trial % 5 == 0:
            del data[rng.randrange(len(data) + 1):]
        _unpacks_or_raises(bytes(data))


@given(st.binary(max_size=40))
def test_random_bytes_match_oracle(data):
    assert_unpacks_as_oracle(data)
    _unpacks_or_raises(data)


@given(st.lists(st.sampled_from(list(_UNIT_BYTES)), max_size=24).map(bytes))
def test_unit_byte_strings_match_oracle(data):
    assert_unpacks_as_oracle(data)


@given(st.lists(st.sampled_from(list(_INDEX_UNIT_BYTES)),
                max_size=24).map(bytes))
def test_index_unit_byte_strings_unpack_or_raise(data):
    assert_unpacks_as_oracle(data)


@given(st.lists(st.sampled_from(list(_INDEX_UNIT_BYTES)),
                max_size=16).map(bytes),
       st.dictionaries(st.integers(0, 6), st.binary(max_size=8)
                       | st.sampled_from([b"a", b"", b"\0", b"a\0b", b"1"])),
       st.sets(st.integers(0, 7)))
def test_built_payloads_unpack_or_raise(units, boxes, deflate):
    # any structure, any containers, any of them deflated
    _unpacks_or_raises(payload(units, boxes, deflate & {7, *boxes}))


@given(_token_lists())
def test_generated_streams_match_oracle(tokens):
    assert_packs_and_unpacks(XsDocument(tokens))


# a few names, so that names repeat, one of them a multibyte character;
# text may hold a name too, which is never written by index
_FEW_NAMES = st.sampled_from(["a", "ID", "item", "CUSTOMER_RECORD", "é"])
# text long enough to be deflated
_LONG_TEXTS = st.builds(lambda word, n: word * n, _FEW_NAMES | _payloads,
                        st.integers(20, 300))


@st.composite
def _repeating_streams(draw):
    """A stream whose names often repeat, in either escape mode, keyed by
    build_substitution at a drawn threshold or not keyed."""
    tokens = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from([PrefixKind.CHILD, PrefixKind.SIBLING,
                                     PrefixKind.ATTR_NAME,
                                     PrefixKind.ATTR_VALUE, PrefixKind.TEXT]))
        if kind in NAME_KINDS:
            depth = None
            if kind is not PrefixKind.ATTR_NAME:
                depth = draw(st.one_of(st.none(), st.integers(0, 300)))
            tokens.append(XsToken(kind, draw(_FEW_NAMES | _names),
                                  depth=depth))
        else:
            tokens.append(XsToken(kind, draw(_FEW_NAMES | _payloads
                                             | _LONG_TEXTS)))
    doc = XsDocument(tokens, draw(st.sampled_from(list(EscapeMode))))
    threshold = draw(st.one_of(st.none(), st.integers(2, 8)))
    return doc if threshold is None else build_substitution(doc, threshold)[1]


@given(_repeating_streams())
def test_repeating_streams_pack_and_unpack(doc):
    assert_packs_and_unpacks(doc)


def _index_pays(index, name):
    """pack's rule for a repeated name at an index of 0x80 or more: the
    index's varint is shorter than the name's UTF-8 and the NUL after it
    in container 0."""
    return (index.bit_length() + 6) // 7 <= len(
        name.encode("utf-8", "surrogatepass"))


# indexes of every varint length from two bytes to ten, up to 2**64 - 1
_WIDE_INDEXES = st.integers(8, 64).flatmap(
    lambda bits: st.integers(1 << bits - 1, (1 << bits) - 1))
# names of one to four characters, each of one to four UTF-8 bytes, and
# names of 128 bytes or more
_SHORT_NAMES = st.text(st.sampled_from("aZ_.é߀中𝄞😀") | st.characters(),
                       min_size=1, max_size=4)
_LONG_NAMES = st.text(st.sampled_from("aé€𝄞"), min_size=40, max_size=80)


@given(_WIDE_INDEXES, _SHORT_NAMES | _LONG_NAMES)
def test_index_rule_decides_as_version_2s(index, name):
    # version 2 priced a string as a length varint and the bytes; below
    # 128 bytes that varint is one byte, as the NUL is, and from 128 up
    # both rules choose the index, which is ten bytes at most
    assert _index_pays(index, name) == v2._index_pays(index, name)


def _utf8(doc):
    """Whether UTF-8 can hold every payload of doc."""
    try:
        for p in doc.payloads:
            p.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@st.composite
def _many_name_streams(draw):
    """A stream of 128 or more distinct names, then drawn names, short,
    multibyte, holding a lone surrogate or 128 bytes long, which first come
    at index 128 or past it and then repeat, in either escape mode."""
    tokens = [XsToken(PrefixKind.CHILD, "r")]
    tokens += [XsToken(PrefixKind.ATTR_NAME, f"n{i}")
               for i in range(draw(st.integers(127, 140)))]
    names = draw(st.lists((_SHORT_NAMES | _LONG_NAMES).filter(
        lambda n: name_fault(n, None) is None), min_size=1, max_size=6,
        unique=True))
    if draw(st.booleans()):
        surrogates = st.sampled_from(["\ud800", "\udbff", "\udc00"])
        names.append(draw(st.text(surrogates, min_size=1, max_size=2)))
    for name in names + draw(st.lists(st.sampled_from(names), min_size=1,
                                      max_size=24)):
        tokens.append(XsToken(draw(st.sampled_from(NAME_KINDS)), name))
    return XsDocument(tokens, draw(st.sampled_from(list(EscapeMode))))


@given(_many_name_streams())
def test_names_past_index_127_pack_and_unpack(doc):
    # pack writes what unpack reads back as the stream, and what the
    # version 2 oracle writes, or refuses a name UTF-8 cannot hold
    if _utf8(doc):
        assert_packs_and_unpacks(doc)
    else:
        with pytest.raises(BadPayload, match="not encodable as UTF-8"):
            pack(doc)


@given(_repeating_streams())
def test_version_1_and_2_envelopes_are_refused(doc):
    # the version byte is refused before any payload byte is read, so a
    # version 2 payload stands in for version 1's
    for data, version in ((b"XSB1\x01" + v2.pack(doc), 1),
                          (v2.pack_envelope(doc), 2)):
        with pytest.raises(BadVersion,
                           match=f"^unsupported format version {version}$"):
            unpack_envelope(data)


_MARKER_VALUES = st.one_of(
    st.none(), st.integers(0, 300),
    st.sampled_from([-1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 70]))


@given(st.lists(st.tuples(st.sampled_from([PrefixKind.CHILD,
                                          PrefixKind.ATTR_NAME,
                                          PrefixKind.TEXT]),
                          st.text(max_size=200), _MARKER_VALUES,
                          _MARKER_VALUES), max_size=6))
def test_unchecked_streams_pack_as_oracle(fields):
    # unchecked columns may hold any depth or key, in or out of 64 bits,
    # and any name, which pack tables unchecked
    assert_packs_as_oracle(_unchecked(fields))


def test_out_of_range_markers_pack_as_oracle():
    for field in ("depth", "subst_key"):
        for value in (2 ** 64, -1, 2 ** 64 - 1, 0x7F, 0x80):
            # the marker unit in either slot of its pair, after a name
            # unit or after an index unit
            for lead in ([], [(PrefixKind.TEXT, "t", None, None)],
                         [(PrefixKind.CHILD, "X", None, None)]):
                doc = _unchecked(lead + [(PrefixKind.CHILD, "X",
                                          *_marker(field, value))])
                assert_packs_as_oracle(doc)


# ---------------------------------------------------------------------------
# cost guards, which count calls and read no clock

def keyed_corpus_streams():
    return [build_substitution(encode(doc, EncodeOptions(escaping=e)), 4)[1]
            for e in EscapeMode for doc in corpus()]


def test_unpack_makes_few_python_calls_per_token():
    # the body of each unit read where it lies, its fields written into
    # the stream's columns, and each distinct name checked once: about
    # 0.70 calls per token on these streams, where an XsToken built and
    # every name checked per token made 1.62, and a helper per unit and a
    # checked constructor per token 6.8
    blobs = [(pack(xs), xs.escaping) for xs in keyed_corpus_streams()]
    read = []
    calls = python_calls(lambda: [read.append(unpack(b, e)) for b, e in blobs])
    tokens = sum(len(doc.kinds) for doc in read)
    assert calls / tokens <= 0.9


def test_pack_makes_few_python_calls_per_token():
    # every unit written inline, a call only for a varint of two bytes or
    # more: about 0.05 calls per token, where a list of unit tuples and a
    # helper per unit made 3.25
    streams = keyed_corpus_streams()
    calls = python_calls(lambda: [pack(xs) for xs in streams])
    tokens = sum(len(xs.tokens) for xs in streams)
    assert calls / tokens <= 2.5
