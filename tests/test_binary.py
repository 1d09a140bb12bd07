"""Tests for the nibble-packed binary form.

The one-pass pack and unpack are compared with the format version 1
reader and writer they replaced, kept in binary_oracle.py, which writes
every name as a string and knows no index unit.  unpack reads every byte
string as the oracle does, the same tokens or the same error class and
message, unless the oracle stops at an index code.  pack writes no more
bytes than the oracle, the same bytes when no non-empty name repeats, and
fails as it does.
"""

import functools
import random

import pytest
from hypothesis import given, strategies as st

from xstring.binary import (
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
from xstring.grammar import (NAME_KINDS, EscapeMode, PrefixKind, XsDocument,
                             XsToken)
from xstring.transforms import build_substitution

from binary_oracle import oracle_pack, oracle_unpack
from corpus import corpus
from steps import python_calls
from test_grammar import _names, _payloads, _token_lists


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
    assert unpack(b"").tokens == ()


def test_unpack_goldens():
    doc = unpack(bytes.fromhex("0F03584D4C07584D4C54455854"))
    assert doc.tokens == (XsToken(PrefixKind.CHILD, "XML"),
                          XsToken(PrefixKind.TEXT, "XMLTEXT"))
    doc = unpack(bytes([0x09, 0x01, 0x58, 0x02]))
    assert doc.tokens == (XsToken(PrefixKind.CHILD, "X", depth=2),)
    doc = unpack(bytes.fromhex("0A044E414D4500FE0161"))
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
    assert data[4] == 2
    assert data[5:] == pack(doc)
    assert unpack_envelope(data).tokens == doc.tokens


def test_envelope_bad_magic():
    with pytest.raises(BadMagic):
        unpack_envelope(b"NOPE\x01\x0e\x01\x58")
    with pytest.raises(BadMagic):
        unpack_envelope(b"")


def test_envelope_bad_version():
    # version 1, every name a string, is read no more
    for version in (0, 1, 3):
        with pytest.raises(BadVersion,
                           match=f"^unsupported format version {version}$"):
            unpack_envelope(b"XSB1" + bytes([version]) + b"\x0e\x01\x58")


def test_envelope_truncated_before_version():
    with pytest.raises(Truncated):
        unpack_envelope(b"XSB1")


def test_index_units():
    # 0xB, 0xC and 0xD are a child, sibling or attribute name by index:
    # "X" is index 0 of the table, whatever the kind that wrote it
    for code, kind in ((0xB, PrefixKind.CHILD), (0xC, PrefixKind.SIBLING),
                       (0xD, PrefixKind.ATTR_NAME)):
        doc = doc_of(XsToken(PrefixKind.CHILD, "X"), XsToken(kind, "X"))
        data = bytes([code, 0x01, 0x58, 0x00])
        assert pack(doc) == data
        assert unpack(data) == doc
        # in either slot of its pair
        doc = doc_of(XsToken(PrefixKind.CHILD, "X"),
                     XsToken(PrefixKind.TEXT, "t"), XsToken(kind, "X"))
        data = bytes([0x0F, 0x01, 0x58, 0x01, 0x74, code << 4 | 0xE, 0x00])
        assert pack(doc) == data
        assert unpack(data) == doc


def test_index_units_take_markers():
    # a depth and a key follow an index unit as they follow a name unit
    doc = doc_of(XsToken(PrefixKind.CHILD, "ab"),
                 XsToken(PrefixKind.ATTR_NAME, "ab"),
                 XsToken(PrefixKind.SIBLING, "ab", depth=2, subst_key=300))
    data = pack(doc)
    assert data == bytes.fromhex("0D 026162 00 C9 00 02 AE AC02")
    assert unpack(data) == doc
    # an attribute name takes no depth, by index or not
    with pytest.raises(StrayMarker, match="depth without an element"):
        unpack(bytes([0x0D, 0x01, 0x58, 0x00, 0x9E, 0x01]))


def test_index_past_the_table():
    with pytest.raises(BadNameIndex,
                       match="^name index 0 is past the table's 0 names$"):
        unpack(bytes([0xBE, 0x00]))
    with pytest.raises(BadNameIndex, match="index 1 is past the table's 1"):
        unpack(bytes([0x0C, 0x01, 0x58, 0x01]))
    # an empty name is a key reference and never goes into the table
    with pytest.raises(BadNameIndex, match="index 0 is past the table's 0"):
        unpack(bytes([0x0A, 0x00, 0x05, 0xBE, 0x00]))
    # at the 64-bit limit the index is read, and is past the table; one
    # bit more and the varint is malformed
    top = bytearray()
    _write_varint(2 ** 64 - 1, top)
    with pytest.raises(BadNameIndex, match=f"index {2 ** 64 - 1} is past"):
        unpack(b"\xde" + top)
    with pytest.raises(MalformedVarint, match="longer than 64 bits"):
        unpack(b"\xde" + b"\xff" * 9 + b"\x02")


def test_index_error_is_held_as_a_token_error():
    # held, so a byte-level error after it wins
    with pytest.raises(TrailingBytes):
        unpack(bytes([0xBE, 0x00, 0x00]))
    # and an earlier token-level error comes first: a name that fails its
    # check goes into no table, so the index after it is past the table
    with pytest.raises(BadPayload, match="names must not contain whitespace"):
        unpack(bytes([0x0B, 0x03]) + b"a b" + bytes([0x00]))


def test_index_is_written_only_where_shorter():
    # 128 names fill the one-byte indexes.  At index 128 an index takes
    # two bytes, as much as the string body of the one-byte name "a", so
    # its repeat stays a string; "ab" at 129 takes its index, and so does
    # "n5" at 5.  The string "a" is not tabled again, else "ab" would be
    # at 130
    names = [f"n{i}" for i in range(128)]
    doc = doc_of(*(XsToken(PrefixKind.CHILD, n)
                   for n in names + ["a", "a", "ab", "ab", "n5"]))
    data = pack(doc)
    assert data == oracle_pack(doc_of(*doc.tokens[:128])) + bytes.fromhex(
        "00 0161 0161 0B 026162 8101 BE 05")
    assert len(data) == len(oracle_pack(doc)) - 3
    assert unpack(data) == doc


def test_pad_in_high_nibble_rejected():
    for byte in (0xE0, 0xEE, 0xEB, 0xED):
        with pytest.raises(BadNibble,
                           match="pad may only fill the second slot"):
            unpack(bytes([byte]))


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
        # a negative value, which only columns built unchecked can hold,
        # would write 0xff bytes without end
        for value in (2 ** 64, -1):
            over = _unchecked([(PrefixKind.CHILD, "X",
                                *_marker(field, value))])
            with pytest.raises(MalformedVarint, match="does not fit in 64"):
                pack(over)
        top = XsToken(PrefixKind.CHILD, "X", **{field: 2 ** 64 - 1})
        assert unpack(pack(XsDocument([top]))).tokens == (top,)


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


def _meets_index_code(result):
    """Whether the oracle's result is its refusal of an index code."""
    return result[1] is not None and result[1][0] is BadNibble and (
        result[1][1].endswith("is not assigned"))


def assert_unpacks_as_oracle(data):
    """unpack reads data as the oracle does, up to an index code; where the
    oracle meets one first, data unpacks or raises a PackError, and what
    it unpacks to packs and unpacks back."""
    got, want = outcome(unpack, data), outcome(oracle_unpack, data)
    if not _meets_index_code(want):
        assert got == want, data
    elif got[1] is not None:
        assert issubclass(got[1][0], PackError), (data, got)
    else:
        doc = unpack(data)
        assert unpack(pack(doc)) == doc, data


def _repeats_a_name(doc):
    names = [name for kind, name in zip(doc.kinds, doc.payloads)
             if kind in NAME_KINDS and name]
    return len(set(names)) < len(names)


def assert_packs_as_oracle(doc):
    """pack fails as the oracle does, or writes its bytes when no
    non-empty name repeats, and fewer bytes when one does (in these
    streams every name's index is a byte)."""
    got, want = outcome(pack, doc), outcome(oracle_pack, doc)
    if want[1] is not None or not _repeats_a_name(doc):
        assert got == want, doc.tokens
    else:
        assert got[1] is None and len(got[0]) < len(want[0]), doc.tokens


def assert_packs_and_unpacks(doc):
    assert_packs_as_oracle(doc)
    assert unpack(pack(doc), doc.escaping) == doc
    # the oracle's bytes hold no index unit, and unpack reads them
    assert_unpacks_as_oracle(oracle_pack(doc))


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
    # the corpus's names are random, but some repeat
    assert any(map(_repeats_a_name, corpus_streams()))


# the pair bytes of names, markers, the pad and text; a continued varint
# byte, a byte of no UTF-8 sequence, short lengths and payload characters
_UNIT_BYTES = bytes([0x0E, 0x09, 0x0A, 0x7E, 0x9E, 0xAE, 0xFE, 0x00, 0x01,
                     0x02, 0x03, 0x80, 0xFF]) + b"a 1\t"
# the same with pair bytes of index units
_INDEX_UNIT_BYTES = _UNIT_BYTES + bytes([0xBE, 0xCE, 0xDE, 0x0B, 0x0C, 0x7D,
                                         0xB9, 0xBA, 0xDA])


def test_mutated_and_random_bytes_match_oracle():
    rng = random.Random(1414)
    # packed with and without index units
    blobs = [fn(xs) for xs in corpus_streams() for fn in (pack, oracle_pack)]
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


@given(st.binary(max_size=40))
def test_random_bytes_match_oracle(data):
    assert_unpacks_as_oracle(data)


@given(st.lists(st.sampled_from(list(_UNIT_BYTES)), max_size=24).map(bytes))
def test_unit_byte_strings_match_oracle(data):
    assert_unpacks_as_oracle(data)


@given(st.lists(st.sampled_from(list(_INDEX_UNIT_BYTES)),
                max_size=24).map(bytes))
def test_index_unit_byte_strings_unpack_or_raise(data):
    assert_unpacks_as_oracle(data)


@given(_token_lists())
def test_generated_streams_match_oracle(tokens):
    assert_packs_and_unpacks(XsDocument(tokens))


# a few names, so that names repeat, one of them a multibyte character;
# text may hold a name too, which is never written by index
_FEW_NAMES = st.sampled_from(["a", "ID", "item", "CUSTOMER_RECORD", "\u00e9"])


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
            tokens.append(XsToken(kind, draw(_FEW_NAMES | _payloads)))
    doc = XsDocument(tokens, draw(st.sampled_from(list(EscapeMode))))
    threshold = draw(st.one_of(st.none(), st.integers(2, 8)))
    return doc if threshold is None else build_substitution(doc, threshold)[1]


@given(_repeating_streams())
def test_repeating_streams_pack_and_unpack(doc):
    assert_packs_and_unpacks(doc)


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
    # 0.67 calls per token on these streams, where an XsToken built and
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
