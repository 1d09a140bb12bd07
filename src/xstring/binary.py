"""Nibble-packed binary form of a token stream.

Each token expands to one or more units: a unit is a four-bit code plus an
optional body.  Units are consumed two at a time; every pair contributes
one byte holding both codes (first unit in the high nibble) followed by the
two bodies.  String bodies are a varint length and that many UTF-8 bytes;
depth and key bodies are a bare varint, and a varint holds at most 64
bits.  An odd unit count is completed with the bodiless pad code in the
low nibble of the last pair byte.

pack writes each unit where it meets it: the first unit of a pair appends
its pair byte with the low nibble still open and its body; the second sets
that nibble and appends its own body.  A value below 0x80 is its own
one-byte varint and is appended as it is.

unpack reads in two loops.  The first reads the units into a list of codes
and a list of values, each body where it is read: a varint below 0x80 is
one byte, a longer one goes to _read_varint, and a string body is sliced
and decoded in place.  The second builds the tokens with XsToken.unchecked
and applies, as BadPayload, the constructor's checks that a unit stream
can fail.  So every byte-level error (BadNibble, TrailingBytes, Truncated,
MalformedVarint, a body that is not UTF-8) anywhere in the input wins over
every token-level error (StrayMarker, a failed check), and token-level
errors come in unit order: a name is checked when the next unit that is not
a marker, or the end, arrives, since a marker may still give it a key.

pack and unpack work on the bare payload; pack_envelope and
unpack_envelope add and check the magic and format version.
"""

from __future__ import annotations

from .errors import XStringError
from .grammar import (NUL, EscapeMode, PrefixKind, XsDocument, XsToken,
                      name_fault)

MAGIC = b"XSB1"
VERSION = 1

_CHILD = 0x0
_SIBLING = 0x1
_COMMENT = 0x2
_PROC_INSTR = 0x3
_CDATA = 0x4
_DTD = 0x5
_TEXT_DUAL = 0x6
_ATTR_NAME = 0x7
_ATTR_VALUE = 0x8
_DEPTH = 0x9
_SUBST_KEY = 0xA
_PAD = 0xE
_TEXT = 0xF

_KIND_TO_CODE = {
    PrefixKind.CHILD: _CHILD,
    PrefixKind.SIBLING: _SIBLING,
    PrefixKind.COMMENT: _COMMENT,
    PrefixKind.PROC_INSTR: _PROC_INSTR,
    PrefixKind.CDATA: _CDATA,
    PrefixKind.DTD: _DTD,
    PrefixKind.TEXT_DUAL: _TEXT_DUAL,
    PrefixKind.ATTR_NAME: _ATTR_NAME,
    PrefixKind.ATTR_VALUE: _ATTR_VALUE,
    PrefixKind.TEXT: _TEXT,
}
# pack looks codes up by the prefix character: a lookup by the member
# would call Enum.__hash__, a Python function, for every token
_CHAR_TO_CODE = {k.value: code for k, code in _KIND_TO_CODE.items()}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}
_NAME_CODES = (_CHILD, _SIBLING, _ATTR_NAME)
_UNASSIGNED = (0xB, 0xC, 0xD)
# the pair bytes unpack refuses: an unassigned code in either nibble, or
# the pad in the high one
_BAD_PAIR = bytes(hi in _UNASSIGNED or lo in _UNASSIGNED or hi == _PAD
                  for hi in range(16) for lo in range(16))


class PackError(XStringError):
    pass


class BadMagic(PackError):
    pass


class BadVersion(PackError):
    pass


class Truncated(PackError):
    pass


class BadNibble(PackError):
    pass


class MalformedVarint(PackError):
    pass


class StrayMarker(PackError):
    pass


class TrailingBytes(PackError):
    pass


class BadPayload(PackError):
    pass


def _write_varint(value: int, out: bytearray) -> None:
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise Truncated("input ends inside a varint")
        if shift > 63:
            raise MalformedVarint("varint is longer than 64 bits")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            if value >> 64:  # a tenth byte carries bit 63 alone
                raise MalformedVarint("varint is longer than 64 bits")
            return value, pos
        shift += 7


def pack(doc: XsDocument) -> bytes:
    """Pack a stream into the bare binary payload."""
    out = bytearray()
    held = -1  # where the pair byte waiting for its low unit sits
    for tok in doc.tokens:
        code = _CHAR_TO_CODE[tok.kind._value_]
        if held < 0:
            held = len(out)
            out.append(code << 4)
        else:
            out[held] |= code
            held = -1
        try:
            raw = tok.payload.encode("utf-8")
        except UnicodeEncodeError as err:  # a lone surrogate
            raise BadPayload(
                f"payload is not encodable as UTF-8: {err}") from None
        if len(raw) < 0x80:
            out.append(len(raw))
        else:
            _write_varint(len(raw), out)
        out += raw
        if tok.depth is None and tok.subst_key is None:
            continue
        for code, value in ((_DEPTH, tok.depth), (_SUBST_KEY, tok.subst_key)):
            if value is None:
                continue
            if held < 0:
                held = len(out)
                out.append(code << 4)
            else:
                out[held] |= code
                held = -1
            if value >> 64:  # also true of a negative value
                raise MalformedVarint(f"{value} does not fit in 64 bits")
            if value < 0x80:
                out.append(value)
            else:
                _write_varint(value, out)
    if held >= 0:
        out[held] |= _PAD
    return bytes(out)


def _bad_pair(byte: int) -> BadNibble:
    for code in (byte >> 4, byte & 0xF):
        if code in _UNASSIGNED:
            return BadNibble(f"code {code:#x} is not assigned")
    return BadNibble("pad may only fill the second slot of a pair")


def unpack(data: bytes, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Rebuild a stream from the bare binary payload.

    Any byte sequence either unpacks or raises a PackError subclass.
    """
    codes: list[int] = []
    values: list = []
    add_code, add_value = codes.append, values.append
    end = len(data)
    pos = 0
    low = None  # the code in the low nibble of the pair being read
    while True:
        if low is None:
            if pos == end:
                break
            byte = data[pos]
            if _BAD_PAIR[byte]:
                raise _bad_pair(byte)
            pos += 1
            code, low = byte >> 4, byte & 0xF
        elif low == _PAD:
            if pos != end:
                raise TrailingBytes("data continues after the pad code")
            break
        else:
            code, low = low, None
        if pos < end and data[pos] < 0x80:
            value = data[pos]
            pos += 1
        else:
            value, pos = _read_varint(data, pos)
        if code != _DEPTH and code != _SUBST_KEY:
            stop = pos + value
            if stop > end:
                raise Truncated("input ends inside a string body")
            try:
                value = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError as err:
                raise BadPayload(f"string body is not UTF-8: {err}") from None
            pos = stop
        add_code(code)
        add_value(value)
    # the end stands in for one more unit, so the last name gets checked
    add_code(_PAD)
    add_value(None)

    # The checks of XsToken(...) that a unit stream can fail, in its words.
    # No code maps to a marker kind, a misplaced depth or key is a
    # StrayMarker, and a varint is never negative, so no other can fail.
    tokens: list[XsToken] = []
    add, new = tokens.append, XsToken.unchecked
    name = None  # the last name token while markers may still follow it
    for code, value in zip(codes, values):
        if code == _DEPTH:
            if name is None or name.kind is PrefixKind.ATTR_NAME or (
                    name.depth is not None):
                raise StrayMarker("depth without an element to attach to")
            name.depth = value
            continue
        if code == _SUBST_KEY:
            if name is None or name.subst_key is not None:
                raise StrayMarker("key without a name to attach to")
            name.subst_key = value
            continue
        if name is not None:
            fault = name_fault(name.payload, name.subst_key)
            if fault is not None:
                raise BadPayload(fault)
            name = None
        if code == _PAD:
            break
        tok = new(_CODE_TO_KIND[code], value)
        add(tok)
        if code in _NAME_CODES:
            name = tok
        elif NUL in value:
            raise BadPayload("payload must not contain NUL")
    return XsDocument(tokens, escaping)


def pack_envelope(doc: XsDocument) -> bytes:
    """Pack with the XSB1 magic and a version byte up front."""
    return MAGIC + bytes([VERSION]) + pack(doc)


def unpack_envelope(data: bytes,
                    escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    if data[:4] != MAGIC:
        raise BadMagic("missing XSB1 magic")
    if len(data) < 5:
        raise Truncated("input ends before the version byte")
    if data[4] != VERSION:
        raise BadVersion(f"unsupported format version {data[4]}")
    return unpack(data[5:], escaping)
