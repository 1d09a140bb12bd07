"""The reader and writer of format version 1, which expand a stream into
unit tuples, kept as a reference.

Format version 2's one-pass pack and unpack replaced them, and version 3
replaced those in turn (see binary_v2_oracle.py, which takes its varint
helpers from here); test_binary.py packs version 1 envelopes to check
that they are refused.  Version 1 writes every name as a string: the codes
0xB, 0xC and 0xD, version 2's names by index, are not assigned in it, and
the envelope's version byte is 1.  pack lists every unit as a (code,
value) tuple before writing pairs, and unpack reads each body through a
helper call, then builds each token with the checked XsToken
constructor.  The error classes
are the module's own, so outcomes compare by class and message.
"""

from __future__ import annotations

from xstring.binary import (BadMagic, BadNibble, BadPayload, BadVersion,
                            MalformedVarint, StrayMarker, TrailingBytes,
                            Truncated)
from xstring.grammar import EscapeMode, PrefixKind, XsDocument, XsToken

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
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}
_NAME_CODES = (_CHILD, _SIBLING, _ATTR_NAME)


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


def _expand(tokens: list[XsToken]) -> list[tuple[int, object]]:
    units: list[tuple[int, object]] = []
    for tok in tokens:
        units.append((_KIND_TO_CODE[tok.kind], tok.payload))
        if tok.depth is not None:
            units.append((_DEPTH, tok.depth))
        if tok.subst_key is not None:
            units.append((_SUBST_KEY, tok.subst_key))
    return units


def _write_body(code: int, value: object, out: bytearray) -> None:
    if code in (_DEPTH, _SUBST_KEY):
        if value >> 64:  # also true of a negative value
            raise MalformedVarint(f"{value} does not fit in 64 bits")
        _write_varint(value, out)
    elif code != _PAD:
        raw = value.encode("utf-8")
        _write_varint(len(raw), out)
        out.extend(raw)


def oracle_pack(doc: XsDocument) -> bytes:
    """Pack a stream into the bare binary payload."""
    units = _expand(doc.tokens)
    if len(units) % 2:
        units.append((_PAD, None))
    out = bytearray()
    for i in range(0, len(units), 2):
        (hi, hv), (lo, lv) = units[i], units[i + 1]
        out.append(hi << 4 | lo)
        _write_body(hi, hv, out)
        _write_body(lo, lv, out)
    return bytes(out)


def _read_body(code: int, data: bytes, pos: int) -> tuple[object, int]:
    if code in (_DEPTH, _SUBST_KEY):
        return _read_varint(data, pos)
    length, pos = _read_varint(data, pos)
    if pos + length > len(data):
        raise Truncated("input ends inside a string body")
    try:
        text = data[pos:pos + length].decode("utf-8")
    except UnicodeDecodeError as err:
        raise BadPayload(f"string body is not UTF-8: {err}") from None
    return text, pos + length


def _make_token(kind: PrefixKind, payload: str, depth, key) -> XsToken:
    try:
        return XsToken(kind, payload, depth=depth, subst_key=key)
    except ValueError as err:
        raise BadPayload(str(err)) from None


def oracle_unpack(data: bytes,
                  escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Rebuild a stream from the bare binary payload.

    Any byte sequence either unpacks or raises a PackError subclass.
    """
    units: list[tuple[int, object]] = []
    pos = 0
    while pos < len(data):
        byte = data[pos]
        pos += 1
        hi, lo = byte >> 4, byte & 0xF
        for nib in (hi, lo):
            if nib in (0xB, 0xC, 0xD):
                raise BadNibble(f"code {nib:#x} is not assigned")
        if hi == _PAD:
            raise BadNibble("pad may only fill the second slot of a pair")
        value, pos = _read_body(hi, data, pos)
        units.append((hi, value))
        if lo == _PAD:
            if pos != len(data):
                raise TrailingBytes("data continues after the pad code")
        else:
            value, pos = _read_body(lo, data, pos)
            units.append((lo, value))

    tokens: list[XsToken] = []
    pending: list | None = None

    def flush() -> None:
        nonlocal pending
        if pending is not None:
            tokens.append(_make_token(*pending))
            pending = None

    for code, value in units:
        if code == _DEPTH:
            if (pending is None or pending[0] not in (PrefixKind.CHILD,
                                                      PrefixKind.SIBLING)
                    or pending[2] is not None):
                raise StrayMarker("depth without an element to attach to")
            pending[2] = value
        elif code == _SUBST_KEY:
            if pending is None or pending[3] is not None:
                raise StrayMarker("key without a name to attach to")
            pending[3] = value
        elif code in _NAME_CODES:
            flush()
            pending = [_CODE_TO_KIND[code], value, None, None]
        else:
            flush()
            tokens.append(_make_token(_CODE_TO_KIND[code], value, None, None))
    flush()
    return XsDocument(tokens, escaping)


def oracle_pack_envelope(doc: XsDocument) -> bytes:
    """Pack with the XSB1 magic and a version byte up front."""
    return MAGIC + bytes([VERSION]) + oracle_pack(doc)


def oracle_unpack_envelope(
        data: bytes, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    if data[:4] != MAGIC:
        raise BadMagic("missing XSB1 magic")
    if len(data) < 5:
        raise Truncated("input ends before the version byte")
    if data[4] != VERSION:
        raise BadVersion(f"unsupported format version {data[4]}")
    return oracle_unpack(data[5:], escaping)
