"""The reader and writer of format version 2, kept as a reference.

Version 3 replaced them in the binary module; test_binary.py compares the
two.  Version 2 is the unit stream alone, each string unit's body in
place: a varint length and that many UTF-8 bytes, a name by index as in
version 3.  Its unpack reads each unit where it meets it and holds the
first token-level error until the last byte, as version 3's does, and
refuses a non-name payload that holds NUL; its pack writes one.  The
envelope's version byte is 2.  The error classes are the binary module's
own, so outcomes compare by class and message.  The varint helpers are
this module's own, so that the reference takes nothing from the code it
checks; version 3 did not change the varint.
"""

from __future__ import annotations

from xstring.binary import (BadMagic, BadNameIndex, BadNibble, BadPayload,
                            BadVersion, MalformedVarint, StrayMarker,
                            TrailingBytes, Truncated)
from xstring.grammar import NUL, EscapeMode, PrefixKind, XsDocument, name_fault

MAGIC = b"XSB1"
VERSION = 2

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
_CHILD_INDEX = 0xB
_SIBLING_INDEX = 0xC
_ATTR_NAME_INDEX = 0xD
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
# each name code's code for the same name by index
_INDEX_CODE = {_CHILD: _CHILD_INDEX, _SIBLING: _SIBLING_INDEX,
               _ATTR_NAME: _ATTR_NAME_INDEX}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()} | {
    _CHILD_INDEX: PrefixKind.CHILD, _SIBLING_INDEX: PrefixKind.SIBLING,
    _ATTR_NAME_INDEX: PrefixKind.ATTR_NAME}


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


def _index_pays(index: int, name: str) -> bool:
    """Whether the varint of index, above zero, is shorter than the string
    body of name, which is not empty."""
    size = len(name.encode("utf-8"))
    return (index.bit_length() + 6) // 7 < (size.bit_length() + 6) // 7 + size


def pack(doc: XsDocument) -> bytes:
    """Pack a stream into the bare binary payload."""
    out = bytearray()
    held = -1  # where the pair byte waiting for its low unit sits
    table: dict[str, int] = {}  # each name written as a string: its index
    for kind, payload, depth, key in zip(doc.kinds, doc.payloads, doc.depths,
                                         doc.keys):
        code = _KIND_TO_CODE[kind]
        index = None
        if code in _INDEX_CODE:
            if payload in table:
                index = table[payload]
                # below 0x80 the index is one byte and the string two or more
                if index < 0x80 or _index_pays(index, payload):
                    code = _INDEX_CODE[code]
                else:
                    index = None
            elif payload:
                table[payload] = len(table)
        if held < 0:
            held = len(out)
            out.append(code << 4)
        else:
            out[held] |= code
            held = -1
        if index is not None:
            # here, for the length and for a marker, a value below 0x80 is
            # appended as its own varint: through _write_varint, pack took
            # 1.26x as long on the wide benchmark workload's stream
            if index < 0x80:
                out.append(index)
            else:
                _write_varint(index, out)
        else:
            try:
                raw = payload.encode("utf-8")
            except UnicodeEncodeError as err:  # a lone surrogate
                raise BadPayload(
                    f"payload is not encodable as UTF-8: {err}") from None
            if len(raw) < 0x80:
                out.append(len(raw))
            else:
                _write_varint(len(raw), out)
            out += raw
        if depth is None and key is None:
            continue
        for code, value in ((_DEPTH, depth), (_SUBST_KEY, key)):
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


def unpack(data: bytes, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Rebuild a stream from the bare binary payload.

    Any byte sequence either unpacks or raises a PackError subclass.
    """
    # built first, so that an escaping that is no EscapeMode fails before
    # any byte is read
    doc = XsDocument.from_columns([], [], [], [], escaping)
    kinds, payloads = doc.kinds, doc.payloads
    depths, keys = doc.depths, doc.keys
    add_kind, add_payload = kinds.append, payloads.append
    add_depth, add_key = depths.append, keys.append
    # The checks of XsToken(...) that a unit stream can fail, in its words.
    # No code maps to a marker kind, a misplaced depth or key is a
    # StrayMarker, and a varint is never negative, so no other can fail.
    name = -1  # the last name token's column while markers may follow it
    passed: set[str] = set()  # the names name_fault has passed
    table: list[str] = []  # the same names, in the order they passed
    fault = None  # the first token-level error, raised after the last byte
    end = len(data)
    pos = 0
    low = None  # the code in the low nibble of the pair being read
    while True:
        if low is None and pos < end:
            byte = data[pos]
            code, low = byte >> 4, byte & 0xF
            if code == _PAD:
                raise BadNibble("pad may only fill the second slot of a pair")
            pos += 1
        elif low is None or low == _PAD:
            # the end, where a pad must sit, is read as a pad unit
            if pos != end:
                raise TrailingBytes("data continues after the pad code")
            code = _PAD
        else:
            code, low = low, None
        if code != _DEPTH and code != _SUBST_KEY:
            # no marker can follow the last name any more
            if name >= 0:
                # a name's check depends on its key only when it is empty,
                # and a bare key reference passes it
                payload = payloads[name]
                if payload not in passed and (payload or keys[name] is None):
                    error = name_fault(payload, keys[name])
                    if error is not None:
                        fault = fault or BadPayload(error)
                    elif payload:
                        passed.add(payload)
                        table.append(payload)
                name = -1
            if code == _PAD:
                break
        # a one-byte varint read in place: through _read_varint, unpack
        # took 1.41x as long on the corpus benchmark workload's streams and
        # 1.42x on wide's
        if pos < end and data[pos] < 0x80:
            value = data[pos]
            pos += 1
        else:
            value, pos = _read_varint(data, pos)
        if code > _ATTR_VALUE and code != _TEXT:
            if code == _DEPTH:
                if name < 0 or kinds[name] is PrefixKind.ATTR_NAME or (
                        depths[name] is not None):
                    fault = fault or StrayMarker(
                        "depth without an element to attach to")
                else:
                    depths[name] = value
                continue
            if code == _SUBST_KEY:
                if name < 0 or keys[name] is not None:
                    fault = fault or StrayMarker(
                        "key without a name to attach to")
                else:
                    keys[name] = value
                continue
            # a name by index; one past the table is held as a stray
            # marker is, with an empty name in its place
            if value < len(table):
                value = table[value]
            else:
                fault = fault or BadNameIndex(
                    f"name index {value} is past the table's {len(table)}"
                    " names")
                value = ""
            name = len(kinds)
        else:
            stop = pos + value
            if stop > end:
                raise Truncated("input ends inside a string body")
            try:
                value = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError as err:
                raise BadPayload(f"string body is not UTF-8: {err}") from None
            pos = stop
            if code in _INDEX_CODE:  # a name
                name = len(kinds)
            elif NUL in value:
                fault = fault or BadPayload("payload must not contain NUL")
        add_kind(_CODE_TO_KIND[code])
        add_payload(value)
        add_depth(None)
        add_key(None)
    if fault is not None:
        raise fault
    return doc


def pack_envelope(doc: XsDocument) -> bytes:
    """Pack with the XSB1 magic and the version byte up front."""
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
