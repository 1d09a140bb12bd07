"""Nibble-packed binary form of a token stream, format version 3.

A payload is a header and then the bodies of its containers: the structure
container first, then each string container that holds a string, in
order.

The structure container holds the stream's units.  Each token expands to
one or more units: a unit is a four-bit code plus an optional body.  Units
are consumed two at a time; every pair contributes one byte holding both
codes (first unit in the high nibble) followed by the two bodies.  Depth,
key and index bodies are a bare varint, and a varint holds at most 64
bits.  A string unit is its code alone: its string is the next one of its
string container.  An odd unit count is completed with the bodiless pad
code in the low nibble of the last pair byte, the only place a pad may
sit.

The seven string containers group the strings by kind: 0 the names
written as strings (child, sibling and attribute names, the empty name of
a key reference too), 1 text and dual text, 2 attribute values, 3
comments, 4 instructions, 5 CDATA, 6 declarations.  A container is the
UTF-8 of its strings in unit order, joined by NUL, which no payload may
hold; the structure says how many strings each holds.  A container with
no string is left out.

The header is one byte whose bit i is set when string container i is
there (bit 7 is never set), one byte whose bit i is set when string
container i is deflated and bit 7 when the structure is, and then, for
the structure and each string container there, its raw length and, when
it is deflated, its stored length, as varints.  A container of 256 bytes
or more is raw-deflated at LEVEL, with a window sized to it, and kept so
when that is shorter, its stored length included.  unpack refuses as
BadContainer a deflated container that is not shorter than its raw
length, one whose raw length is more than the 1032 bytes a deflate stream
can make of each stored byte, and one whose deflate stream does not end
exactly at its raw length; it inflates no further than that length, so
what a container costs to read is bounded by the input, whatever it
inflates to.

Names go by index once written.  The stream's name table holds each
distinct non-empty name written as a string, in order of first
occurrence; it is built as the units are written or read and is never
sent.  The codes 0xB, 0xC and 0xD are a child, sibling or attribute name
by index: their body is the name's varint index into the table.  pack
writes a repeated name that way when the index is shorter than the name
costs as a string, its UTF-8 and the NUL after it in container 0; a tie
keeps the string.  An empty name, a key reference, is always a string.  A
depth or key marker follows an index unit as it follows a name unit.
Deflate finds most repeated names on its own, but the index units still
pay: without them the benchmark's deep workload packed to 0.170 of its
XML instead of 0.159, wide to the same size, and mixed, whose names are
short, to 0.245 instead of 0.246 (seed 1, LEVEL 3).

pack reads the stream's columns in one zip and writes each unit where it
meets it: the first unit of a pair appends its pair byte with the low
nibble still open and its body; the second sets that nibble and appends
its own body; a string unit's payload goes to its container's list.  A
value below 0x80 is its own one-byte varint and is appended as it is.
Then each container is joined, encoded and checked for NUL once.  So
pack's errors come in this order: a marker past 64 bits, MalformedVarint,
where the loop meets it, ahead of every bad payload; then the containers
by number, and within one a payload UTF-8 cannot hold ahead of one that
holds NUL, both BadPayload.

unpack reads the header, inflates and decodes each string container once
and splits it on NUL.  Then it reads the units in one loop, each body
where it meets it: a varint below 0x80 is one byte, a longer one goes to
_read_varint, and a string unit takes the next string of its container.
It appends the unit's token to the columns, or sets a marker's value in
the column entry of the name before it, and applies, as BadPayload, the
constructor's checks that a unit stream can fail, each distinct name's
once; a name goes into the table when it passes.  A byte-level error
(BadContainer, BadNibble, TrailingBytes, Truncated, MalformedVarint, a
container that is not UTF-8) raises where it is found, and a string
container with strings left after the last unit raises TrailingBytes
then.  The first token-level error (StrayMarker, BadNameIndex for an
index past the table, a failed check) is held while every later unit is
still read and checked, and raised after the last byte.  So a byte-level
error anywhere in the input wins over every token-level error, and
token-level errors come in unit order: a name is checked when the next
unit that is not a marker, or the end, arrives, since a marker may still
give it a key.  Holding is what keeps this reader's outcomes equal to
format version 2's, which the differentials in the tests compare: this
one reads every string container before any unit, and the version 2
reader reads each string where its unit is.  Were a token-level error
raised where it is found, a fault in a unit before a string that is not
UTF-8 would win in version 2 and lose here.

pack and unpack work on the bare payload; pack_envelope and
unpack_envelope add and check the magic and format version.
"""

from __future__ import annotations

import zlib

from .errors import XStringError
from .grammar import NUL, EscapeMode, PrefixKind, XsDocument, name_fault

MAGIC = b"XSB1"
VERSION = 3

# the deflate level of every container.  On the benchmark's mixed
# workload level 3 packs to 0.246 of the XML, with compact_MBps 0.89x of
# format version 2's, and level 1 to 0.271, above zlib level 9's 0.268
LEVEL = 3

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
# each code's string container, by code; a code with a varint body or
# none has none, and reads as container 0 where it is never used
_BOX = (0, 0, 3, 4, 5, 6, 1, 0, 2, 0, 0, 0, 0, 0, 0, 1)
_BOXES = 7
# the structure's number among the containers, and its bit in the
# header's byte of deflated bits
_STRUCTURE = 7
# the smallest container deflate is tried on.  On the corpus workload 128
# packed to 0.780 of the XML and made pack take 16.3 us a document
# against 12.4, and 512 packed to 0.813, above format version 2's 0.809
_DEFLATE_FROM = 256
# the most bytes a deflate stream makes of each of its own: a match makes
# 258 bytes at most and costs two bits at least, a length code and a
# distance code, and a literal makes one byte of one bit at least
_INFLATE_MOST = 1032


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


class BadNameIndex(PackError):
    pass


class BadContainer(PackError):
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


def _window(size: int) -> int:
    """The window bits that deflate size bytes, and inflate them: a window
    of 2**w bytes reaches back 2**w - 262 bytes, so the smallest that
    reaches over the whole container, within zlib's 9 to 15.  On 400 bytes
    a 2**10 window took 3.7 us and 2**15 13.8 us, for the same output
    (zlib 1.2.13, shared 2-vCPU host)."""
    return min(max((size + 261).bit_length(), 9), 15)


def _unencodable(payloads: list[str]) -> BadPayload:
    """The error for the first of payloads that UTF-8 cannot hold, a lone
    surrogate, in the words of its own encode error."""
    for payload in payloads:
        try:
            payload.encode("utf-8")
        except UnicodeEncodeError as err:
            return BadPayload(f"payload is not encodable as UTF-8: {err}")
    raise AssertionError("every payload encodes")


def pack(doc: XsDocument) -> bytes:
    """Pack a stream into the bare binary payload."""
    out = bytearray()  # the structure
    held = -1  # where the pair byte waiting for its low unit sits
    table: dict[str, int] = {}  # each name written as a string: its index
    boxes = ([], [], [], [], [], [], [])  # each string container's strings
    for kind, payload, depth, key in zip(doc.kinds, doc.payloads, doc.depths,
                                         doc.keys):
        code = _KIND_TO_CODE[kind]
        index = None
        if code in _INDEX_CODE:
            if payload in table:
                index = table[payload]
                # below 0x80 the index is one byte and the string two or
                # more; a lone surrogate is left to container 0 to refuse
                if index < 0x80 or (index.bit_length() + 6) // 7 <= len(
                        payload.encode("utf-8", "surrogatepass")):
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
        if index is None:
            boxes[_BOX[code]].append(payload)
        # here, for a marker and a length too, a value below 0x80 is its own
        # varint: with all three through _write_varint, pack took 1.08-1.15x
        # as long on the benchmark's keyed streams (medians of 21 passes)
        elif index < 0x80:
            out.append(index)
        else:
            _write_varint(index, out)
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
    head = bytearray(2)  # the byte of present bits and of deflated bits
    raws = [(_STRUCTURE, out)]  # each container's number and bytes
    for box, strings in enumerate(boxes):
        if not strings:
            continue
        try:
            raw = NUL.join(strings).encode("utf-8")
        except UnicodeEncodeError:
            raise _unencodable(strings) from None
        # else one NUL would shift every later string to the wrong token
        if raw.count(0) != len(strings) - 1:
            raise BadPayload("payload must not contain NUL")
        head[0] |= 1 << box
        raws.append((box, raw))
    bodies = [head]
    for box, raw in raws:
        size = len(raw)
        if size >= _DEFLATE_FROM:
            packed = zlib.compress(raw, LEVEL, -_window(size))
            stored = len(packed)
            # kept when shorter, the stored length's varint included
            if stored + (stored.bit_length() + 6) // 7 < size:
                head[1] |= 1 << box
                _write_varint(size, head)
                raw, size = packed, stored
        if size < 0x80:
            head.append(size)
        else:
            _write_varint(size, head)
        bodies.append(raw)
    return b"".join(bodies)


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

    # the header: each container's raw and stored length, and whether it
    # is deflated, in the order of the bodies
    end = len(data)
    if end < 2:
        raise Truncated("input ends inside the header")
    present, deflated = data[0], data[1]
    if present >> _BOXES:
        raise BadContainer("present bit past string container 6")
    if deflated & ~present & (1 << _BOXES) - 1:
        raise BadContainer("deflated bit of an absent string container")
    spans = []
    pos = 2
    for box in (_STRUCTURE, 0, 1, 2, 3, 4, 5, 6):
        if box != _STRUCTURE and not present >> box & 1:
            continue
        # a one-byte raw length read in place, as in the unit loop: through
        # _read_varint, unpack made 0.93 calls per keyed corpus token, not
        # 0.70.  A stored length is seldom one byte, 3 times a benchmark pass
        if pos < end and data[pos] < 0x80:
            raw = data[pos]
            pos += 1
        else:
            raw, pos = _read_varint(data, pos)
        stored = raw
        if deflated >> box & 1:
            stored, pos = _read_varint(data, pos)
            # as pack keeps it; so a container inflates to no more than
            # its input can, whatever it states, and to one byte at least
            if stored >= raw:
                raise BadContainer("deflated container is no shorter than"
                                   " its raw length")
            # and no raw length past what its stored bytes can make, which
            # also keeps it within what zlib takes as a length
            if raw > _INFLATE_MOST * stored:
                raise BadContainer("deflated container states more than"
                                   " its stored length can inflate to")
        spans.append((box, raw, stored))
    # the bodies: each string container inflated, decoded and split once,
    # its bytes and its string dropped once it is split.  Its strings are
    # kept last first, so that each one taken leaves the list and a list
    # shrinks as it is read: held whole to the end, the lists took 1.3
    # bytes per byte of a record table's raw payload
    none: list[str] = []
    boxes = [none] * _BOXES
    for box, raw, stored in spans:
        stop = pos + stored
        if stop > end:
            raise Truncated("input ends inside a container")
        body = data[pos:stop]
        pos = stop
        if deflated >> box & 1:
            try:
                inflater = zlib.decompressobj(-_window(raw))
                body = inflater.decompress(body, raw)
            except zlib.error as err:
                raise BadContainer(f"container does not inflate: {err}"
                                   ) from None
            if len(body) != raw or not inflater.eof or (
                    inflater.unconsumed_tail or inflater.unused_data):
                raise BadContainer(
                    "container does not inflate to its stated length")
        if box == _STRUCTURE:
            units = body
            continue
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as err:
            raise BadPayload(f"string body is not UTF-8: {err}") from None
        boxes[box] = body.split(NUL)
        boxes[box].reverse()
    if pos != end:
        raise TrailingBytes("data continues after the last container")
    del body
    strings = list(map(boxes.__getitem__, _BOX))  # by code

    # The checks of XsToken(...) that a unit stream can fail, in its words.
    # No code maps to a marker kind, a misplaced depth or key is a
    # StrayMarker, a varint is never negative and NUL separates strings,
    # so no other can fail.
    name = -1  # the last name token's column while markers may follow it
    passed: set[str] = set()  # the names name_fault has passed
    table: list[str] = []  # the same names, in the order they passed
    fault = None  # the first token-level error, raised after the last byte
    data = units
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
                    else:
                        # payload is not empty: the one empty name checked
                        # here has no key, which name_fault refuses
                        passed.add(payload)
                        table.append(payload)
                name = -1
            if code == _PAD:
                break
        if code < _DEPTH or code == _TEXT:
            try:
                value = strings[code].pop()
            except IndexError:  # from an empty list
                raise Truncated("a string container ends before its"
                                " units do") from None
            if code in _INDEX_CODE:  # a name
                name = len(kinds)
        else:
            # a one-byte varint read in place: through _read_varint, unpack
            # took 1.19-1.27x as long on the benchmark's keyed streams of
            # wide, mixed and deep, 1.01x on corpus's (medians of 21 passes)
            if pos < end and data[pos] < 0x80:
                value = data[pos]
                pos += 1
            else:
                value, pos = _read_varint(data, pos)
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
        add_kind(_CODE_TO_KIND[code])
        add_payload(value)
        add_depth(None)
        add_key(None)
    for left in boxes:
        if left:
            raise TrailingBytes("a string container holds strings past its"
                                " units")
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
