"""Memory bounds per layer: cost guards that read no clock.  Most bounds
are peak bytes allocated per input character, measured with tracemalloc
and set from a measurement with some headroom; the last tests count the
objects the cyclic collector tracks per token of a stream."""

import functools
import gc
import tracemalloc
import zlib

import pytest

from xstring import (BadContainer, EncodeMode, EncodeOptions, EscapeMode,
                     build_substitution, decode, encode, pack_envelope,
                     parse_xml, render, serialize_xml, tokenize, unpack,
                     unpack_envelope)
from xstring.binary import _read_varint, _write_varint


def peak_per_char(fn, text) -> float:
    """Peak bytes fn(text) allocates above what is live before it, per
    character of text."""
    fn(text[:100])  # compile and cache what a first call builds
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(text)
        return (tracemalloc.get_traced_memory()[1] - base) / len(text)
    finally:
        if not tracing:
            tracemalloc.stop()


def _least_run_peak(escaping: EscapeMode, lead: str, unit: str,
                    close: str = "") -> float:
    # the least peak of tokenize over payloads of 30 000 to 40 000 units,
    # as _least_peak takes; the call skips the prefix peak_per_char warms
    # up on, which may not be a whole stream
    peaks = []
    for n in range(30_000, 40_001, 2_000):
        whole = lead + unit * n + close
        peaks.append(peak_per_char(
            lambda part: (tokenize(part, escaping)
                          if len(part) == len(whole) else None), whole))
    return min(peaks)


@pytest.mark.parametrize("lead, unit, close", [
    ("/r'", "x&#47;", ""),
    ("/r@a", "&#47;a", ""),
    ('/r"', "x&#34;", '"'),
], ids=["data", "name", "dual"])
def test_entity_tokenize_memory_on_dense_references(lead, unit, close):
    # Every sixth character starts a reference, so a run takes one
    # iteration of its alternation per reference.  The runs are
    # possessive, so re keeps no backtracking state for any of them: each
    # peaks at 1.34 bytes per character on CPython 3.11, 3.12 and 3.13,
    # the payload as read and its folded copy: 12 % headroom.  Data, name
    # and dual runs that could backtrack peaked at 134, 171 and 85.
    assert _least_run_peak(EscapeMode.ENTITY, lead, unit, close) <= 1.5


def test_sentinel_tokenize_memory_on_a_data_run():
    # the payload as read, 1.00 bytes per character on CPython 3.11, 3.12
    # and 3.13: 20 % headroom
    assert _least_run_peak(EscapeMode.SENTINEL, "\x00/r\x00'", "x&#47;") <= 1.2


def _table(rows: int) -> str:
    # a record table with long repeated names, in the shape of the
    # benchmark's wide workload
    return "<CUSTOMER_TABLE>" + "".join(
        f'<CUSTOMER_RECORD ID="{i}"><CUSTOMER_NAME>Name {i}</CUSTOMER_NAME>'
        f"<LOCATION>Town/{i % 97}</LOCATION><CATEGORY>retail</CATEGORY>"
        f"<QUANTITY>{i * 7 % 9999}</QUANTITY>"
        f"<DELIVERY_NOTE>leave at door {i}</DELIVERY_NOTE></CUSTOMER_RECORD>"
        for i in range(rows)) + "</CUSTOMER_TABLE>"


def _least_peak(measure) -> float:
    # measure(xml) gives the call to measure and the input whose length
    # the peak is divided by.  The least peak over sizes, since one size's
    # peak may overshoot the need by a list's overallocation.  The prefix
    # peak_per_char warms up on is not a whole document, stream or packed
    # form, so the call skips it
    peaks = []
    for rows in range(600, 1_001, 100):
        fn, whole = measure(_table(rows))
        peaks.append(peak_per_char(
            lambda part: fn(part) if len(part) == len(whole) else None,
            whole))
    return min(peaks)


def test_parse_xml_memory_on_a_table():
    # 14.4 bytes per XML character on CPython 3.11, 14.0 on 3.13: 11 %
    # and 15 % headroom
    assert _least_peak(lambda xml: (parse_xml, xml)) <= 16


def test_decode_memory_on_a_table():
    # per character of the rendered sibling stream: 17.8 bytes on CPython
    # 3.11 and on 3.13: 12 % headroom
    def measure(xml):
        xs = encode(parse_xml(xml))
        return (lambda _: decode(xs)), render(xs)
    assert _least_peak(measure) <= 20


def test_serialize_xml_memory_on_a_table():
    # 5.25 bytes per XML character on CPython 3.11, 4.79 on 3.12 and 3.13:
    # 14 % and 25 % headroom
    def measure(xml):
        doc = parse_xml(xml)
        return (lambda _: serialize_xml(doc)), xml
    assert _least_peak(measure) <= 6


def test_build_substitution_memory_on_a_table():
    # per character of the rendered sibling stream: 4.91 bytes on CPython
    # 3.11, 3.12 and 3.13: 12 % headroom
    def measure(xml):
        xs = encode(parse_xml(xml))
        return (lambda _: build_substitution(xs, 8)), render(xs)
    assert _least_peak(measure) <= 5.5


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_tokenize_memory_on_a_table(mode, escaping):
    # per character of the rendered stream: the split's list of rows, its
    # strings and the columns taken from it, the list dropped before the
    # depths and keys are built.  Sibling/entity, sibling/sentinel,
    # canonical/entity and canonical/sentinel read 14.2, 13.2, 13.2 and
    # 11.9 bytes on CPython 3.11.7: 6 % headroom at the most; 13.3, 12.4,
    # 12.4 and 11.2 on 3.12.1 and on 3.13.0.  The per-match loop the split
    # replaced read 10.1, 8.6, 9.2 and 7.6 on 3.11.7
    def measure(xml):
        wire = render(encode(parse_xml(xml), EncodeOptions(
            mode=mode, escaping=escaping)))
        return (lambda w: tokenize(w, escaping)), wire
    assert _least_peak(measure) <= 15


def split(data: bytes) -> dict[int, bytes]:
    """The raw bodies of a well-formed packed payload's containers, by
    number, the structure's 7, read apart from unpack."""
    present, deflated = data[0], data[1]
    spans = []
    pos = 2
    for box in (7, *(b for b in range(7) if present >> b & 1)):
        raw, pos = _read_varint(data, pos)
        stored = raw
        if deflated >> box & 1:
            stored, pos = _read_varint(data, pos)
        spans.append((box, raw, stored))
    bodies = {}
    for box, raw, stored in spans:
        body = data[pos:pos + stored]
        pos += stored
        if deflated >> box & 1:
            body = zlib.decompress(body, -15)
        assert len(body) == raw
        bodies[box] = body
    assert pos == len(data)
    return bodies


def test_unpack_envelope_memory_on_a_keyed_table():
    # per byte of the keyed payload with nothing deflated, whose repeated
    # short names go by index: 11.0 bytes on CPython 3.11.7 and 10.4 on
    # 3.12.1 and 3.13.0 (zlib 1.2.13) and on 3.13.13 (zlib 1.3.1), the
    # stream's columns filled in the loop that reads each unit, each
    # container's strings dropped as they are taken: 18 % headroom.
    # Format version 2, whose packed size this was, read 11.5 on 3.11.7
    # and 10.8 on 3.12.1 and 3.13.0; with every name a string it was 11.9
    # and 11.2, and with an XsToken built per unit 18.7 on 3.11 and 18.0
    # on 3.13
    def measure(xml):
        keyed = build_substitution(encode(parse_xml(xml)), 8)[1]
        data = pack_envelope(keyed)
        raw = sum(map(len, split(data[5:]).values()))
        return (lambda _: unpack_envelope(data)), bytes(raw)
    assert _least_peak(measure) <= 13


def deflated_text(raw: int, body: bytes) -> bytes:
    """A payload of one text token whose container states raw bytes and
    stores the deflate stream body."""
    head = bytearray(b"\x02\x02\x01")  # text present and deflated
    _write_varint(raw, head)
    _write_varint(len(body), head)
    return bytes(head) + b"\xfe" + body


@functools.cache
def deflate_bomb() -> bytes:
    """A text container that states 1 000 raw bytes and inflates to 64 MB
    of zeros, deflated a megabyte at a time."""
    compressor = zlib.compressobj(9, zlib.DEFLATED, -15)
    chunk = bytes(1 << 20)
    body = b"".join(compressor.compress(chunk) for _ in range(64))
    return deflated_text(1000, body + compressor.flush())


def dense_bomb() -> bytes:
    """A text container that states 1 000 raw bytes and stores 976, which
    inflate to 990 000 zeros."""
    return deflated_text(1000, zlib.compress(bytes(990_000), 9, -15))


@pytest.mark.parametrize("bomb", [deflate_bomb, dense_bomb],
                         ids=["64MB", "dense"])
def test_unpack_memory_on_a_deflate_bomb(bomb):
    # refused before it is inflated, or inflated no further than the 1 000
    # bytes it states: 13.1 KB for the dense one on CPython 3.11.7, 3.12.1
    # and 3.13.0 (zlib 1.2.13) and on 3.13.13 (zlib 1.3.1), most of it
    # zlib's state with its 2 KB window, where inflating it whole takes
    # 990 KB
    data = bomb()
    tracemalloc.start()
    try:
        with pytest.raises(BadContainer):
            unpack(data)
        assert tracemalloc.get_traced_memory()[1] <= 16 * 1000
    finally:
        tracemalloc.stop()


def tracked_per_token(fn, arg) -> float:
    """GC-tracked objects that fn(arg) leaves alive, with the stream it
    returns, per token of that stream; the collector is off meanwhile, so
    no count moves but fn's."""
    fn(arg)  # build what a first call caches
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        doc = fn(arg)
        made = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    return made / len(doc.kinds)


@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_tokenize_builds_no_object_per_token(escaping):
    # a stream is four lists of strings, ints and None, none of which the
    # collector tracks: 5 objects per stream, where one XsToken per token
    # made 1.00 per token
    wire = render(encode(parse_xml(_table(600)), EncodeOptions(
        escaping=escaping)))
    assert tracked_per_token(lambda w: tokenize(w, escaping), wire) <= 0.05


def test_unpack_envelope_builds_no_object_per_token():
    # as tokenize: 5 objects per stream, where one XsToken per token made
    # 1.00 per token
    keyed = build_substitution(encode(parse_xml(_table(600))), 8)[1]
    assert tracked_per_token(unpack_envelope, pack_envelope(keyed)) <= 0.05
