"""Memory bounds per layer, measured with tracemalloc: cost guards that
read no clock.  Each bound is peak bytes allocated per input character,
set from a measurement with some headroom."""

import tracemalloc

from xstring import (EscapeMode, build_substitution, decode, encode,
                     pack_envelope, parse_xml, render, tokenize,
                     unpack_envelope)


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


def test_entity_tokenize_memory_on_dense_references():
    # Every sixth character starts a reference, so an entity-mode data run
    # takes one iteration of its alternation per reference, and re keeps
    # backtracking state for each, whose size grows with the number of
    # the group the run sits in.  That stack grows in steps of a quarter,
    # so one size's peak overshoots the need by up to a quarter; the least
    # over sizes from 180 to 240 KB is close to it.  On CPython 3.11, 3.12
    # and 3.13 that is 134 bytes per character with the data run in groups
    # 4/5, 171 at 6/7 and 201 at 8/9; on 3.10, whose re saves less per
    # iteration, 128, 144 and 170.
    def tokenize_entity(text):
        return tokenize(text, EscapeMode.ENTITY)
    peaks = [peak_per_char(tokenize_entity, "/r'" + "x&#47;" * n)
             for n in range(30_000, 40_001, 2_000)]
    assert min(peaks) <= 150


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


def test_unpack_envelope_memory_on_a_keyed_table():
    # per byte of the keyed XSB1 form: 18.7 bytes on CPython 3.11, 18.0 on
    # 3.13, with each token built in the loop that reads its unit: 7 % and
    # 11 % headroom.  22.8 and 22.1 when the units were read into two
    # lists first
    def measure(xml):
        keyed = build_substitution(encode(parse_xml(xml)), 8)[1]
        return unpack_envelope, pack_envelope(keyed)
    assert _least_peak(measure) <= 20
