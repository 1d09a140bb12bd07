"""Memory bounds per layer, measured with tracemalloc: cost guards that
read no clock.  Each bound is peak bytes allocated per input character,
set from a measurement with some headroom."""

import tracemalloc

from xstring import EscapeMode, tokenize


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
