"""What one call costs: Python lines run in the package per public call of
the benchmark's paths, on the smallest document and on a median one of
the random corpus.  The counts do not depend on the speed of the machine,
so a change that adds fixed cost to a call fails here even where the
benchmark's timings cannot tell it from noise.

Each bound is the largest count among CPython 3.11.7, 3.12.1 and 3.13.0
plus a margin of 5 %, rounded up; parse_xml's counts are CPython 3.11.7's
alone.  A change that makes a call cheaper lowers its bound.  Without
pytest the counts print by script:

    PYTHONPATH=src python3 tests/test_call_cost.py
"""

import math

from corpus import corpus
from steps import lines_run
from xstring import (EncodeMode, EncodeOptions, build_substitution, decode,
                     encode, expand_substitution, pack_envelope, parse_xml,
                     render, serialize_xml, tokenize, unpack_envelope)

MARGIN = 0.05

# the largest count among the three Pythons, per input and call
COUNTS = {
    "tiny": {
        "parse_xml": 34, "encode.sibling": 136, "encode.canonical": 77,
        "render": 51, "tokenize": 44, "decode": 48, "serialize_xml": 28,
        "build_substitution": 30, "expand_substitution": 19,
        "pack_envelope": 67, "unpack_envelope": 149,
    },
    "median": {
        "parse_xml": 119, "encode.sibling": 454, "encode.canonical": 240,
        "render": 117, "tokenize": 81, "decode": 201, "serialize_xml": 103,
        "build_substitution": 94, "expand_substitution": 43,
        "pack_envelope": 190, "unpack_envelope": 369,
    },
}


def inputs() -> dict[str, str]:
    """The documents measured: <r/> and the corpus document of median
    length, as XML text."""
    texts = sorted((serialize_xml(doc) for doc in corpus()), key=len)
    return {"tiny": "<r/>", "median": texts[len(texts) // 2]}


def call_costs(text: str) -> dict[str, int]:
    """Lines run by each call on text's document, in entity mode, with the
    arguments the benchmark's paths pass it."""
    sibling = EncodeOptions()
    canonical = EncodeOptions(mode=EncodeMode.CANONICAL)
    doc = parse_xml(text)
    stream = encode(doc, sibling)
    wire = render(stream)
    keyed = build_substitution(stream, 8)[1]
    packed = pack_envelope(keyed)
    calls = {
        "parse_xml": (parse_xml, text),
        "encode.sibling": (encode, doc, sibling),
        "encode.canonical": (encode, doc, canonical),
        "render": (render, stream),
        "tokenize": (tokenize, wire),
        "decode": (decode, stream),
        "serialize_xml": (serialize_xml, doc),
        "build_substitution": (build_substitution, stream, 8),
        "expand_substitution": (expand_substitution, keyed),
        "pack_envelope": (pack_envelope, keyed),
        "unpack_envelope": (unpack_envelope, packed),
    }
    return {name: lines_run(*call) for name, call in calls.items()}


def test_calls_cost_no_more_lines_than_their_bounds():
    over = {}
    for name, text in inputs().items():
        for call, lines in call_costs(text).items():
            bound = math.ceil(COUNTS[name][call] * (1 + MARGIN))
            if lines > bound:
                over[f"{name} {call}"] = (lines, bound)
    assert over == {}


if __name__ == "__main__":
    for name, text in inputs().items():
        print(name, len(text), call_costs(text))
