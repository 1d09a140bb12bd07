"""Byte-identity pins: sha256 digests of what the codec writes for the test
corpus and a record table, in both escape modes.

Each digest covers, document by document, one output form: the sibling
wire string, the canonical wire string, the packed envelope of the
sibling stream, and the wire string and packed envelope of that stream
keyed by build_substitution.  A rewrite of any layer that writes these
forms must leave every digest as it is.

The two packed digests were re-pinned on purpose, for format version 2,
which writes a repeated name as an index into the stream's name table,
and for format version 3, which moves the strings into containers by
kind and deflates those it shortens; the three wire-string digests did
not move.  The deflated bytes are zlib's: zlib 1.2.13 (CPython 3.11.7,
3.12.1 and 3.13.0) and zlib 1.3.1 (CPython 3.13.13) write the same ones.
A zlib that deflates the same input to other bytes, zlib-ng for one,
moves the packed digests alone.
"""

import hashlib

import pytest

from xstring import (EncodeMode, EncodeOptions, EscapeMode, XmlDocument,
                     build_substitution, encode, pack_envelope, parse_xml,
                     render)

import corpus as fixtures
from test_memory import _table


def _documents() -> list[XmlDocument]:
    return fixtures.corpus() + [parse_xml(_table(rows)) for rows in (1, 40)]


def _outputs(doc: XmlDocument, escaping: EscapeMode) -> dict[str, object]:
    sibling = encode(doc, EncodeOptions(escaping=escaping))
    canonical = encode(doc, EncodeOptions(mode=EncodeMode.CANONICAL,
                                          escaping=escaping))
    keyed = build_substitution(sibling, 8)[1]
    return {"sibling": render(sibling), "canonical": render(canonical),
            "xsb": pack_envelope(sibling), "keyed": render(keyed),
            "keyed_xsb": pack_envelope(keyed)}


def _digests(escaping: EscapeMode) -> dict[str, str]:
    hashes = {}
    for doc in _documents():
        for form, out in _outputs(doc, escaping).items():
            h = hashes.setdefault(form, hashlib.sha256())
            h.update(out.encode("utf-8") if isinstance(out, str) else out)
            h.update(b"\x01")
    return {form: h.hexdigest() for form, h in hashes.items()}


_PINNED = {
    EscapeMode.ENTITY: {
        "sibling":
            "f32cd81877e63635493d31e32cef75c2c6a043cddd7cb4dd45731bfbfedcb1df",
        "canonical":
            "2684e2db9d171092f295069262cc19369b8d924b9bd74e03eb697050e9f277c6",
        "xsb":
            "20b5043a5a55899bb232e623bcbac737e0e1e38916b6f8509b528266d1a33772",
        "keyed":
            "b9d010be5b293cbb3a3414393463fbfa271ebfa898f46f32cd87bdb2e843ff83",
        "keyed_xsb":
            "db29a1f15a96f8a2e79c2c2e1f07a73df04e200c9b6d15ca9f61dd09e90a0827",
    },
    EscapeMode.SENTINEL: {
        "sibling":
            "f14099624e5977cc7ce7f45f39b0cafc40f84aadf5be56ea8162dc25740501a9",
        "canonical":
            "bdf0799f5c1e41c6166be40a0c4e7bb7e7d5b9e95608ce5bab1cc936b3864d82",
        "xsb":
            "d4968e2aa426abe875fb7e440fea9634ce12308400632c58cc6b2770cb23488f",
        "keyed":
            "fad5ab57d8899cfdf4ba84d7fd3b323e47a16aee747e8f8fdcec3ad61d8b3eba",
        "keyed_xsb":
            "2f7dd9e23dacde6a2aa62a9076558cecdfac0cdb754fc2aa7bf6acf55e768da6",
    },
}


@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_outputs_match_their_pinned_digests(escaping):
    assert _digests(escaping) == _PINNED[escaping]
