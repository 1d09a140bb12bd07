"""Byte-identity pins: sha256 digests of what the codec writes for the test
corpus and a record table, in both escape modes.

Each digest covers, document by document, one output form: the sibling
wire string, the canonical wire string, the XSB1 form of the sibling
stream, and the wire string and XSB1 form of that stream keyed by
build_substitution.  A rewrite of any layer that writes these forms must
leave every digest as it is.
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
            "7f6080f8bfdc45d10daace0e0b2a1b2def1f2fa21e786f6f28a9086f731e2983",
        "keyed":
            "b9d010be5b293cbb3a3414393463fbfa271ebfa898f46f32cd87bdb2e843ff83",
        "keyed_xsb":
            "42b9e8750f6b0cdde175ed0fc68e20aa5887baf3b4a0c1894eb06cdbe7e0d02e",
    },
    EscapeMode.SENTINEL: {
        "sibling":
            "f14099624e5977cc7ce7f45f39b0cafc40f84aadf5be56ea8162dc25740501a9",
        "canonical":
            "bdf0799f5c1e41c6166be40a0c4e7bb7e7d5b9e95608ce5bab1cc936b3864d82",
        "xsb":
            "7dd8f2df9fef292ec9a4b5e03e57ed50b6a8544fdbe6be345a323cdc334d6eb4",
        "keyed":
            "fad5ab57d8899cfdf4ba84d7fd3b323e47a16aee747e8f8fdcec3ad61d8b3eba",
        "keyed_xsb":
            "465202514678638db41a0a8d198c8548f9211d8532475512636ba5ec2dacc9a6",
    },
}


@pytest.mark.parametrize("escaping", list(EscapeMode))
def test_outputs_match_their_pinned_digests(escaping):
    assert _digests(escaping) == _PINNED[escaping]
