"""Size accounting: per-construct formulas, measurement, the size limit.

For a construct with an n-character name or body the markup and encoded
sizes are fixed, so the overall ratio of encoded to markup size is a sum
of the rows below.  A nested pair of tags costs 2n+5 markup characters
against n+1 encoded ones, which bounds the ratio of element-only
documents below by (n+1)/(2n+5) and pushes it toward one half as names
grow.

measure checks a stream with the sibling encoder's verifier against the
parsed markup, building no second tree: the stream must be one that encode
can write for it, with all whitespace-only text dropped or all of it kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import StrEnum
from itertools import chain, pairwise
from typing import Iterator, Optional

from .binary import pack_envelope
from .codec import Unencodable, Verifier, encode
from .errors import BadArgument, XStringError, check_int
from .grammar import PrefixKind, XsDocument, render, wire_pieces
from .xml_model import (XML_WHITESPACE, Attribute, NodeKind, XmlDocument,
                        XmlNode, instruction_body, parse_xml,
                        serialize_attribute, serialize_xml, walk)


class ConstructKind(StrEnum):
    NESTED_TAG = "nested_tag"
    EMPTY_TAG = "empty_tag"
    PI_TAG = "pi_tag"
    DTD_ELEMENT = "dtd_element"
    COMMENT_TAG = "comment_tag"
    CDATA_TAG = "cdata_tag"
    TEXT = "text"
    TEXT_DUAL = "text_dual"
    ATTRIBUTE = "attribute"


# (markup chars, encoded chars) as linear functions of the name or body
# length n; attributes also depend on the name length m
_FORMULAS = {
    ConstructKind.NESTED_TAG: (lambda n, m: 2 * n + 5, lambda n, m: n + 1),
    ConstructKind.EMPTY_TAG: (lambda n, m: n + 3, lambda n, m: n + 1),
    ConstructKind.PI_TAG: (lambda n, m: n + 4, lambda n, m: n + 1),
    ConstructKind.DTD_ELEMENT: (lambda n, m: n + 3, lambda n, m: n + 1),
    ConstructKind.COMMENT_TAG: (lambda n, m: n + 7, lambda n, m: n + 1),
    ConstructKind.CDATA_TAG: (lambda n, m: n + 12, lambda n, m: n + 1),
    ConstructKind.TEXT: (lambda n, m: n, lambda n, m: n + 1),
    ConstructKind.TEXT_DUAL: (lambda n, m: n, lambda n, m: n + 2),
    ConstructKind.ATTRIBUTE: (lambda n, m: m + n + 3, lambda n, m: m + n + 2),
}


def predict_size(kind: ConstructKind, n: int, m: int = 0) -> tuple[int, int]:
    """Markup and encoded character counts for one construct.

    n is the name length, or the body length for data constructs and the
    value length for attributes; m is the attribute name length and is
    ignored elsewhere.  Escaping is not modelled; the numbers assume the
    payload contains no characters that need it.
    """
    # checked by type: 'text' equals ConstructKind.TEXT, True equals 1
    if not isinstance(kind, ConstructKind):
        raise BadArgument(f"{kind!r} is not a ConstructKind")
    check_int("n", n)
    check_int("m", m)
    if n < 1:
        raise BadArgument("n must be at least 1")
    if kind is ConstructKind.ATTRIBUTE and m < 1:
        raise BadArgument("attributes need the name length m")
    xml_f, xs_f = _FORMULAS[kind]
    return xml_f(n, m), xs_f(n, m)


@dataclass
class ConstructStat:
    count: int = 0
    xml_chars: int = 0
    xs_chars: int = 0


@dataclass
class SizeReport:
    xml_chars: int
    xml_chars_raw: int
    xs_chars: int
    xsb_bytes: int
    xml_overhead: int
    constructs: dict[ConstructKind, ConstructStat] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.xs_chars / self.xml_chars

    def _stats(self) -> list[tuple[str, ConstructStat]]:
        return [(kind.value, self.constructs[kind]) for kind in ConstructKind
                if kind in self.constructs]

    def as_kv(self) -> str:
        lines = [f"xml_chars={self.xml_chars}",
                 f"xml_chars_raw={self.xml_chars_raw}",
                 f"xs_chars={self.xs_chars}",
                 f"xsb_bytes={self.xsb_bytes}",
                 f"ratio={self.ratio:.4f}",
                 f"xml_overhead={self.xml_overhead}"]
        for key, stat in self._stats():
            lines += [f"{key}.count={stat.count}",
                      f"{key}.xml_chars={stat.xml_chars}",
                      f"{key}.xs_chars={stat.xs_chars}"]
        return "\n".join(lines)

    def as_table(self) -> str:
        rows = [("construct", "count", "xml", "xs")]
        rows += [(key, str(s.count), str(s.xml_chars), str(s.xs_chars))
                 for key, s in self._stats()]
        rows.append(("separators", "", str(self.xml_overhead), "0"))
        rows.append(("total", "", str(self.xml_chars), str(self.xs_chars)))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(" ")
            for row in rows)


class Mismatch(XStringError):
    pass


_DATA_CONSTRUCTS = {NodeKind.COMMENT: ConstructKind.COMMENT_TAG,
                    NodeKind.CDATA: ConstructKind.CDATA_TAG,
                    NodeKind.DTD: ConstructKind.DTD_ELEMENT}


def _node_construct(node: XmlNode, token_kind: PrefixKind,
                    nested: bool) -> tuple[ConstructKind, int]:
    """Construct kind and name or body length n for one written node."""
    if node.kind is NodeKind.ELEMENT:
        return (ConstructKind.NESTED_TAG if nested
                else ConstructKind.EMPTY_TAG), len(node.name)
    if node.kind is NodeKind.TEXT:
        kind = (ConstructKind.TEXT_DUAL if token_kind is PrefixKind.TEXT_DUAL
                else ConstructKind.TEXT)
        return kind, len(node.content)
    if node.kind is NodeKind.PROC_INSTR:
        return ConstructKind.PI_TAG, len(instruction_body(node))
    return _DATA_CONSTRUCTS[node.kind], len(node.content)


def measure(xml_text: str, xs: XsDocument,
            source: Optional[XmlDocument] = None) -> SizeReport:
    """Compare the sizes of a markup document and its encoded form.

    The stream must be one that encode can write for the markup, with all
    of its whitespace-only text dropped or all of it kept.  Any other
    stream raises Mismatch, or the decoder's DecodeError if the decoder
    rejects it no later than it stops matching.  Markup characters are
    attributed to the construct they belong to; the space before each
    attribute is counted as separator overhead so the columns add up.
    source is parse_xml(xml_text) when the caller has already parsed it,
    and is not changed; None parses xml_text here.  Passing it pays, as
    emit does: without both, xstring stats ran 1.34-1.50x as long on the
    four benchmark workload shapes.
    """
    if source is None:
        source = parse_xml(xml_text)
    drop = all(payload.strip(XML_WHITESPACE)
               for kind, payload in zip(xs.kinds, xs.payloads)
               if kind in (PrefixKind.TEXT, PrefixKind.TEXT_DUAL))
    nodes = list(walk(source, drop))
    try:
        Verifier(nodes).read(xs)
    except Unencodable as e:
        raise Mismatch("the stream does not encode this document") from e

    report = SizeReport(xml_chars=0, xml_chars_raw=len(xml_text), xs_chars=0,
                        xsb_bytes=len(pack_envelope(xs)), xml_overhead=0)
    # each node the stream holds, in order, with the parent of the next
    # one, which is the node itself exactly when it has a child
    written = pairwise(chain(nodes, [(None, None, 0)]))
    attrs: Iterator[Attribute] = iter(())
    for token_kind, piece in zip(xs.kinds, wire_pieces(xs)):
        if token_kind is PrefixKind.ATTR_VALUE:
            kind, count, xml_chars = ConstructKind.ATTRIBUTE, 0, 0
        elif token_kind is PrefixKind.ATTR_NAME:
            kind, count = ConstructKind.ATTRIBUTE, 1
            xml_chars = len(serialize_attribute(next(attrs))) - 1
            report.xml_overhead += 1
        else:
            (node, _, _), (_, next_parent, _) = next(written)
            attrs = iter(node.attributes)
            kind, n = _node_construct(node, token_kind, next_parent is node)
            count, xml_chars = 1, _FORMULAS[kind][0](n, 0)
        stat = report.constructs.setdefault(kind, ConstructStat())
        stat.count += count
        stat.xml_chars += xml_chars
        stat.xs_chars += len(piece)
    stats = report.constructs.values()
    report.xml_chars = report.xml_overhead + sum(s.xml_chars for s in stats)
    report.xs_chars = sum(s.xs_chars for s in stats)
    return report


@dataclass
class AsymptoteProbe:
    name_len: int
    depth: int
    xml_chars: int
    xs_chars: int
    ratio: float
    limit: float


def asymptote_check(name_len: int, depth: int) -> AsymptoteProbe:
    """Encode a chain of nested elements and report the measured ratio.

    The limit column holds (n+1)/(2n+5) for n = name_len; the measured
    ratio approaches it from above as depth grows, since only the
    innermost empty element deviates from the nested-pair formula.
    """
    check_int("name_len", name_len)
    check_int("depth", depth)
    if name_len < 1 or depth < 1:
        raise BadArgument("name_len and depth must be positive")
    name = "A" * name_len
    node = XmlNode.element(name)
    for _ in range(depth - 1):
        node = XmlNode.element(name, children=[node])
    doc = XmlDocument(node)
    xml_chars = len(serialize_xml(doc))
    xs_chars = len(render(encode(doc)))
    pair_xml, pair_xs = predict_size(ConstructKind.NESTED_TAG, name_len)
    return AsymptoteProbe(name_len, depth, xml_chars, xs_chars,
                          xs_chars / xml_chars, pair_xs / pair_xml)
