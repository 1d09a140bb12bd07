"""Size accounting: per-construct formulas, measurement, the size limit.

For a construct with an n-character name or body the markup and encoded
sizes are fixed, so the overall ratio of encoded to markup size is a sum
of the rows below.  A nested pair of tags costs 2n+5 markup characters
against n+1 encoded ones, which bounds the ratio of element-only
documents below by (n+1)/(2n+5) and pushes it toward one half as names
grow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .binary import pack_envelope
from .codec import decode, encode
from .errors import XStringError
from .grammar import PrefixKind, XsDocument, XsToken, render, render_token
from .xml_model import (NodeKind, XmlDocument, XmlNode, parse_xml,
                        serialize_attribute, serialize_xml, structural_equal,
                        walk)


class ConstructKind(enum.Enum):
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
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind is ConstructKind.ATTRIBUTE and m < 1:
        raise ValueError("attributes need the name length m")
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

    def as_kv(self) -> str:
        lines = [f"xml_chars={self.xml_chars}",
                 f"xml_chars_raw={self.xml_chars_raw}",
                 f"xs_chars={self.xs_chars}",
                 f"xsb_bytes={self.xsb_bytes}",
                 f"ratio={self.ratio:.4f}",
                 f"xml_overhead={self.xml_overhead}"]
        for kind in ConstructKind:
            stat = self.constructs.get(kind)
            if stat is None:
                continue
            key = kind.value
            lines.append(f"{key}.count={stat.count}")
            lines.append(f"{key}.xml_chars={stat.xml_chars}")
            lines.append(f"{key}.xs_chars={stat.xs_chars}")
        return "\n".join(lines)

    def as_table(self) -> str:
        rows = [("construct", "count", "xml", "xs")]
        for kind in ConstructKind:
            stat = self.constructs.get(kind)
            if stat is not None:
                rows.append((kind.value, str(stat.count),
                             str(stat.xml_chars), str(stat.xs_chars)))
        rows.append(("separators", "", str(self.xml_overhead), "0"))
        rows.append(("total", "", str(self.xml_chars), str(self.xs_chars)))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(" ")
            for row in rows)


class Mismatch(XStringError):
    pass


def _node_construct(node: XmlNode, tok: XsToken) -> tuple[ConstructKind, int]:
    """Construct kind and exact markup character count for one node."""
    if node.kind is NodeKind.ELEMENT:
        if node.children:
            return ConstructKind.NESTED_TAG, 2 * len(node.name) + 5
        return ConstructKind.EMPTY_TAG, len(node.name) + 3
    if node.kind is NodeKind.TEXT:
        kind = (ConstructKind.TEXT_DUAL if tok.kind is PrefixKind.TEXT_DUAL
                else ConstructKind.TEXT)
        return kind, len(node.content)
    if node.kind is NodeKind.COMMENT:
        return ConstructKind.COMMENT_TAG, len(node.content) + 7
    if node.kind is NodeKind.CDATA:
        return ConstructKind.CDATA_TAG, len(node.content) + 12
    if node.kind is NodeKind.DTD:
        return ConstructKind.DTD_ELEMENT, len(node.content) + 3
    body = len(node.name) + (1 + len(node.content) if node.content else 0)
    return ConstructKind.PI_TAG, body + 4


def measure(xml_text: str, xs: XsDocument) -> SizeReport:
    """Compare the sizes of a markup document and its encoded form.

    The stream must decode to the same tree the markup parses to, ignoring
    whitespace-only text.  Markup characters are attributed to the
    construct they belong to; the space before each attribute is counted
    as separator overhead so the per-construct columns add up exactly.
    """
    source = parse_xml(xml_text)
    tree = decode(xs)
    if not structural_equal(tree, source):
        raise Mismatch("the stream does not encode this document")

    report = SizeReport(xml_chars=len(serialize_xml(tree)),
                        xml_chars_raw=len(xml_text),
                        xs_chars=len(render(xs)),
                        xsb_bytes=len(pack_envelope(xs)),
                        xml_overhead=0)

    def stat(kind: ConstructKind) -> ConstructStat:
        return report.constructs.setdefault(kind, ConstructStat())

    nodes = [] if tree.prolog is None else [tree.prolog]
    nodes.extend(node for node, entering in walk(tree.root) if entering)

    node_i = 0
    owner: XmlNode | None = None
    attr_i = 0
    for tok in xs.tokens:
        piece = len(render_token(tok, xs.escaping))
        if tok.kind is PrefixKind.ATTR_NAME:
            attr = owner.attributes[attr_i]
            attr_i += 1
            s = stat(ConstructKind.ATTRIBUTE)
            s.count += 1
            s.xml_chars += len(serialize_attribute(attr)) - 1
            s.xs_chars += piece
            report.xml_overhead += 1
        elif tok.kind is PrefixKind.ATTR_VALUE:
            stat(ConstructKind.ATTRIBUTE).xs_chars += piece
        else:
            node = nodes[node_i]
            node_i += 1
            if node.kind is NodeKind.ELEMENT:
                owner, attr_i = node, 0
            kind, xml_chars = _node_construct(node, tok)
            s = stat(kind)
            s.count += 1
            s.xml_chars += xml_chars
            s.xs_chars += piece
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
    if name_len < 1 or depth < 1:
        raise ValueError("name_len and depth must be positive")
    name = "A" * name_len
    node = XmlNode.element(name)
    for _ in range(depth - 1):
        node = XmlNode.element(name, children=[node])
    doc = XmlDocument(node)
    xml_chars = len(serialize_xml(doc))
    xs_chars = len(render(encode(doc)))
    return AsymptoteProbe(name_len, depth, xml_chars, xs_chars,
                          xs_chars / xml_chars,
                          (name_len + 1) / (2 * name_len + 5))
