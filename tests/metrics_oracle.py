"""The size measurement that decoded the stream into a second tree, kept as
a reference.

metrics.measure now checks the stream with the encoder's verifier against
the parsed source and pairs each token with the node the source writes;
the differential tests in test_metrics.py compare the two.  This version
decoded the stream, compared the result with structural_equal (ignoring
whitespace-only text on both sides), serialized and rendered for the
totals, and paired tokens with the decoded tree's nodes through walk.
"""

from xstring.binary import pack_envelope
from xstring.codec import decode
from xstring.grammar import (PrefixKind, XsDocument, XsToken, render,
                             render_token)
from xstring.metrics import ConstructKind, ConstructStat, Mismatch, SizeReport
from xstring.xml_model import (NodeKind, XmlNode, parse_xml,
                               serialize_attribute, serialize_xml,
                               structural_equal)

from walk_oracle import walk


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
