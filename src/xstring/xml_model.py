"""XML document model: node types, a small non-validating parser, a serializer,
and a well-formedness checker.

The model covers exactly the six node kinds the string encoding can express:
elements, text, comments, processing instructions, CDATA sections, and opaque
``<!...>`` declarations.  Entity references in character data are never
expanded; text is carried verbatim so that a parse/serialize round trip is
byte-faithful for the data it touches.

Well-formedness violations are reported against a fixed eight-rule list:

1. one unique root element, nothing else at the top level
2. open tags must have close tags
3. the XML declaration, when present, must be at the very start
4. tags must not overlap
5. attributes may appear on open tags only
6. an attribute has a single value, within quotes, at most once per element
7. names follow the naming conventions
8. a bare ``&`` must be written as an entity reference
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import zip_longest
from typing import Callable, Iterator, Optional

from .errors import XStringError


class NodeKind(Enum):
    ELEMENT = "element"
    TEXT = "text"
    COMMENT = "comment"
    PROC_INSTR = "pi"
    CDATA = "cdata"
    DTD = "dtd"


# (name, value) pairs; value None means a valueless attribute like <X NAME/>.
Attribute = tuple[str, Optional[str]]


@dataclass(slots=True)
class XmlNode:
    kind: NodeKind
    name: str = ""
    attributes: list[Attribute] = field(default_factory=list)
    content: str = ""
    children: list["XmlNode"] = field(default_factory=list)

    @staticmethod
    def element(name: str, attributes: Optional[list[Attribute]] = None,
                children: Optional[list["XmlNode"]] = None) -> "XmlNode":
        return XmlNode(NodeKind.ELEMENT, name=name,
                       attributes=list(attributes or []),
                       children=list(children or []))

    @staticmethod
    def text(content: str) -> "XmlNode":
        return XmlNode(NodeKind.TEXT, content=content)

    @staticmethod
    def comment(content: str) -> "XmlNode":
        return XmlNode(NodeKind.COMMENT, content=content)

    @staticmethod
    def pi(name: str, content: str = "") -> "XmlNode":
        return XmlNode(NodeKind.PROC_INSTR, name=name, content=content)

    @staticmethod
    def cdata(content: str) -> "XmlNode":
        return XmlNode(NodeKind.CDATA, content=content)

    @staticmethod
    def dtd(content: str) -> "XmlNode":
        return XmlNode(NodeKind.DTD, content=content)

    def is_whitespace_text(self) -> bool:
        """True for text nodes containing only XML whitespace (space, tab,
        CR, LF), which is insignificant."""
        return self.kind is NodeKind.TEXT and self.content.strip(_WS) == ""

    def copy(self) -> "XmlNode":
        dups: list[XmlNode] = []  # the copies of the node's ancestors
        for node, _, depth in walk(self):
            del dups[depth:]
            dup = XmlNode(node.kind, node.name, list(node.attributes),
                          node.content)
            if dups:
                dups[-1].children.append(dup)
            dups.append(dup)
        return dups[0]


def walk(root: XmlNode, drop: bool = False
         ) -> Iterator[tuple[XmlNode, Optional[XmlNode], int]]:
    """Yield (node, parent, depth) for each node of the subtree at root, in
    document order: parent is None and depth 0 for root, and depth counts
    the node's ancestors up to root.  When drop is set, whitespace-only
    text without children is skipped; a node with children never is.  The
    open nodes are kept on an explicit stack instead of recursing."""
    if root.children or not (drop and root.is_whitespace_text()):
        yield root, None, 0
    stack = [(root, iter(root.children))]
    while stack:
        parent, children = stack[-1]
        depth = len(stack)
        for node in children:
            if node.children:
                yield node, parent, depth
                stack.append((node, iter(node.children)))
                break
            if not (drop and node.is_whitespace_text()):
                yield node, parent, depth
        else:
            stack.pop()


class OpenStack(list):
    """Open elements, outermost first, plus nearest: name -> index of the
    topmost open element with that name, or -1.  The parser and the decoder
    keep one, and the sibling encoder keeps the one the decoder will hold."""

    def __init__(self) -> None:
        super().__init__()
        self.nearest: dict[str, int] = {}
        self._below: list[tuple[str, int]] = []

    def push(self, name: str, entry) -> None:
        self._below.append((name, self.nearest.get(name, -1)))
        self.nearest[name] = len(self)
        self.append(entry)

    def pop(self):
        name, below = self._below.pop()
        self.nearest[name] = below
        return super().pop()

    def truncate(self, size: int) -> None:
        while len(self) > size:
            self.pop()


@dataclass
class XmlDocument:
    root: XmlNode
    prolog: Optional[XmlNode] = None

    def copy(self) -> "XmlDocument":
        return XmlDocument(self.root.copy(),
                           self.prolog.copy() if self.prolog else None)


@dataclass
class Violation:
    rule: Optional[int]  # 1..8, or None for a plain syntax error
    offset: int
    message: str


@dataclass
class WellFormednessReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class XmlSyntaxError(XStringError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.reason = message


class WellFormednessError(XStringError):
    def __init__(self, rule: int, offset: int, message: str):
        super().__init__(f"rule {rule} at offset {offset}: {message}")
        self.rule = rule
        self.offset = offset
        self.reason = message


_WS = " \t\r\n"
# a name character is alphanumeric or one of "._-:", which is exactly \w
# plus ".-:" (\w already holds the underscore)
_NAME = r"[\w.\-:]*"
_NAME_RUN = re.compile(_NAME)
# what can follow '<': the construct's opener, or none for a start tag
_LEAD = re.compile(r"<(?:!--|!\[CDATA\[|!|\?|/)?")
# one step of a start tag: the tag's end (1), or a name (2), then after
# '=' the opening quote or the end of input (3), or an unquoted value (4)
_ATTR = re.compile(f"[{_WS}]*(?:(/?>)|({_NAME})[{_WS}]*"
                   f"(?:=[{_WS}]*(?:([\"']|\\Z)|([^{_WS}>/]*)))?)")
_CLOSE_TAG = re.compile(f"</({_NAME})[{_WS}]*(>)?")
# '&' not starting a reference: a name or digits after an optional '#',
# then ';'
_BARE_AMP = re.compile(r"&(?!#?[\w.\-]+;)")
_ANGLES = re.compile("[<>]")


def _valid_name(name: str) -> bool:
    return (name[:1].isalpha() or name[:1] in ("_", ":")) \
        and _NAME_RUN.fullmatch(name) is not None


class _Parser:
    """Single-pass scanner shared by parse_xml (strict) and
    check_well_formed (collecting).

    One lead pattern at each '<' picks the construct, and each construct is
    read by a pattern of its own or a find for its closer; a start tag
    takes one _ATTR match per attribute.  After a syntax error the
    collecting scan stops at the end of the construct it is in."""

    def __init__(self, text: str, collect: bool):
        self.text = text
        self.pos = 0
        self.collect = collect
        self.violations: list[Violation] = []
        self.prolog: Optional[XmlNode] = None
        self.root: Optional[XmlNode] = None
        self.stack = OpenStack()
        self.fatal = False

    # -- error plumbing -----------------------------------------------------

    def violate(self, rule: int, offset: int, message: str) -> None:
        if self.collect:
            self.violations.append(Violation(rule, offset, message))
        else:
            raise WellFormednessError(rule, offset, message)

    def syntax(self, offset: int, message: str) -> None:
        if self.collect:
            self.violations.append(Violation(None, offset, message))
            self.fatal = True
        else:
            raise XmlSyntaxError(offset, message)

    # -- low level ----------------------------------------------------------

    def read_until(self, marker: str) -> Optional[str]:
        end = self.text.find(marker, self.pos)
        if end < 0:
            return None
        out = self.text[self.pos:end]
        self.pos = end + len(marker)
        return out

    # -- entity scan (rule 8) ----------------------------------------------

    def scan_amps(self, data: str, base: int) -> None:
        for m in _BARE_AMP.finditer(data):
            self.violate(8, base + m.start(),
                         "bare '&' must be an entity reference")

    # -- node attachment ----------------------------------------------------

    def attach(self, node: XmlNode, offset: int) -> None:
        if self.stack:
            self.stack[-1].children.append(node)
            return
        # top level: only the declaration and a single root element belong here
        if node.kind is NodeKind.ELEMENT and self.root is None:
            self.root = node
            return
        if node.kind is NodeKind.TEXT and node.is_whitespace_text():
            return
        self.violate(1, offset, "content outside the single root element")

    # -- constructs: each reads from its lead match -------------------------

    def parse_text_run(self) -> None:
        start = self.pos
        end = self.text.find("<", self.pos)
        if end < 0:
            end = len(self.text)
        data = self.text[start:end]
        self.pos = end
        if not data:
            return
        self.scan_amps(data, start)
        self.attach(XmlNode.text(data), start)

    def parse_delimited(self, closer: str, node: Callable[[str], XmlNode],
                        message: str, lead: re.Match) -> None:
        """A comment or CDATA section: its body runs to the first closer."""
        self.pos = lead.end()
        body = self.read_until(closer)
        if body is None:
            self.syntax(lead.start(), message)
            return
        self.attach(node(body), lead.start())

    def parse_dtd(self, lead: re.Match) -> None:
        # opaque <!...> capture; '<'/'>' depth covers internal subsets
        start = lead.start()
        depth = 1
        for m in _ANGLES.finditer(self.text, lead.end()):
            depth += 1 if m[0] == "<" else -1
            if depth == 0:
                self.pos = m.end()
                if not self.stack:
                    # no slot for a doctype in the document model
                    self.violate(1, start,
                                 "declaration outside the root element")
                    return
                self.attach(XmlNode.dtd(self.text[start + 2:m.start()]), start)
                return
        self.syntax(start, "unterminated '<!' declaration")

    def parse_pi(self, lead: re.Match) -> None:
        start = lead.start()
        m = _NAME_RUN.match(self.text, lead.end())
        target = m[0]
        if not target:
            self.syntax(start, "processing instruction without a target")
            return
        self.pos = m.end()
        rest = self.read_until("?>")
        if rest is None:
            self.syntax(start, "unterminated processing instruction")
            return
        # exactly one separator char, so leading whitespace in data survives
        content = rest[1:] if rest[:1] and rest[0] in _WS else rest
        node = XmlNode.pi(target, content)
        if target.lower() == "xml":
            if start == 0 and self.prolog is None:
                self.prolog = node
            else:
                self.violate(3, start,
                             "XML declaration must be at the start of the document")
            return
        if not _valid_name(target):
            self.violate(7, start, f"invalid instruction target {target!r}")
        self.attach(node, start)

    def parse_attributes(self, owner: XmlNode) -> bool:
        """Read attributes up to '>' or '/>'.  Returns True for self-closing."""
        text = self.text
        seen: set[str] = set()
        while True:
            m = _ATTR.match(text, self.pos)
            if m[1]:
                self.pos = m.end()
                return m[1] == "/>"
            name, name_off = m[2], m.start(2)
            if not name:
                if name_off == len(text):
                    self.syntax(name_off, "unterminated start tag")
                    return True
                # in collecting mode, skip the character and read on
                self.syntax(name_off, f"unexpected {text[name_off]!r} in tag")
                self.pos = name_off + 1
                continue
            if not _valid_name(name):
                self.violate(7, name_off, f"invalid attribute name {name!r}")
            self.pos = m.end()
            quote, value = m[3], m[4]
            if quote is not None:
                # an empty quote is '=' at the end of input
                close = text.find(quote, self.pos) if quote else -1
                if close < 0:
                    self.syntax(name_off, "unterminated attribute value")
                    return True
                value = text[self.pos:close]
                self.scan_amps(value, self.pos)
                self.pos = close + 1
            elif value is not None:
                self.violate(6, m.start(4), "attribute value must be quoted")
            if name in seen:
                self.violate(6, name_off, f"duplicate attribute {name!r}")
                continue
            seen.add(name)
            owner.attributes.append((name, value))

    def parse_close_tag(self, lead: re.Match) -> None:
        start = lead.start()
        m = _CLOSE_TAG.match(self.text, start)
        name = m[1]
        self.pos = m.end()
        if m[2] is None:
            self.violate(5, self.pos, "attributes are not allowed on close tags")
            end = self.text.find(">", self.pos)
            self.pos = len(self.text) if end < 0 else end + 1
        if self.stack and self.stack[-1].name == name:
            self.stack.pop()
            return
        at = self.stack.nearest.get(name, -1)
        if at >= 0:
            self.violate(4, start,
                         f"close tag </{name}> overlaps <{self.stack[-1].name}>")
            self.stack.truncate(at)
        else:
            self.violate(2, start, f"close tag </{name}> matches no open tag")

    def parse_open_tag(self, lead: re.Match) -> None:
        start = lead.start()
        m = _NAME_RUN.match(self.text, lead.end())
        name = m[0]
        if not name:
            self.syntax(start, "bare '<' does not start markup")
            return
        if not _valid_name(name):
            self.violate(7, m.start(), f"invalid element name {name!r}")
        self.pos = m.end()
        node = XmlNode.element(name)
        closed = self.parse_attributes(node)
        self.attach(node, start)
        if not closed:
            self.stack.push(name, node)

    # -- driver -------------------------------------------------------------

    def run(self) -> None:
        text = self.text
        read = {"<": self.parse_open_tag, "</": self.parse_close_tag,
                "<?": self.parse_pi, "<!": self.parse_dtd,
                "<!--": partial(self.parse_delimited, "-->", XmlNode.comment,
                                "unterminated comment"),
                "<![CDATA[": partial(self.parse_delimited, "]]>",
                                     XmlNode.cdata,
                                     "unterminated CDATA section")}
        while self.pos < len(text) and not self.fatal:
            lead = _LEAD.match(text, self.pos)
            if lead is None:
                self.parse_text_run()
            else:
                read[lead[0]](lead)
        for node in reversed(self.stack):
            self.violate(2, len(text), f"<{node.name}> is never closed")
        if self.root is None and not self.fatal:
            self.violate(1, len(text), "no root element")


def parse_xml(text: str) -> XmlDocument:
    """Parse an XML string, raising on the first violation or syntax error.

    Whitespace-only text nodes between elements are kept in the tree; the
    encoder decides whether they are significant.
    """
    p = _Parser(text, collect=False)
    p.run()
    assert p.root is not None
    return XmlDocument(p.root, p.prolog)


def check_well_formed(text: str) -> WellFormednessReport:
    """Collect well-formedness violations without raising.

    The report is empty exactly when parse_xml would succeed.
    """
    p = _Parser(text, collect=True)
    p.run()
    return WellFormednessReport(p.violations)


def serialize_attribute(attr: Attribute) -> str:
    """The markup of one attribute with its leading space; a start tag
    joins these."""
    name, value = attr
    if value is None:
        return f" {name}"
    if '"' in value and "'" not in value:
        return f" {name}='{value}'"
    v = value.replace('"', "&#34;")
    return f' {name}="{v}"'


def _serialize_node(root: XmlNode, out: list[str]) -> None:
    ends: list[str] = []  # per open node its end tag, "" for a data node
    for node, _, depth in walk(root):
        while len(ends) > depth:
            out.append(ends.pop())
        if node.children:
            ends.append(f"</{node.name}>" if node.kind is NodeKind.ELEMENT
                        else "")
        if node.kind is NodeKind.ELEMENT:
            end = ">" if node.children else "/>"
            attrs = "".join(map(serialize_attribute, node.attributes))
            out.append(f"<{node.name}{attrs}{end}")
        elif node.kind is NodeKind.TEXT:
            out.append(node.content)
        elif node.kind is NodeKind.COMMENT:
            out.append(f"<!--{node.content}-->")
        elif node.kind is NodeKind.PROC_INSTR:
            body = f"{node.name} {node.content}" if node.content else node.name
            out.append(f"<?{body}?>")
        elif node.kind is NodeKind.CDATA:
            out.append(f"<![CDATA[{node.content}]]>")
        elif node.kind is NodeKind.DTD:
            out.append(f"<!{node.content}>")
    out.extend(reversed(ends))


def serialize_xml(doc: XmlDocument) -> str:
    """Serialize without adding any inter-node whitespace.

    Text content is emitted verbatim (entities stay as written)."""
    out: list[str] = []
    if doc.prolog is not None:
        _serialize_node(doc.prolog, out)
    _serialize_node(doc.root, out)
    return "".join(out)


def _nodes_equal(a: XmlNode, b: XmlNode, ws: bool) -> bool:
    # the nodes in document order with their depths spell out the nesting
    fa, fb = (((n.kind, n.name, n.content, n.attributes, depth)
               for n, _, depth in walk(top, drop=not ws)) for top in (a, b))
    return all(x == y for x, y in zip_longest(fa, fb))


def structural_equal(a: XmlDocument, b: XmlDocument,
                     whitespace_significant: bool = False) -> bool:
    """Compare two documents node by node.

    Whitespace-only text leaves are ignored unless whitespace_significant;
    a whitespace-only text node with children is compared like any other."""
    if (a.prolog is None) != (b.prolog is None):
        return False
    if a.prolog is not None and not _nodes_equal(a.prolog, b.prolog,
                                                 whitespace_significant):
        return False
    return _nodes_equal(a.root, b.root, whitespace_significant)
