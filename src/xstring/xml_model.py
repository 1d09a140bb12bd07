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
from itertools import zip_longest
from typing import Iterator, Optional

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


@dataclass
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
        """True for text nodes containing only whitespace (insignificant)."""
        return self.kind is NodeKind.TEXT and self.content.strip() == ""

    def copy(self) -> "XmlNode":
        return _copy_tree(self, keep_whitespace=True)


def walk(root: XmlNode) -> Iterator[tuple[XmlNode, bool]]:
    """Yield (node, True) on entering and (node, False) on leaving each
    node of the subtree at root, in document order, keeping the open nodes
    on an explicit stack instead of recursing.  A node's children are read
    between its two events, so a consumer may replace them on leave."""
    yield root, True
    stack = [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        for child in children:
            yield child, True
            if child.children:
                stack.append((child, iter(child.children)))
                break
            yield child, False
        else:
            stack.pop()
            yield node, False


def _copy_tree(root: XmlNode, keep_whitespace: bool) -> XmlNode:
    stack = [XmlNode(NodeKind.ELEMENT)]  # its one child is the copy of root
    for node, entering in walk(root):
        if not keep_whitespace and node.is_whitespace_text():
            continue  # a leaf, so skipping both its events skips it
        if entering:
            dup = XmlNode(node.kind, node.name, list(node.attributes),
                          node.content)
            stack[-1].children.append(dup)
            stack.append(dup)
        else:
            stack.pop()
    return stack[0].children[0]


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
_WS_RUN = re.compile(f"[{_WS}]*")
# a name character is alphanumeric or one of "._-:", which is exactly \w
# plus ".-:" (\w already holds the underscore)
_NAME_RUN = re.compile(r"[\w.\-:]*")
_UNQUOTED_VALUE = re.compile(f"[^{_WS}>/]*")
# '&' not starting a reference: a name or digits after an optional '#',
# then ';'
_BARE_AMP = re.compile(r"&(?!#?[\w.\-]+;)")
_ANGLES = re.compile("[<>]")


def _valid_name(name: str) -> bool:
    return (name[:1].isalpha() or name[:1] in ("_", ":")) \
        and _NAME_RUN.fullmatch(name) is not None


class _Parser:
    """Single-pass scanner shared by parse_xml (strict) and
    check_well_formed (collecting)."""

    def __init__(self, text: str, collect: bool):
        self.text = text
        self.pos = 0
        self.collect = collect
        self.violations: list[Violation] = []
        self.prolog: Optional[XmlNode] = None
        self.root: Optional[XmlNode] = None
        self.stack: list[XmlNode] = []
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

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def skip_ws(self) -> None:
        self.pos = _WS_RUN.match(self.text, self.pos).end()

    def read_until(self, marker: str) -> Optional[str]:
        end = self.text.find(marker, self.pos)
        if end < 0:
            return None
        out = self.text[self.pos:end]
        self.pos = end + len(marker)
        return out

    def read_run(self, run: re.Pattern) -> str:
        m = run.match(self.text, self.pos)
        self.pos = m.end()
        return m[0]

    def read_name(self) -> str:
        return self.read_run(_NAME_RUN)

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

    # -- constructs ---------------------------------------------------------

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

    def parse_comment(self, start: int) -> None:
        self.pos += 4  # past <!--
        body = self.read_until("-->")
        if body is None:
            self.syntax(start, "unterminated comment")
            self.pos = len(self.text)
            return
        self.attach(XmlNode.comment(body), start)

    def parse_cdata(self, start: int) -> None:
        self.pos += 9  # past <![CDATA[
        body = self.read_until("]]>")
        if body is None:
            self.syntax(start, "unterminated CDATA section")
            self.pos = len(self.text)
            return
        self.attach(XmlNode.cdata(body), start)

    def parse_dtd(self, start: int) -> None:
        # opaque <!...> capture; '<'/'>' depth covers internal subsets
        depth = 1
        for m in _ANGLES.finditer(self.text, start + 2):
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

    def parse_pi(self, start: int) -> None:
        self.pos += 2  # past <?
        target = self.read_name()
        if not target:
            self.syntax(start, "processing instruction without a target")
            self.read_until("?>")
            return
        rest = self.read_until("?>")
        if rest is None:
            self.syntax(start, "unterminated processing instruction")
            self.pos = len(self.text)
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
        seen: set[str] = set()
        while True:
            self.skip_ws()
            if self.eof():
                self.syntax(self.pos, "unterminated start tag")
                return True
            if self.peek(2) == "/>":
                self.pos += 2
                return True
            if self.peek() == ">":
                self.pos += 1
                return False
            name_off = self.pos
            name = self.read_name()
            if not name:
                self.syntax(self.pos, f"unexpected {self.peek()!r} in tag")
                self.pos += 1
                continue
            if not _valid_name(name):
                self.violate(7, name_off, f"invalid attribute name {name!r}")
            value: Optional[str] = None
            self.skip_ws()
            if self.peek() == "=":
                self.pos += 1
                self.skip_ws()
                q = self.peek()
                if q in "\"'":
                    self.pos += 1
                    value = self.read_until(q)
                    if value is None:
                        self.syntax(name_off, "unterminated attribute value")
                        return True
                    self.scan_amps(value, self.pos - len(value) - 1)
                else:
                    self.violate(6, self.pos,
                                 "attribute value must be quoted")
                    value = self.read_run(_UNQUOTED_VALUE)
            if name in seen:
                self.violate(6, name_off, f"duplicate attribute {name!r}")
                continue
            seen.add(name)
            owner.attributes.append((name, value))

    def parse_close_tag(self, start: int) -> None:
        self.pos += 2  # past </
        name = self.read_name()
        self.skip_ws()
        if self.peek() != ">":
            self.violate(5, self.pos, "attributes are not allowed on close tags")
            end = self.text.find(">", self.pos)
            self.pos = len(self.text) if end < 0 else end + 1
        else:
            self.pos += 1
        if self.stack and self.stack[-1].name == name:
            self.stack.pop()
            return
        open_names = [e.name for e in self.stack]
        if name in open_names:
            self.violate(4, start,
                         f"close tag </{name}> overlaps <{self.stack[-1].name}>")
            while self.stack and self.stack[-1].name != name:
                self.stack.pop()
            if self.stack:
                self.stack.pop()
        else:
            self.violate(2, start, f"close tag </{name}> matches no open tag")

    def parse_open_tag(self, start: int) -> None:
        self.pos += 1  # past <
        name_off = self.pos
        name = self.read_name()
        if not name:
            self.syntax(start, "bare '<' does not start markup")
            return
        if not _valid_name(name):
            self.violate(7, name_off, f"invalid element name {name!r}")
        node = XmlNode.element(name)
        closed = self.parse_attributes(node)
        self.attach(node, start)
        if not closed:
            self.stack.append(node)

    # -- driver -------------------------------------------------------------

    def run(self) -> None:
        while not self.eof() and not self.fatal:
            c = self.text[self.pos]
            if c != "<":
                self.parse_text_run()
                continue
            start = self.pos
            if self.peek(4) == "<!--":
                self.parse_comment(start)
            elif self.peek(9) == "<![CDATA[":
                self.parse_cdata(start)
            elif self.peek(2) == "<!":
                self.parse_dtd(start)
            elif self.peek(2) == "<?":
                self.parse_pi(start)
            elif self.peek(2) == "</":
                self.parse_close_tag(start)
            else:
                self.parse_open_tag(start)
        for node in reversed(self.stack):
            self.violate(2, len(self.text), f"<{node.name}> is never closed")
        if self.root is None and not self.fatal:
            self.violate(1, len(self.text), "no root element")


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


def _serialize_attrs(attrs: list[Attribute]) -> str:
    parts = []
    for name, value in attrs:
        if value is None:
            parts.append(f" {name}")
        elif '"' in value and "'" not in value:
            parts.append(f" {name}='{value}'")
        else:
            v = value.replace('"', "&#34;")
            parts.append(f' {name}="{v}"')
    return "".join(parts)


def _serialize_node(root: XmlNode, out: list[str]) -> None:
    for node, entering in walk(root):
        if not entering:
            if node.kind is NodeKind.ELEMENT and node.children:
                out.append(f"</{node.name}>")
        elif node.kind is NodeKind.ELEMENT:
            end = ">" if node.children else "/>"
            out.append(f"<{node.name}{_serialize_attrs(node.attributes)}{end}")
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


def serialize_xml(doc: XmlDocument) -> str:
    """Serialize without adding any inter-node whitespace.

    Text content is emitted verbatim (entities stay as written)."""
    out: list[str] = []
    if doc.prolog is not None:
        _serialize_node(doc.prolog, out)
    _serialize_node(doc.root, out)
    return "".join(out)


def _nodes_equal(a: XmlNode, b: XmlNode, ws: bool) -> bool:
    # the enter/leave events spell out the nesting, so compare those; a
    # whitespace-only text node is a leaf, so skipping its events skips it
    ea, eb = (((n, e) for n, e in walk(top) if ws or not n.is_whitespace_text())
              for top in (a, b))
    for (x, x_in), (y, y_in) in zip_longest(ea, eb, fillvalue=(None, None)):
        if x_in is not y_in:
            return False
        if x_in and (x.kind is not y.kind or x.name != y.name
                     or x.content != y.content
                     or x.attributes != y.attributes):
            return False
    return True


def structural_equal(a: XmlDocument, b: XmlDocument,
                     whitespace_significant: bool = False) -> bool:
    """Compare two documents node by node.

    Whitespace-only text nodes are ignored unless whitespace_significant."""
    if (a.prolog is None) != (b.prolog is None):
        return False
    if a.prolog is not None and not _nodes_equal(a.prolog, b.prolog,
                                                 whitespace_significant):
        return False
    return _nodes_equal(a.root, b.root, whitespace_significant)


def drop_insignificant_whitespace(doc: XmlDocument) -> XmlDocument:
    """Copy of doc with whitespace-only text nodes removed."""
    return XmlDocument(_copy_tree(doc.root, keep_whitespace=False),
                       doc.prolog.copy() if doc.prolog else None)
