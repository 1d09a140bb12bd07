"""XML document model: node types, a small non-validating parser, a serializer,
and a well-formedness checker.

The model covers exactly the six node kinds the string encoding can express:
elements, text, comments, processing instructions, CDATA sections, and opaque
``<!...>`` declarations.  Entity references in character data are never
expanded; text is carried verbatim so that a parse/serialize round trip is
byte-faithful for the data it touches.

One function, _scan, reads the text once and always collects: it
returns the tree it built and every violation, in the order met, in one
frame that builds each node with one constructor call.
check_well_formed reports the list and parse_xml raises its first entry,
so both give the same first error, found at linear cost.

XML_WHITESPACE, space, tab, CR and LF, is XML's whitespace and the
package's one whitespace set: what the parser skips inside tags, the
whitespace-only text that walk and the encoder may drop, and, through
grammar, the padding the wire allows between tokens and the characters
that end a name or an instruction's target there, so that a name reads
the same on both sides.

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
from enum import StrEnum
from itertools import zip_longest
from typing import Iterable, Iterator, Optional

from .errors import LocatedError, XStringError

XML_WHITESPACE = " \t\r\n"


class NodeKind(StrEnum):
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
        return (self.kind is NodeKind.TEXT
                and self.content.strip(XML_WHITESPACE) == "")

    def copy(self) -> "XmlNode":
        dups: list[XmlNode] = []  # the copies of the node's ancestors
        for node, _, depth in walk((self,)):
            del dups[depth:]
            dup = XmlNode(node.kind, node.name, list(node.attributes),
                          node.content)
            if dups:
                dups[-1].children.append(dup)
            dups.append(dup)
        return dups[0]


def walk(tops: Iterable[XmlNode], drop: bool = False
         ) -> Iterator[tuple[XmlNode, Optional[XmlNode], int]]:
    """Yield (node, parent, depth) for each node of the trees at tops, in
    document order: parent is None and depth 0 for a top, and depth counts
    the node's ancestors.  walk(doc) reads a document's prolog, when it has
    one, then its root; walk((node,)) reads the subtree at node.  When drop
    is set, whitespace-only text without children is skipped; a node with
    children never is.  The open nodes are kept on an explicit stack
    instead of recursing."""
    stack: list[tuple[Optional[XmlNode], Iterator[XmlNode]]] = [
        (None, iter(tops))]
    while stack:
        parent, children = stack[-1]
        depth = len(stack) - 1
        for node in children:
            if node.children:
                yield node, parent, depth
                stack.append((node, iter(node.children)))
                break
            if not (drop and node.kind is _TEXT
                    and not node.content.strip(XML_WHITESPACE)):
                yield node, parent, depth
        else:
            stack.pop()


@dataclass
class XmlDocument:
    root: XmlNode
    prolog: Optional[XmlNode] = None

    def __iter__(self) -> Iterator[XmlNode]:
        """The top-level nodes: the prolog, when there is one, then the
        root."""
        if self.prolog is None:
            return iter((self.root,))
        return iter((self.prolog, self.root))

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


class XmlSyntaxError(LocatedError):
    pass


class WellFormednessError(XStringError):
    def __init__(self, rule: int, offset: int, message: str):
        super().__init__(f"rule {rule} at offset {offset}: {message}")
        self.rule = rule
        self.offset = offset
        self.reason = message


# a name character is alphanumeric or one of "._-:", which is exactly \w
# plus ".-:" (\w already holds the underscore)
_NAME = r"[\w.\-:]*"
_NAME_RUN = re.compile(_NAME)
# a start tag's name (1), then the tag's end (2) when no attribute follows
_OPEN_TAG = re.compile(f"<({_NAME})[{XML_WHITESPACE}]*(/?>)?")
# one step of a start tag: the tag's end (1), or a name (2), then after
# '=' the opening quote or the end of input (3), or an unquoted value (4)
_ATTR = re.compile(f"[{XML_WHITESPACE}]*(?:(/?>)|({_NAME})"
                   f"[{XML_WHITESPACE}]*(?:=[{XML_WHITESPACE}]*"
                   f"(?:([\"']|\\Z)|([^{XML_WHITESPACE}>/]*)))?)")
_CLOSE_TAG = re.compile(f"</({_NAME})[{XML_WHITESPACE}]*(>)?")
# '&' not starting a reference: a name or digits after an optional '#',
# then ';'
_BARE_AMP = re.compile(r"&(?!#?[\w.\-]+;)")
_ANGLES = re.compile("[<>]")
_BARE_AMP_MESSAGE = "bare '&' must be an entity reference"
_OUTSIDE_ROOT_MESSAGE = "content outside the single root element"
_ELEMENT, _TEXT, _COMMENT = NodeKind.ELEMENT, NodeKind.TEXT, NodeKind.COMMENT
_PROC_INSTR, _CDATA, _DTD = NodeKind.PROC_INSTR, NodeKind.CDATA, NodeKind.DTD


def _scan(text: str
          ) -> tuple[Optional[XmlNode], Optional[XmlNode], list[Violation]]:
    """Read text once into its prolog, its root and its violations, in the
    order they are met.

    The loop reads every construct in its own frame: a text run, a start
    tag with its attributes (one _ATTR match per attribute after the
    name), a close tag, and a comment, CDATA section, processing
    instruction or declaration, each by one find or scan for its closer.
    It builds each node with one XmlNode(...) call.  Names are runs of
    _NAME_RUN's class, so a name is valid exactly when its first character
    may start one.  After a syntax error the scan stops at the end of the
    construct it is in."""
    violations: list[Violation] = []
    record = violations.append
    prolog: Optional[XmlNode] = None
    root: Optional[XmlNode] = None
    # the open elements, outermost first; nearest maps a name to the index
    # of the topmost open element with that name, or -1, and below holds
    # per open element what nearest held for its name before it opened
    stack: list[XmlNode] = []
    nearest: dict[str, int] = {}
    below: list[int] = []
    fatal = False  # a syntax error in a tag stops the scan after the tag
    stop = ""  # the syntax error that stopped the scan outside a tag
    n = len(text)
    open_tag, attr = _OPEN_TAG.match, _ATTR.match
    close_tag = _CLOSE_TAG.match
    # a byte order mark is not content (XML 1.0 4.3.3); offsets stay
    # offsets into text
    pos = body = 1 if text.startswith("\ufeff") else 0
    while pos < n and not fatal:
        start = pos
        lead = text[pos:pos + 2]
        if lead[0] != "<":
            pos = text.find("<", pos)
            if pos < 0:
                pos = n
            content = text[start:pos]
            if "&" in content:
                for m in _BARE_AMP.finditer(text, start, pos):
                    record(Violation(8, m.start(), _BARE_AMP_MESSAGE))
            node = XmlNode(_TEXT, "", [], content, [])
        elif lead == "</":
            m = close_tag(text, pos)
            name = m[1]
            pos = m.end()
            if m[2] is None:
                record(Violation(5, pos,
                                 "attributes are not allowed on close tags"))
                end = text.find(">", pos)
                pos = n if end < 0 else end + 1
            if stack and stack[-1].name == name:
                nearest[name] = below.pop()
                del stack[-1]
                continue
            at = nearest.get(name, -1)
            if at < 0:
                record(Violation(2, start,
                                 f"close tag </{name}> matches no open tag"))
                continue
            record(Violation(4, start, f"close tag </{name}> overlaps "
                             f"<{stack[-1].name}>"))
            while len(stack) > at:
                nearest[stack.pop().name] = below.pop()
            continue
        elif lead == "<?":
            m = _NAME_RUN.match(text, pos + 2)
            target = m[0]
            if not target:
                stop = "processing instruction without a target"
                break
            cut = m.end()
            end = text.find("?>", cut)
            if end < 0:
                stop = "unterminated processing instruction"
                break
            pos = end + 2
            # exactly one separator char, so leading whitespace in data
            # survives; an empty instruction has its '?' there
            if text[cut] in XML_WHITESPACE:
                cut += 1
            node = XmlNode(_PROC_INSTR, target, [], text[cut:end], [])
            if target.lower() == "xml":
                if start == body:
                    prolog = node
                else:
                    record(Violation(3, start, "XML declaration must be at "
                                     "the start of the document"))
                continue
            if not (target[0].isalpha() or target[0] in "_:"):
                record(Violation(7, start,
                                 f"invalid instruction target {target!r}"))
        elif lead == "<!":
            if text.startswith("--", pos + 2):
                end = text.find("-->", pos + 4)
                if end < 0:
                    stop = "unterminated comment"
                    break
                pos = end + 3
                node = XmlNode(_COMMENT, "", [], text[start + 4:end], [])
            elif text.startswith("[CDATA[", pos + 2):
                end = text.find("]]>", pos + 9)
                if end < 0:
                    stop = "unterminated CDATA section"
                    break
                pos = end + 3
                node = XmlNode(_CDATA, "", [], text[start + 9:end], [])
            else:
                # an opaque declaration; '<'/'>' depth covers internal
                # subsets
                depth = 1
                for m in _ANGLES.finditer(text, pos + 2):
                    depth += 1 if m[0] == "<" else -1
                    if not depth:
                        break
                else:
                    stop = "unterminated '<!' declaration"
                    break
                pos = m.end()
                if not stack:
                    # no slot for a doctype in the document model
                    record(Violation(1, start,
                                     "declaration outside the root element"))
                    continue
                node = XmlNode(_DTD, "", [], text[start + 2:m.start()], [])
        else:
            m = open_tag(text, pos)
            name = m[1]
            if not name:
                stop = "bare '<' does not start markup"
                break
            if not (name[0].isalpha() or name[0] in "_:"):
                record(Violation(7, pos + 1, f"invalid element name {name!r}"))
            pos = m.end()
            attrs: list[Attribute] = []
            seen: Optional[set[str]] = None  # made at a second attribute
            end = m[2]  # '>' or '/>' once read
            while end is None:
                m = attr(text, pos)
                end, aname, quote, value = m.groups()
                pos = m.end()
                if end:
                    break
                off = m.start(2)
                if not aname:
                    fatal = True
                    if off == n:
                        # attached but not opened, as after '/>'
                        record(Violation(None, off, "unterminated start tag"))
                        end = "/>"
                        break
                    # skip the character and read on to the tag's end
                    record(Violation(None, off,
                                     f"unexpected {text[off]!r} in tag"))
                    pos = off + 1
                    continue
                if not (aname[0].isalpha() or aname[0] in "_:"):
                    record(Violation(7, off,
                                     f"invalid attribute name {aname!r}"))
                if quote is not None:
                    # an empty quote is '=' at the end of input
                    close = text.find(quote, pos) if quote else -1
                    if close < 0:
                        record(Violation(None, off,
                                         "unterminated attribute value"))
                        fatal = True
                        end = "/>"
                        break
                    value = text[pos:close]
                    if "&" in value:
                        for a in _BARE_AMP.finditer(text, pos, close):
                            record(Violation(8, a.start(), _BARE_AMP_MESSAGE))
                    pos = close + 1
                elif value is not None:
                    record(Violation(6, m.start(4),
                                     "attribute value must be quoted"))
                if attrs:
                    if seen is None:
                        seen = {attrs[0][0]}
                    if aname in seen:
                        record(Violation(6, off,
                                         f"duplicate attribute {aname!r}"))
                        continue
                    seen.add(aname)
                attrs.append((aname, value))
            node = XmlNode(_ELEMENT, name, attrs, "", [])
            if stack:
                stack[-1].children.append(node)
            elif root is None:
                root = node
            else:
                record(Violation(1, start, _OUTSIDE_ROOT_MESSAGE))
            if end == ">":
                below.append(nearest.get(name, -1))
                nearest[name] = len(stack)
                stack.append(node)
            continue
        if stack:
            stack[-1].children.append(node)
        elif not node.is_whitespace_text():
            # only the declaration and the root element stand at the top
            record(Violation(1, start, _OUTSIDE_ROOT_MESSAGE))
    if stop:
        record(Violation(None, start, stop))
    for node in reversed(stack):
        record(Violation(2, n, f"<{node.name}> is never closed"))
    if root is None and not (stop or fatal):
        record(Violation(1, n, "no root element"))
    return prolog, root, violations


def parse_xml(text: str) -> XmlDocument:
    """Parse an XML string, raising the first violation check_well_formed
    reports: XmlSyntaxError for a syntax error, WellFormednessError for a
    broken rule.

    Whitespace-only text nodes between elements are kept in the tree; the
    encoder decides whether they are significant.
    """
    prolog, root, violations = _scan(text)
    if violations:
        v = violations[0]
        if v.rule is None:
            raise XmlSyntaxError(v.offset, v.message)
        raise WellFormednessError(v.rule, v.offset, v.message)
    return XmlDocument(root, prolog)


def check_well_formed(text: str) -> WellFormednessReport:
    """Collect well-formedness violations without raising.

    The report is empty exactly when parse_xml succeeds, and its first
    violation is the one parse_xml raises.
    """
    return WellFormednessReport(_scan(text)[2])


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


def instruction_body(node: XmlNode) -> str:
    """What an instruction holds between <? and ?>: its target, then one
    space and its data when it has data."""
    return f"{node.name} {node.content}" if node.content else node.name


def serialize_xml(doc: XmlDocument) -> str:
    """Serialize without adding any inter-node whitespace.

    Text content is emitted verbatim (entities stay as written)."""
    out: list[str] = []
    ends: list[str] = []  # per open node its end tag, "" for a data node
    for node, _, depth in walk(doc):
        while len(ends) > depth:
            out.append(ends.pop())
        kind = node.kind
        if kind is _ELEMENT:
            tag, attrs = node.name, node.attributes
            if attrs:
                tag += "".join(map(serialize_attribute, attrs))
            if node.children:
                out.append(f"<{tag}>")
                ends.append(f"</{node.name}>")
            else:
                out.append(f"<{tag}/>")
            continue
        if kind is _TEXT:
            out.append(node.content)
        elif kind is _COMMENT:
            out.append(f"<!--{node.content}-->")
        elif kind is _PROC_INSTR:
            out.append(f"<?{instruction_body(node)}?>")
        elif kind is _CDATA:
            out.append(f"<![CDATA[{node.content}]]>")
        elif kind is _DTD:
            out.append(f"<!{node.content}>")
        if node.children:
            ends.append("")
    out.extend(reversed(ends))
    return "".join(out)


def structural_equal(a: XmlDocument, b: XmlDocument,
                     whitespace_significant: bool = False) -> bool:
    """Compare two documents node by node, prologs included.

    Whitespace-only text leaves are ignored unless whitespace_significant;
    a whitespace-only text node with children is compared like any other."""
    # the nodes in document order with their depths spell out the nesting
    fa, fb = (((n.kind, n.name, n.content, n.attributes, depth)
               for n, _, depth in walk(doc, drop=not whitespace_significant))
              for doc in (a, b))
    return all(x == y for x, y in zip_longest(fa, fb))
