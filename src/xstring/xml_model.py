"""XML document model: node types, a small non-validating parser, a serializer,
and a well-formedness checker.

The model covers exactly the six node kinds the string encoding can express:
elements, text, comments, processing instructions, CDATA sections, and opaque
``<!...>`` declarations.  Entity references in character data are never
expanded; text is carried verbatim so that a parse/serialize round trip is
byte-faithful for the data it touches.

One function, _scan, reads the text once and always collects: it
returns the tree it built and every violation, in the order met.  It
reads the text as the rows of one compiled pattern, each a construct and
the text after it, and builds each node with one constructor call; a
construct the pattern refuses is read step by step by _read_construct,
and the rows resume where that reading stopped.  check_well_formed
reports the list and parse_xml raises its first entry, so both give the
same first error, found at linear cost.

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

    def line(self) -> str:
        """The violation as xstring check prints it and WellFormednessError
        says it: "rule N at offset O: message", with "syntax" in place of
        "rule N" for a plain syntax error."""
        rule = "syntax" if self.rule is None else f"rule {self.rule}"
        return f"{rule} at offset {self.offset}: {self.message}"


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
        super().__init__(Violation(rule, offset, message).line())
        self.rule = rule
        self.offset = offset
        self.reason = message


# a name character is alphanumeric or one of "._-:", which is exactly \w
# plus ".-:" (\w already holds the underscore)
_NAME_CHAR = r"[\w.\-:]"
_NAME = f"{_NAME_CHAR}*"
_NAME_RUN = re.compile(_NAME)
_SPACE = f"[{XML_WHITESPACE}]*+"
# a name the row pattern takes unchecked: an ASCII letter, '_' or ':'
# first.  A name that starts otherwise, valid or not, is read step by
# step, where the name-start rule is applied
_PLAIN_NAME = f"[A-Za-z_:]{_NAME_CHAR}*+"
# one attribute as the row pattern takes it: a name (1), then optionally
# '=' and a quoted value, whose characters between the quotes are (2); a
# lookbehind at the opening quote picks the closing one
_PAIR = (f"({_PLAIN_NAME})(?:{_SPACE}={_SPACE}[\"']"
         "((?<=\")[^\"]*+|(?<=')[^']*+)[\"'])?+")
_PAIRS = re.compile(_PAIR)
# one row: a construct that is well formed as it stands, then the text
# after it up to the next '<' (14).  Only a row at the start of a run of
# rows may lack the construct, and no row is empty.  A '<' that the other
# alternatives refuse matches the empty fault group (13), so the rows of
# a text leave no gap
_ROW = re.compile(
    "(?=.)(?:<(?:"
    # a start tag: its name (1), its attributes (2, with the last one's
    # name and value in 3 and 4), "" when one of them has no value (5) and
    # "/" when the tag closes itself (6)
    f"({_PLAIN_NAME})((?:{_SPACE}{_PAIR}(?:(?<=[\"'])|()))*+)"
    f"{_SPACE}(/?)>"
    # a close tag's name (7)
    f"|/({_NAME_CHAR}*+){_SPACE}>"
    # a comment (8), a CDATA section (9), an instruction's target (10) and
    # its data after one separator (11), a declaration with no '<' (12)
    r"|!--(.*?)-->|!\[CDATA\[(.*?)\]\]>"
    f"|\\?({_NAME_CHAR}++)[{XML_WHITESPACE}]?+(.*?)\\?>"
    r"|!(?!--|\[CDATA\[)([^<>]*+)>"
    r"|()))?+([^<]*+)", re.S)
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

    The loop reads the rows of _ROW: one construct and the text after it,
    the construct's parts in the groups.  It builds each node with one
    XmlNode(...) call, and checks in Python only what the pattern leaves
    open: a repeated attribute name, a bare '&', a close tag that does
    not close the innermost open element, an instruction's target, and
    where a declaration stands.  A row that the pattern refused, or whose
    attributes fail a check, is a fault row: _read_construct reads that
    one construct step by step from its '<', recording its violations in
    order, and the rows resume where it stopped.  After a syntax error the
    scan stops at the end of the construct it is in."""
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
    fatal = False  # a syntax error stops the scan after its construct
    n = len(text)
    # a byte order mark is not content (XML 1.0 4.3.3); offsets stay
    # offsets into text
    pos = body = 1 if text.startswith("\ufeff") else 0
    while pos < n and not fatal:
        for m in _ROW.finditer(text, pos):
            (tag, spec, _, _, bare, slash, close, comment, cdata, target,
             data, decl, fault, run) = m.groups()
            if tag:
                attrs = []
                if spec:
                    if bare is None:
                        attrs = _PAIRS.findall(spec)
                    else:
                        # split gives None, where findall gives "", for an
                        # attribute without a value: [space, name, value]
                        # per attribute
                        split = _PAIRS.split(spec)
                        attrs = list(zip(split[1::3], split[2::3]))
                    if (len(attrs) > 1 and len(dict(attrs)) < len(attrs)
                            or "&" in spec and _BARE_AMP.search(spec)):
                        # read step by step, which records each repeated
                        # name and bare '&' in the order met
                        attrs = _read_construct(text, m.start(), record)[1]
            elif close is None:
                if fault is not None:
                    # the text after the construct is the next row's
                    tag, attrs, slash, close, decl, pos, fatal = (
                        _read_construct(text, m.start(), record))
                    run = None
                node = None
                if comment is not None:
                    node = XmlNode(_COMMENT, "", [], comment, [])
                elif cdata is not None:
                    node = XmlNode(_CDATA, "", [], cdata, [])
                elif target and target.lower() == "xml":
                    if m.start() == body:
                        prolog = XmlNode(_PROC_INSTR, target, [], data, [])
                    else:
                        record(Violation(3, m.start(), "XML declaration must "
                                         "be at the start of the document"))
                elif target:
                    if not (target[0].isalpha() or target[0] in "_:"):
                        record(Violation(7, m.start(), "invalid instruction "
                                         f"target {target!r}"))
                    node = XmlNode(_PROC_INSTR, target, [], data, [])
                elif decl is not None and stack:
                    node = XmlNode(_DTD, "", [], decl, [])
                elif decl is not None:
                    # no slot for a doctype in the document model
                    record(Violation(1, m.start(),
                                     "declaration outside the root element"))
                if node is not None and stack:
                    stack[-1].children.append(node)
                elif node is not None:
                    # only the declaration and the root element stand at
                    # the top
                    record(Violation(1, m.start(), _OUTSIDE_ROOT_MESSAGE))
            if tag:
                node = XmlNode(_ELEMENT, tag, attrs, "", [])
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    record(Violation(1, m.start(), _OUTSIDE_ROOT_MESSAGE))
                if not slash:
                    below.append(nearest.get(tag, -1))
                    nearest[tag] = len(stack)
                    stack.append(node)
            elif close is not None:
                if stack and stack[-1].name == close:
                    nearest[close] = below.pop()
                    del stack[-1]
                else:
                    at = nearest.get(close, -1)
                    if at < 0:
                        record(Violation(2, m.start(), f"close tag </{close}> "
                                         "matches no open tag"))
                    else:
                        record(Violation(4, m.start(), f"close tag </{close}> "
                                         f"overlaps <{stack[-1].name}>"))
                        while len(stack) > at:
                            nearest[stack.pop().name] = below.pop()
            if run:
                if "&" in run:
                    for a in _BARE_AMP.finditer(text, m.start(14), m.end()):
                        record(Violation(8, a.start(), _BARE_AMP_MESSAGE))
                if stack:
                    stack[-1].children.append(XmlNode(_TEXT, "", [], run, []))
                elif run.strip(XML_WHITESPACE):
                    record(Violation(1, m.start(14), _OUTSIDE_ROOT_MESSAGE))
            elif fault is not None:
                break  # the rows start again at pos
        else:
            break
    for node in reversed(stack):
        record(Violation(2, n, f"<{node.name}> is never closed"))
    if root is None and not fatal:
        record(Violation(1, n, "no root element"))
    return prolog, root, violations


def _read_construct(text: str, start: int, record
                    ) -> tuple[str, list[Attribute], str, Optional[str],
                               Optional[str], int, bool]:
    """Read the construct at start, where text[start] is '<', one step at
    a time, recording its violations in the order met: _scan's path for
    a fault row.

    Returns what _scan reads from a row's groups: a start tag's name (""
    for none), its attributes and "/" when it opens nothing, a close tag's
    name and a declaration's content; then the position after the
    construct and whether a syntax error stops the scan there.  A comment,
    CDATA section or instruction comes here only to stop it."""
    n = len(text)
    m = _OPEN_TAG.match(text, start)
    name = m[1]
    if name:
        if not (name[0].isalpha() or name[0] in "_:"):
            record(Violation(7, start + 1, f"invalid element name {name!r}"))
        pos = m.end()
        attr = _ATTR.match
        attrs: list[Attribute] = []
        seen: Optional[set[str]] = None  # made at a second attribute
        fatal = False  # a syntax error in a tag stops the scan after it
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
                record(Violation(7, off, f"invalid attribute name {aname!r}"))
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
                    record(Violation(6, off, f"duplicate attribute {aname!r}"))
                    continue
                seen.add(aname)
            attrs.append((aname, value))
        return name, attrs, "/" if end == "/>" else "", None, None, pos, fatal
    lead = text[start + 1:start + 2]
    if lead == "/":
        m = _CLOSE_TAG.match(text, start)
        pos = m.end()
        if m[2] is None:
            record(Violation(5, pos,
                             "attributes are not allowed on close tags"))
            end = text.find(">", pos)
            pos = n if end < 0 else end + 1
        return "", [], "", m[1], None, pos, False
    if lead == "?":
        stop = ("unterminated processing instruction"
                if _NAME_RUN.match(text, start + 2)[0]
                else "processing instruction without a target")
    elif text.startswith("!--", start + 1):
        stop = "unterminated comment"
    elif text.startswith("![CDATA[", start + 1):
        stop = "unterminated CDATA section"
    elif lead == "!":
        # an opaque declaration; '<'/'>' depth covers internal subsets
        depth = 1
        for m in _ANGLES.finditer(text, start + 2):
            depth += 1 if m[0] == "<" else -1
            if not depth:
                return ("", [], "", None, text[start + 2:m.start()], m.end(),
                        False)
        stop = "unterminated '<!' declaration"
    else:
        stop = "bare '<' does not start markup"
    record(Violation(None, start, stop))
    return "", [], "", None, None, n, True


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
