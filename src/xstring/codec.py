"""Encoding XML documents to token streams and decoding them back.

Decoding is a single pass over the tokens with a stack of open elements:

* a child token opens an element under the innermost open element;
* a sibling token first closes back to the nearest open element with the
  same name (or just the innermost one when no name matches) and then
  opens next to it;
* data tokens become children of the innermost open element;
* attribute tokens attach to the most recently opened element, which must
  not have content yet;
* an element carrying a depth marker N encloses exactly the next N nodes
  of the stream, counting elements and data nodes at any nesting level and
  ignoring attributes: it closes when the count of attached nodes reaches
  its close count, the count when it opened plus N;
* the end of the stream closes everything still open.

DecodeState.feed reads each token in its own frame: it resolves key
references, applies the attribute rules, builds a data node's fields and
opens an element inline.  Of its own methods, a node costs only its
sink's _node and _attach.  The rare paths are helpers: the pop of elements
whose depth ran out, called only when the top's lowest close count is due,
and the close-back checks, called only when some open element has a depth
marker.

Safe-sibling encoding emits the tree in one pass, writing every later
element child as a sibling token, and keeps the stack of open elements the
decoder will hold.  Every node already emitted decodes under its true
parent p, so that stack is the ancestors up to p plus at most one finished
subtree still open above p.  Two local rules keep it so:

* before a data or child token, if p is not the innermost open element,
  the open child of p gets a depth marker counting the nodes attached
  since it opened, which closes it and everything above it;
* a sibling token is kept when the nearest open element with its name is
  the open child of p, or when no open element has its name and that
  child is the innermost; otherwise it becomes a child token.

Canonical encoding skips sibling tokens entirely and gives every element
an explicit depth, set when the first node not below it comes.

written_nodes is the one statement of what an encoding writes and in what
order: the prolog, then what xml_model.walk yields from the root, every
node in document order less the insignificant whitespace-only text
leaves, each with its parent and its number of ancestors.  Both emitters
and the verifier read it.  encode refuses a prolog that is not an
instruction and a root that is not an element; the emitters check each
other node as they write it, so the first node in document order that
cannot be written raises Unencodable.  A data node with children raises
before any of its children come, so every node an emitter reaches has
only element ancestors.
A text token takes the dual form when it ends in a prefix character,
unless it follows a bare =, where a dual would read back as a quoted
value.  A node holding a field its kind has no token for (content on an
element; a name, attributes or children on a data node other than an
instruction's name) cannot be written either.

The sibling form is then checked without building a tree.  The decoder's
core reads the stream and hands each node's kind, name, content and
attribute list to a two-method sink whose open elements are the caller's
own nodes.  Its _node takes the next node written_nodes yields, in
document order, which must have the kind, name and content the core read,
and the attributes the core gave it by the next node or the end; its
_attach requires that node's parent in the caller's tree to be the
innermost open element.  The check needs nothing from the emitter but its
tokens, and it is exact.  Decoding makes one node per element or data
token, in stream order, from that token and the attribute tokens after
it, and puts it under the innermost open element, so the decoded nodes
come out in document order.  The check pairs them one to one with the
caller's nodes in document order, with equal fields and corresponding
parents, and leaves no node unpaired.  That holds exactly when the stream
decodes to the caller's tree, less the whitespace written_nodes skips.  A
stream the core rejects raises Unencodable as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterator, Optional

from .errors import XStringError
from .grammar import (NUL, PREFIX_CHARS, WHITESPACE, EscapeMode, PrefixKind,
                      XsDocument, XsToken, name_fault, reads_as_key)
from .xml_model import (Attribute, NodeKind, OpenStack, XmlDocument, XmlNode,
                        walk)


class EncodeMode:
    SAFE_SIBLING = "sibling"
    CANONICAL = "canonical"


@dataclass
class EncodeOptions:
    mode: str = EncodeMode.SAFE_SIBLING
    escaping: EscapeMode = EscapeMode.ENTITY
    drop_insignificant_whitespace: bool = True

    def __post_init__(self):
        if self.mode not in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
            raise ValueError(f"unknown encode mode {self.mode!r}")


class DecodeError(XStringError):
    pass


class EmptyStream(DecodeError):
    pass


class BadStreamStart(DecodeError):
    pass


class ContentAfterRoot(DecodeError):
    pass


class BudgetConflict(DecodeError):
    pass


class BudgetOverrun(DecodeError):
    pass


class AttrAfterContent(DecodeError):
    pass


class DuplicateAttr(DecodeError):
    pass


class DanglingAttr(DecodeError):
    pass


class BadToken(DecodeError):
    pass


class UnknownKey(DecodeError):
    pass


class Unencodable(XStringError):
    pass


@dataclass(slots=True)
class OpenEntry:
    node: XmlNode
    close: Optional[int]  # node count at which the depth marker runs out
    low: float  # smallest close at or below this entry, inf when none


_DATA_KINDS = {NodeKind.COMMENT: PrefixKind.COMMENT,
               NodeKind.CDATA: PrefixKind.CDATA, NodeKind.DTD: PrefixKind.DTD}
# the node kind of each data token but an instruction
_NODE_KINDS = {PrefixKind.TEXT: NodeKind.TEXT,
               PrefixKind.TEXT_DUAL: NodeKind.TEXT,
               **{tok: node for node, tok in _DATA_KINDS.items()}}
# the kinds feed compares against, bound once as module globals
_CHILD, _SIBLING = PrefixKind.CHILD, PrefixKind.SIBLING
_ATTR_NAME, _ATTR_VALUE = PrefixKind.ATTR_NAME, PrefixKind.ATTR_VALUE
_ELEMENT, _PROC_INSTR = NodeKind.ELEMENT, NodeKind.PROC_INSTR


class DecodeState:
    """Decoder state, exposed so the stack behaviour is testable directly.

    open_stack holds the open elements, outermost first.  Each entry keeps
    its close count, if it has a depth marker, and the lowest close count
    at or below it, so the elements due to close are found from the top;
    open_stack.nearest finds the element a sibling token closes back to.
    Each node costs O(1) amortized at any depth.

    This core reads every token, each in one frame of feed: it keeps the
    stack, the budgets, the sibling close-back and the attribute rules,
    resolves key references, raises every DecodeError, and works out the
    kind, name and content of each node and the attribute list of the
    element opened last.  Only the rare paths leave that frame:
    _close_exhausted when the top's low is due, _check_close_back when a
    sibling may cut a depth short, and _unfilled for their messages.  Two
    sink methods, the only ones a node calls, take it from there:
    _node(kind, name, content, attrs) makes the node, with attrs the list
    the core goes on filling, and _attach(node) places it under the
    innermost open element.  A sink sees a node only once the core has
    accepted its token, so on the token the core rejects, the core's error
    comes first.  The ones here build the tree decode returns."""

    def __init__(self):
        self.open_stack = OpenStack()
        self.root: Optional[XmlNode] = None
        self.prolog: Optional[XmlNode] = None
        self._attached = 0
        # nodes attached up to the element opened last; the innermost
        # element holds content exactly when more have been attached since
        self._opened_at = 0
        self._pending_attr = False
        # the attributes of the element opened last, and their names; an
        # attribute for any other element finds it holding content and
        # fails before the lookup
        self._attrs: list[Attribute] = []
        self._attr_names: set[str] = set()
        self._keys: dict[int, str] = {}

    # -- tree sink ----------------------------------------------------------

    def _node(self, kind: NodeKind, name: str, content: str,
              attrs: list[Attribute]) -> XmlNode:
        return XmlNode(kind, name, attrs, content)

    def _attach(self, node: XmlNode) -> None:
        self.open_stack[-1].node.children.append(node)

    # -- rare paths ---------------------------------------------------------

    def _unfilled(self, entry: OpenEntry) -> int:
        return 0 if entry.close is None else entry.close - self._attached

    def _close_exhausted(self) -> None:
        # no close count is below the node count, so the top's low shows
        # whether some entry is due; pop down to the outermost one due
        stack = self.open_stack
        while stack and stack[-1].low == self._attached:
            popped = stack.pop()
            if self._unfilled(popped) > 0:
                raise BudgetOverrun(
                    f"<{popped.node.name}> still expects "
                    f"{self._unfilled(popped)} nodes when an enclosing "
                    "depth ran out")

    def _check_close_back(self, name: str, idx: int) -> None:
        # a sibling closing back to stack[idx], or to the innermost element
        # when idx < 0, must leave no depth unfilled; the root check sits
        # between the two in feed's order, so idx == 0 is left to it
        stack = self.open_stack
        if idx < 0:
            top = stack[-1]
            unfilled = self._unfilled(top)
            if unfilled > 0:
                raise BudgetConflict(
                    f"sibling <{name}> would close <{top.node.name}> "
                    f"with {unfilled} nodes of its depth unfilled")
        elif idx > 0:
            # the entries scanned are closed next: paid for by their pushes
            for e in stack[idx:]:
                unfilled = self._unfilled(e)
                if unfilled > 0:
                    raise BudgetConflict(
                        f"sibling <{name}> closure crosses <{e.node.name}> "
                        f"with {unfilled} nodes of its depth unfilled")

    # -- the token reader ---------------------------------------------------

    def feed(self, tok: XsToken) -> None:
        kind = tok.kind
        stack = self.open_stack
        if kind is _ATTR_VALUE:
            if not stack:
                raise DanglingAttr("attribute outside any open element")
            if not self._pending_attr:
                raise DanglingAttr("attribute value without a preceding name")
            attrs = self._attrs
            attrs[-1] = (attrs[-1][0], tok.payload)
            self._pending_attr = False
            return
        if kind is _ATTR_NAME:
            if not stack:
                raise DanglingAttr("attribute outside any open element")
            if self._attached > self._opened_at:
                raise AttrAfterContent("attribute after content in "
                                       f"<{stack[-1].node.name}>")
        else:
            self._pending_attr = False
            if kind is not _CHILD and kind is not _SIBLING:
                # a data node; an instruction's target runs to its first
                # whitespace
                node_kind = _NODE_KINDS.get(kind)
                name, content = "", tok.payload
                if node_kind is None:
                    ws = WHITESPACE.search(content)
                    cut = ws.start() if ws else len(content)
                    if cut == 0:
                        raise BadToken("instruction without a target")
                    node_kind, name, content = (_PROC_INSTR, content[:cut],
                                                content[cut + 1:])
                if stack and stack[-1].low == self._attached:
                    self._close_exhausted()
                if not stack:
                    if self.root is None:
                        if node_kind is _PROC_INSTR and self.prolog is None:
                            self.prolog = self._node(node_kind, name, content,
                                                     [])
                            return
                        raise BadStreamStart(
                            "stream must start with a child element")
                    raise ContentAfterRoot("data after the root closed")
                self._attach(self._node(node_kind, name, content, []))
                self._attached += 1
                return
        # a name: a key binder stores it, a key reference looks it up
        name = tok.payload
        key = tok.subst_key
        if key is not None:
            if name:
                self._keys[key] = name
            else:
                name = self._keys.get(key)
                if name is None:
                    raise UnknownKey(f"key {key} was never bound")
        if kind is _ATTR_NAME:
            if name in self._attr_names:
                raise DuplicateAttr(f"duplicate attribute {name!r}")
            self._attr_names.add(name)
            self._attrs.append((name, None))
            self._pending_attr = True
            return
        if stack and stack[-1].low == self._attached:
            self._close_exhausted()
        if kind is _CHILD:
            if not stack and self.root is not None:
                raise ContentAfterRoot("second root element")
        else:
            if not stack:
                if self.root is None:
                    raise BadStreamStart(
                        "stream must start with a child element")
                raise ContentAfterRoot("sibling after the root closed")
            idx = stack.nearest.get(name, -1)
            if stack[-1].low != inf:
                # some open element has a depth the close-back may cut short
                self._check_close_back(name, idx)
            if idx < 0:
                # no open element has the name: close just the innermost one
                idx = len(stack) - 1
            if idx == 0:
                raise BudgetConflict(f"sibling <{name}> would close the root")
            stack.truncate(idx)
        # open the element
        attrs: list[Attribute] = []
        elem = self._node(_ELEMENT, name, "", attrs)
        if stack:
            self._attach(elem)
            self._attached += 1
            low = stack[-1].low
        else:
            self.root = elem
            low = inf
        close = tok.depth
        if close is not None:
            close += self._attached
            if close < low:
                low = close
        stack.push(name, OpenEntry(elem, close, low))
        self._opened_at = self._attached
        self._attrs = attrs
        self._attr_names.clear()

    def finish(self) -> XmlDocument:
        if self.root is None:
            raise EmptyStream("no root element in the stream")
        self.open_stack = OpenStack()
        return XmlDocument(self.root, self.prolog)


def decode(doc: XsDocument) -> XmlDocument:
    """Rebuild the XML document a token stream describes."""
    if not doc.tokens:
        raise EmptyStream("no tokens")
    state = DecodeState()
    for tok in doc.tokens:
        state.feed(tok)
    return state.finish()


_NOT_DECODED = "encoded stream does not decode to the document"


def written_nodes(doc: XmlDocument, drop: bool
                  ) -> Iterator[tuple[XmlNode, Optional[XmlNode], int]]:
    """Each node an encoding of doc writes, in document order, with its
    parent in doc (None for the prolog and the root) and its number of
    ancestors.  Whitespace-only text without children is skipped when drop
    is set; with children it is written, and refused as a data node."""
    if doc.prolog is not None:
        yield doc.prolog, None, 0
    yield from walk(doc.root, drop)


class Verifier(DecodeState):
    """Decodes a stream onto the caller's own tree, building none; encode
    checks its sibling form with it and metrics.measure any stream.

    Each element and data token takes the next node the caller's tree
    writes, in document order, and must carry its kind, name and content;
    the open entries hold the caller's elements, so a node lands under its
    parent exactly when that parent is the innermost entry.  The attribute
    list the core fills for a node is compared with the node's own once
    the next node or the end comes."""

    def __init__(self, doc: XmlDocument, drop: bool):
        super().__init__()
        self._written = written_nodes(doc, drop)
        self._parent: Optional[XmlNode] = None
        # the attributes the stream gave the last node, and the node's own
        self._got: list[Attribute] = []
        self._want: list[Attribute] = []

    def _node(self, kind: NodeKind, name: str, content: str,
              attrs: list[Attribute]) -> XmlNode:
        node, self._parent, _ = next(self._written, (None, None, 0))
        if (self._got != self._want or node is None or node.kind is not kind
                or node.name != name or node.content != content):
            raise Unencodable(_NOT_DECODED)
        self._got, self._want = attrs, node.attributes
        return node

    def _attach(self, node: XmlNode) -> None:
        if self.open_stack[-1].node is not self._parent:
            raise Unencodable(_NOT_DECODED)

    def finish(self) -> XmlDocument:
        got = super().finish()
        if self._got != self._want or next(self._written, None) is not None:
            raise Unencodable(_NOT_DECODED)
        return got


def _verify(doc: XmlDocument, drop: bool, tokens: list[XsToken]) -> None:
    """Raise Unencodable unless tokens decode to doc."""
    state = Verifier(doc, drop)
    try:
        for tok in tokens:
            state.feed(tok)
        state.finish()
    except DecodeError as e:
        raise Unencodable(_NOT_DECODED) from e


# ---------------------------------------------------------------------------
# encoding

def descendant_count(node: XmlNode) -> int:
    """Nodes in the subtree below node, attributes excluded."""
    return sum(1 for _ in walk(node)) - 1


def _nul_free(s: str) -> str:
    if NUL in s:
        raise Unencodable("NUL in character data cannot be written")
    return s


def _writable_name(name: str, what: str) -> str:
    if name_fault(name, None):
        raise Unencodable(f"{what} name {name!r} " + (
            "would read back as a key reference" if reads_as_key(name)
            else "cannot be written"))
    return name


def _element_tokens(node: XmlNode, kind: PrefixKind,
                    tokens: list[XsToken]) -> XsToken:
    """Check an element and append its token and attribute tokens."""
    if node.content:
        raise Unencodable("element content cannot be written")
    tok = XsToken.unchecked(kind, _writable_name(node.name, "element"))
    tokens.append(tok)
    for name, value in node.attributes:
        tokens.append(XsToken.unchecked(PrefixKind.ATTR_NAME,
                                        _writable_name(name, "attribute")))
        if value is not None:
            tokens.append(XsToken.unchecked(PrefixKind.ATTR_VALUE,
                                            _nul_free(value)))
    if len(node.attributes) > 1:
        names: set[str] = set()
        for name, _ in node.attributes:
            if name in names:
                raise Unencodable(
                    f"duplicate attribute {name!r} cannot be written")
            names.add(name)
    return tok


def _data_token(node: XmlNode, escaping: EscapeMode,
                tokens: list[XsToken]) -> None:
    """Check a data node and append its token."""
    if node.children or node.attributes or (
            node.name and node.kind is not NodeKind.PROC_INSTR):
        raise Unencodable(f"{node.kind.value} node with a name, attributes "
                          "or children cannot be written")
    content = _nul_free(node.content)
    if node.kind is NodeKind.TEXT:
        # a trailing prefix character needs the dual form in entity mode,
        # except right after a bare =, where a dual would read back as a
        # quoted value; plain text escapes the character instead
        last = content[-1:]
        dual = (escaping is EscapeMode.ENTITY and last
                and last in PREFIX_CHARS and last != '"'
                and not (tokens and tokens[-1].kind is PrefixKind.ATTR_VALUE
                         and not tokens[-1].payload))
        kind = PrefixKind.TEXT_DUAL if dual else PrefixKind.TEXT
    elif node.kind in _DATA_KINDS:
        kind = _DATA_KINDS[node.kind]
    else:
        name = _writable_name(node.name, node.kind.value)
        kind = PrefixKind.PROC_INSTR
        content = f"{name} {content}" if content else name
    tokens.append(XsToken.unchecked(kind, content))


def _emit_canonical(doc: XmlDocument, escaping: EscapeMode, drop: bool,
                    tokens: list[XsToken]) -> None:
    # (token, nodes emitted up to and including it) per open element; its
    # depth is the number of nodes emitted before the first one not below it
    open_elems: list[tuple[XsToken, int]] = []
    emitted = 0
    for node, _, depth in written_nodes(doc, drop):
        while len(open_elems) > depth:
            tok, start = open_elems.pop()
            tok.depth = emitted - start
        emitted += 1
        if node.kind is _ELEMENT:
            tok = _element_tokens(node, PrefixKind.CHILD, tokens)
            open_elems.append((tok, emitted))
        else:
            _data_token(node, escaping, tokens)
    for tok, start in open_elems:
        tok.depth = emitted - start


def _emit_safe_sibling(doc: XmlDocument, escaping: EscapeMode, drop: bool,
                       tokens: list[XsToken]) -> None:
    # The decoder's stack of open elements, as (token, nodes attached up
    # to and including the element).  Every node emitted so far decodes
    # under its true parent, so the stack holds the ancestors of the next
    # node plus the chain of the last finished element child above them.
    # Until the parent has an element child the stack ends at the parent,
    # so a sibling token needs no check that one came before.
    stack = OpenStack()
    attached = 0

    def close_above(p: int) -> None:
        # the depth marker closes the open child of stack[p] and everything
        # above it right after the nodes attached since it opened
        if len(stack) > p + 1:
            tok, start = stack[p + 1]
            tok.depth = attached - start
            stack.truncate(p + 1)

    for node, _, depth in written_nodes(doc, drop):
        p = depth - 1  # stack index of the node's parent, -1 for none
        if node.kind is not _ELEMENT:
            close_above(p)
            attached += 1
            _data_token(node, escaping, tokens)
            continue
        at = stack.nearest.get(node.name, -1)
        if at == p + 1 or (at < 0 and len(stack) == p + 2):
            kind = PrefixKind.SIBLING
            stack.truncate(p + 1)
        else:
            kind = PrefixKind.CHILD
            close_above(p)
        tok = _element_tokens(node, kind, tokens)
        attached += 1
        stack.push(node.name, (tok, attached))


def encode(doc: XmlDocument, opts: Optional[EncodeOptions] = None) -> XsDocument:
    """Encode a document; decode(encode(d)) is structurally equal to d."""
    opts = opts or EncodeOptions()
    drop = opts.drop_insignificant_whitespace
    if doc.prolog is not None and doc.prolog.kind is not _PROC_INSTR:
        raise Unencodable(
            f"prolog {doc.prolog.kind.value} node cannot be written: only "
            "a processing instruction can precede the root")
    if doc.root.kind is not _ELEMENT:
        raise Unencodable(f"root {doc.root.kind.value} node cannot be "
                          "written: the root must be an element")
    tokens: list[XsToken] = []
    if opts.mode == EncodeMode.CANONICAL:
        _emit_canonical(doc, opts.escaping, drop, tokens)
    else:
        _emit_safe_sibling(doc, opts.escaping, drop, tokens)
        _verify(doc, drop, tokens)
    return XsDocument(tokens, opts.escaping)
