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

DecodeState.feed reads each token in its own frame, handed the token's
entries of the stream's four columns (kind, payload, depth, key), and the
stack of open elements lives there too: it applies the attribute rules,
builds a data node's fields, closes the elements whose depth ran out,
closes back for a sibling, opens an element inline, and raises each depth
error where it finds it.  Each entry of that stack is a plain tuple, as
in the emitter's stack below, so an element costs no object of the
codec's own, only its node.  Of its own methods, a node costs only its
sink's _node, which is handed the node's parent.  Besides feed the core
has _key_name, the rare path that resolves a key, and read, the one loop
that feeds a whole stream and finishes it, for decode, the verifier and
measure alike: it refuses a stream with no tokens, then zips the columns
and calls feed once per token, building no token.

One emitter loop writes both forms in one pass over the tree, appending
each token's kind and payload to the stream's columns.  It keeps the
stack of open elements the decoder will hold, in its own frame as feed
does: a plain list whose entries are tuples of their element's column
index, the nodes attached up to it, and what nearest held for its name
before it opened, put back when it pops, and nearest, a name's topmost
open element.  The depth markers it sets go into a dict by column index,
turned into the depths column after the loop.  The safe-sibling form
writes every later element child as a sibling token.  Every node already
emitted decodes under its true parent p, so that stack is the ancestors
up to p plus at most one finished subtree still open above p.  Two local
rules keep it so:

* before a data or child token, if p is not the innermost open element,
  the open child of p gets a depth marker counting the nodes attached
  since it opened, which closes it and everything above it;
* a sibling token is kept when the nearest open element with its name is
  the open child of p, or when no open element has its name and that
  child is the innermost; otherwise it becomes a child token.

The canonical form is the special case with no sibling tokens, in which
every element takes an explicit depth when it closes, that is when the
first node not below it comes.

xml_model.walk(doc, drop) is the one statement of what an encoding
writes and in what order: the prolog, when there is one, then the root's
tree, every node in document order less the insignificant whitespace-only
text leaves, each with its parent and its number of ancestors.  encode
walks a document once: the canonical form reads the walk as it goes, and
the sibling form keeps it in a list that the verifier reads after the
emitter loop.  encode refuses a prolog that is not an instruction and a
root that is not an element; the loop checks each other node in its own
frame as it writes it, a name once per distinct name, so the first node
in document order that cannot be written raises Unencodable.  A data node
with children raises before any of its children come, so every node the
loop reaches has only element ancestors.
A text token takes the dual form when it ends in a prefix character,
unless it follows a bare =, where a dual would read back as a quoted
value.  A node holding a field its kind has no token for (content on an
element; a name, attributes or children on a data node other than an
instruction's name) cannot be written either.

The sibling form is then checked without building a tree.  The decoder's
core reads the stream and hands each node's kind, name, content,
attribute list and parent, the innermost open element, to a one-method
sink whose open elements are the caller's own nodes.  Its _node takes the
next node of the walk encode took, in document order, which must have the
kind, name and content the core read, the attributes the core gave it by
the next node or the end, and as its parent in the caller's tree the
parent the core passed.  The check needs nothing from the emitter but its
stream, and it is exact.  Decoding makes one node per element or data
token, in stream order, from that token and the attribute tokens after
it, and puts it under the innermost open element, so the decoded nodes
come out in document order.  The check pairs them one to one with the
caller's nodes in document order, with equal fields and corresponding
parents, and leaves no node unpaired.  That holds exactly when the stream
decodes to the caller's tree, less the whitespace the walk skips.  A
stream the core rejects raises Unencodable as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import StrEnum
from math import inf
from typing import Iterable, Iterator, Optional

from .errors import BadArgument, XStringError
from .grammar import (NUL, PREFIX_CHARS, WHITESPACE, EscapeMode, PrefixKind,
                      XsDocument, checked_escaping, name_fault, reads_as_key)
from .xml_model import (Attribute, NodeKind, XmlDocument, XmlNode,
                        instruction_body, walk)


# what walk yields per node: (node, parent, depth)
_Walked = tuple[XmlNode, Optional[XmlNode], int]


class EncodeMode(StrEnum):
    SAFE_SIBLING = "sibling"
    CANONICAL = "canonical"


@dataclass(frozen=True)
class EncodeOptions:
    mode: str = EncodeMode.SAFE_SIBLING
    escaping: EscapeMode = EscapeMode.ENTITY
    drop_insignificant_whitespace: bool = True

    def __post_init__(self):
        if self.mode not in list(EncodeMode):
            raise BadArgument(f"unknown encode mode {self.mode!r}")
        checked_escaping(self.escaping)
        if type(self.drop_insignificant_whitespace) is not bool:
            raise BadArgument("drop_insignificant_whitespace is not a bool")


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


# the token kind of each data node but text and an instruction
_DATA_KINDS = {NodeKind.COMMENT: PrefixKind.COMMENT,
               NodeKind.CDATA: PrefixKind.CDATA,
               NodeKind.DTD: PrefixKind.DTD}
# the node kind of each element and data token, by the token's kind
_NODE_KINDS = {PrefixKind.CHILD: NodeKind.ELEMENT,
               PrefixKind.SIBLING: NodeKind.ELEMENT,
               PrefixKind.TEXT: NodeKind.TEXT,
               PrefixKind.TEXT_DUAL: NodeKind.TEXT,
               PrefixKind.PROC_INSTR: NodeKind.PROC_INSTR,
               **{token: node for node, token in _DATA_KINDS.items()}}
# the kinds feed and the emitters compare against, bound once as module
# globals
_CHILD, _SIBLING = PrefixKind.CHILD, PrefixKind.SIBLING
_ATTR_NAME, _ATTR_VALUE = PrefixKind.ATTR_NAME, PrefixKind.ATTR_VALUE
_ELEMENT, _TEXT, _PROC_INSTR = (NodeKind.ELEMENT, NodeKind.TEXT,
                                NodeKind.PROC_INSTR)
# what an element token after the root says; any other token is data
_AFTER_ROOT = {_CHILD: "second root element",
               _SIBLING: "sibling after the root closed"}


class DecodeState:
    """Decoder state.  Its attributes are public because callers that feed
    tokens one by one read root and prolog afterwards; tests do not
    inspect the stack.

    open_stack holds the open elements, outermost first, each as a tuple
    (node, close, low, below): the element's node; its close count, the
    node count at which its depth marker runs out, or None without one;
    low, the lowest close count at or below it, inf when there is none,
    so the elements due to close are found from the top; and below, what
    nearest held for its name before it opened.  nearest maps a name to
    the index of the topmost open element with that name, or -1, and
    finds the element a sibling token closes back to; a pop puts back the
    entry's below.  Each node costs O(1) amortized at any depth.

    This core reads every token, each in one frame of feed: it keeps the
    stack, the budgets, the sibling close-back and the attribute rules,
    raises every DecodeError, and works out the kind, name and content of
    each node and the attribute list of the element opened last.  Only a
    keyed name leaves that frame, for _key_name; read feeds it a whole
    stream, one token's four column entries per call, and finishes.  One
    sink method, the only one a node calls, takes it from there:
    _node(kind, name, content, attrs, parent) makes the node, with attrs
    the list the core goes on filling and parent the innermost open
    element's node, None for the root and the prolog.  A sink sees a node
    only once the core has accepted its token, so the core's error comes
    first.  The one here builds the tree decode returns."""

    def __init__(self):
        self.open_stack: list[tuple[XmlNode, Optional[int], float, int]] = []
        self.nearest: dict[str, int] = {}
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
              attrs: list[Attribute], parent: Optional[XmlNode]) -> XmlNode:
        node = XmlNode(kind, name, attrs, content, [])
        if parent is not None:
            parent.children.append(node)
        return node

    # -- rare paths ---------------------------------------------------------

    def _key_name(self, payload: str, key: int) -> str:
        # a key binder stores its name, a key reference looks it up
        if payload:
            self._keys[key] = payload
            return payload
        name = self._keys.get(key)
        if name is None:
            raise UnknownKey(f"key {key} was never bound")
        return name

    # -- the token reader ---------------------------------------------------

    def feed(self, kind: PrefixKind, payload: str, depth: Optional[int],
             key: Optional[int]) -> None:
        stack = self.open_stack
        if kind is _ATTR_VALUE:
            if not stack:
                raise DanglingAttr("attribute outside any open element")
            if not self._pending_attr:
                raise DanglingAttr("attribute value without a preceding name")
            attrs = self._attrs
            attrs[-1] = (attrs[-1][0], payload)
            self._pending_attr = False
            return
        if kind is _ATTR_NAME:
            if not stack:
                raise DanglingAttr("attribute outside any open element")
            if self._attached > self._opened_at:
                raise AttrAfterContent("attribute after content in "
                                       f"<{stack[-1][0].name}>")
            name = payload if key is None else self._key_name(payload, key)
            if name in self._attr_names:
                raise DuplicateAttr(f"duplicate attribute {name!r}")
            self._attr_names.add(name)
            self._attrs.append((name, None))
            self._pending_attr = True
            return
        self._pending_attr = False
        node_kind = _NODE_KINDS[kind]
        if node_kind is _ELEMENT:
            name = payload if key is None else self._key_name(payload, key)
        else:
            # a data node; an instruction's target runs to its first
            # whitespace
            name, content = "", payload
            if node_kind is _PROC_INSTR:
                ws = WHITESPACE.search(content)
                cut = ws.start() if ws else len(content)
                if cut == 0:
                    raise BadToken("instruction without a target")
                name, content = content[:cut], content[cut + 1:]
        attached = self._attached
        nearest = self.nearest
        # no close count is below the node count, so the top's low shows
        # whether some entry is due: pop down to the outermost one due,
        # which must leave none of the popped expecting more nodes
        while stack and stack[-1][2] == attached:
            node, close, _, below = stack.pop()
            nearest[node.name] = below
            if close is not None and close > attached:
                raise BudgetOverrun(
                    f"<{node.name}> still expects {close - attached} "
                    "nodes when an enclosing depth ran out")
        # what may come while no element is open: a child token opening
        # the root, and before it one instruction, the prolog
        if not stack and (kind is not _CHILD or self.root is not None):
            if self.root is not None:
                raise ContentAfterRoot(_AFTER_ROOT.get(
                    kind, "data after the root closed"))
            if node_kind is _PROC_INSTR and self.prolog is None:
                self.prolog = self._node(node_kind, name, content, [], None)
                return
            raise BadStreamStart("stream must start with a child element")
        if node_kind is not _ELEMENT:
            self._node(node_kind, name, content, [], stack[-1][0])
            self._attached = attached + 1
            return
        if kind is _SIBLING:
            # close back to the nearest open element with the name, or
            # just the innermost one when none has it
            idx = nearest.get(name, -1)
            cut = idx if idx >= 0 else len(stack) - 1
            if stack[-1][2] != inf and idx:
                # after the due pops, the first element it closes that has
                # a close count still expects nodes; the root check takes
                # idx == 0.  The entries scanned close next and pay for it
                for node, close, _, _ in stack[cut:]:
                    if close is not None:
                        how = "would close" if idx < 0 else "closure crosses"
                        raise BudgetConflict(
                            f"sibling <{name}> {how} <{node.name}> with "
                            f"{close - attached} nodes of its depth "
                            "unfilled")
            if cut == 0:
                raise BudgetConflict(f"sibling <{name}> would close the root")
            while len(stack) > cut:
                node, _, _, below = stack.pop()
                nearest[node.name] = below
        # open the element
        attrs: list[Attribute] = []
        if stack:
            parent, _, low, _ = stack[-1]
            elem = self._node(_ELEMENT, name, "", attrs, parent)
            attached += 1
            self._attached = attached
        else:
            elem = self.root = self._node(_ELEMENT, name, "", attrs, None)
            low = inf
        close = depth
        if close is not None:
            close += attached
            if close < low:
                low = close
        stack.append((elem, close, low, nearest.get(name, -1)))
        nearest[name] = len(stack) - 1
        self._opened_at = attached
        self._attrs = attrs
        self._attr_names.clear()

    def read(self, doc: XsDocument) -> XmlDocument:
        """Feed every token of doc, then finish; a stream with no tokens
        raises EmptyStream."""
        if not doc.kinds:
            raise EmptyStream("no tokens")
        feed = self.feed
        for kind, payload, depth, key in zip(doc.kinds, doc.payloads,
                                             doc.depths, doc.keys):
            feed(kind, payload, depth, key)
        return self.finish()

    def finish(self) -> XmlDocument:
        if self.root is None:
            raise EmptyStream("no root element in the stream")
        return XmlDocument(self.root, self.prolog)


def decode(doc: XsDocument) -> XmlDocument:
    """Rebuild the XML document a token stream describes."""
    return DecodeState().read(doc)


_NOT_DECODED = "encoded stream does not decode to the document"


class Verifier(DecodeState):
    """Decodes a stream onto the caller's own tree, building none; encode
    checks its sibling form with it and metrics.measure any stream.

    It is given the nodes the caller's tree writes, a walk(doc, drop)
    taken into a list.  Each element and data token takes the next of
    them, in document order, and must carry its kind, name and content;
    the open entries hold the caller's elements, so a node lands under its
    parent exactly when the core passes that parent.  The attribute
    list the core fills for a node is compared with the node's own once
    the next node or the end comes."""

    def __init__(self, written: list[_Walked]):
        super().__init__()
        self._written = iter(written)
        # the attributes the stream gave the last node, and the node's own
        self._got: list[Attribute] = []
        self._want: list[Attribute] = []

    def _node(self, kind: NodeKind, name: str, content: str,
              attrs: list[Attribute], parent: Optional[XmlNode]) -> XmlNode:
        node, written_parent, _ = next(self._written, (None, None, 0))
        if (self._got != self._want or node is None or node.kind is not kind
                or node.name != name or node.content != content
                or parent is not written_parent):
            raise Unencodable(_NOT_DECODED)
        self._got, self._want = attrs, node.attributes
        return node

    def finish(self) -> XmlDocument:
        got = super().finish()
        if self._got != self._want or next(self._written, None) is not None:
            raise Unencodable(_NOT_DECODED)
        return got


def _verify(written: list[_Walked], doc: XsDocument) -> None:
    """Raise Unencodable unless doc decodes to the nodes written."""
    try:
        Verifier(written).read(doc)
    except DecodeError as e:
        raise Unencodable(_NOT_DECODED) from e


# ---------------------------------------------------------------------------
# encoding

def descendant_count(node: XmlNode) -> int:
    """Nodes in the subtree below node, attributes excluded."""
    return sum(1 for _ in walk((node,))) - 1


_NUL_IN_DATA = "NUL in character data cannot be written"
_DEFAULT_OPTIONS = EncodeOptions()  # frozen, so one serves every call


def _writable_name(name: str, what: str) -> str:
    if name_fault(name, None):
        raise Unencodable(f"{what} name {name!r} " + (
            "would read back as a key reference" if reads_as_key(name)
            else "cannot be written"))
    return name


def _written(doc: XmlDocument, drop: bool) -> Iterator[_Walked]:
    """What an encoding of doc writes, walk(doc, drop); raises Unencodable
    for a prolog or root that cannot be written."""
    if doc.prolog is not None and doc.prolog.kind is not _PROC_INSTR:
        raise Unencodable(
            f"prolog {doc.prolog.kind} node cannot be written: only "
            "a processing instruction can precede the root")
    if doc.root.kind is not _ELEMENT:
        raise Unencodable(f"root {doc.root.kind} node cannot be "
                          "written: the root must be an element")
    return walk(doc, drop)


def _emit(written: Iterable[_Walked], escaping: EscapeMode,
          canonical: bool) -> XsDocument:
    # The decoder's stack of open elements, as (the element's column
    # index, nodes attached up to and including the element, what nearest
    # held for its name before it opened), and nearest as feed keeps it.
    # Every node emitted so far decodes under its true parent, so the
    # stack holds the ancestors of the next node plus the chain of the
    # last finished element child above them.  Until the parent has an
    # element child the stack ends at the parent, so a sibling token needs
    # no check that one came before.  In the canonical form every element
    # is a child token and takes its depth when it closes.
    stack: list[tuple[int, int, int]] = []
    nearest: dict[str, int] = {}
    writable: set[str] = set()  # the names name_fault has passed
    entity = escaping is EscapeMode.ENTITY
    kinds: list[PrefixKind] = []
    payloads: list[str] = []
    add_kind, add_payload = kinds.append, payloads.append
    marks: dict[int, int] = {}  # the depth markers, by column index
    attached = 0
    for node, _, depth in written:
        # depth is the node's own stack index, its parent's plus one; kind
        # is None for a data node
        kind = None
        if node.kind is _ELEMENT:
            name = node.name
            kind = _CHILD
            if not canonical:
                at = nearest.get(name, -1)
                if at == depth or (at < 0 and len(stack) == depth + 1):
                    kind = _SIBLING
        if len(stack) > depth:
            if kind is not _SIBLING:
                # the depth marker closes the open child of the parent and
                # everything above it right after the nodes attached since
                # it opened; a sibling token closes back to it instead
                i, start, _ = stack[depth]
                marks[i] = attached - start
            while len(stack) > depth:
                i, start, below = stack.pop()
                nearest[payloads[i]] = below
                if canonical:
                    marks[i] = attached - start
        attached += 1
        if kind is not None:
            if node.content:
                raise Unencodable("element content cannot be written")
            if name not in writable:
                writable.add(_writable_name(name, "element"))
            stack.append((len(kinds), attached, nearest.get(name, -1)))
            nearest[name] = depth
            add_kind(kind)
            add_payload(name)
            attrs = node.attributes
            for key, value in attrs:
                if key not in writable:
                    writable.add(_writable_name(key, "attribute"))
                add_kind(_ATTR_NAME)
                add_payload(key)
                if value is not None:
                    if NUL in value:
                        raise Unencodable(_NUL_IN_DATA)
                    add_kind(_ATTR_VALUE)
                    add_payload(value)
            if len(attrs) > 1:
                keys: set[str] = set()
                for key, _ in attrs:
                    if key in keys:
                        raise Unencodable(
                            f"duplicate attribute {key!r} cannot be written")
                    keys.add(key)
            continue
        if node.children or node.attributes or (
                node.name and node.kind is not _PROC_INSTR):
            raise Unencodable(f"{node.kind} node with a name, "
                              "attributes or children cannot be written")
        content = node.content
        if NUL in content:
            raise Unencodable(_NUL_IN_DATA)
        if node.kind is _TEXT:
            # a trailing prefix character needs the dual form in entity
            # mode, except right after a bare =, where a dual would read
            # back as a quoted value; plain text escapes the character
            # instead
            last = content[-1:]
            dual = (entity and last and last in PREFIX_CHARS and last != '"'
                    and not (kinds and kinds[-1] is _ATTR_VALUE
                             and not payloads[-1]))
            kind = PrefixKind.TEXT_DUAL if dual else PrefixKind.TEXT
        elif node.kind is _PROC_INSTR:
            name = node.name  # data up to its first whitespace, not a name
            if not name or NUL in name or WHITESPACE.search(name):
                raise Unencodable(f"pi name {name!r} cannot be written")
            kind = PrefixKind.PROC_INSTR
            content = instruction_body(node)
        else:
            kind = _DATA_KINDS[node.kind]
        add_kind(kind)
        add_payload(content)
    if canonical:
        for i, start, _ in stack:
            marks[i] = attached - start
    depths: list[Optional[int]] = [None] * len(kinds)
    for i, mark in marks.items():
        depths[i] = mark
    return XsDocument.from_columns(kinds, payloads, depths,
                                   [None] * len(kinds), escaping)


def _default_options(opts: object) -> EncodeOptions:
    """The defaults for None, where EncodeOptions are due; else BadArgument."""
    if opts is not None:
        raise BadArgument(f"{opts!r} is not an EncodeOptions")
    return _DEFAULT_OPTIONS


def emit(doc: XmlDocument, opts: Optional[EncodeOptions] = None) -> XsDocument:
    """The stream encode writes, without encode's check that its sibling
    form decodes to doc: for a caller that checks the stream itself, as
    metrics.measure does.  It pays: with encode in its place, xstring
    stats ran 1.34-1.50x as long on the four benchmark workload shapes."""
    if not isinstance(opts, EncodeOptions):
        opts = _default_options(opts)
    return _emit(_written(doc, opts.drop_insignificant_whitespace),
                 opts.escaping, opts.mode == EncodeMode.CANONICAL)


def encode(doc: XmlDocument, opts: Optional[EncodeOptions] = None) -> XsDocument:
    """Encode a document; decode(encode(d)) is structurally equal to d."""
    if not isinstance(opts, EncodeOptions):
        opts = _default_options(opts)
    written = _written(doc, opts.drop_insignificant_whitespace)
    if opts.mode == EncodeMode.CANONICAL:
        return _emit(written, opts.escaping, True)
    written = list(written)
    xs = _emit(written, opts.escaping, False)
    _verify(written, xs)
    return xs
