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

One decode of the result checks the round trip.  Canonical encoding skips
sibling tokens entirely and gives every element an explicit depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from .errors import XStringError
from .grammar import EscapeMode, PrefixKind, XsDocument, XsToken, PREFIX_CHARS, NUL
from .xml_model import (NodeKind, XmlDocument, XmlNode,
                        drop_insignificant_whitespace, structural_equal, walk)


class EncodeMode:
    SAFE_SIBLING = "sibling"
    CANONICAL = "canonical"


@dataclass
class EncodeOptions:
    mode: str = EncodeMode.SAFE_SIBLING
    escaping: EscapeMode = EscapeMode.ENTITY
    drop_insignificant_whitespace: bool = True
    substitution_threshold: Optional[int] = None

    def __post_init__(self):
        if self.mode not in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
            raise ValueError(f"unknown encode mode {self.mode!r}")
        if self.substitution_threshold is not None and self.substitution_threshold < 2:
            raise ValueError("substitution threshold must be at least 2")


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


class _OpenStack(list):
    """Open elements, outermost first, plus nearest: name -> index of the
    topmost open element with that name, or -1.  The decoder keeps one, and
    the sibling encoder keeps the one the decoder will hold."""

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
class OpenEntry:
    node: XmlNode
    close: Optional[int]  # node count at which the depth marker runs out
    low: float  # smallest close at or below this entry, inf when none


class DecodeState:
    """Decoder state, exposed so the stack behaviour is testable directly.

    open_stack holds the open elements, outermost first.  Each entry keeps
    its close count, if it has a depth marker, and the lowest close count
    at or below it, so the elements due to close are found from the top;
    open_stack.nearest finds the element a sibling token closes back to.
    Each node costs O(1) amortized at any depth."""

    def __init__(self):
        self.open_stack = _OpenStack()
        self.root: Optional[XmlNode] = None
        self.prolog: Optional[XmlNode] = None
        self._attached = 0
        self._pending_attr = False
        self._keys: dict[int, str] = {}

    # -- helpers ------------------------------------------------------------

    def _resolve_name(self, tok: XsToken) -> str:
        if tok.is_reference():
            name = self._keys.get(tok.subst_key)
            if name is None:
                raise UnknownKey(f"key {tok.subst_key} was never bound")
            return name
        if tok.subst_key is not None:
            self._keys[tok.subst_key] = tok.payload
        return tok.payload

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

    def _attach(self, node: XmlNode) -> None:
        self.open_stack[-1].node.children.append(node)
        self._attached += 1

    # -- token handlers -----------------------------------------------------

    def _feed_attr(self, tok: XsToken) -> None:
        if not self.open_stack:
            raise DanglingAttr("attribute outside any open element")
        owner = self.open_stack[-1].node
        if tok.kind is PrefixKind.ATTR_NAME:
            if owner.children:
                raise AttrAfterContent(
                    f"attribute after content in <{owner.name}>")
            name = self._resolve_name(tok)
            if any(n == name for n, _ in owner.attributes):
                raise DuplicateAttr(f"duplicate attribute {name!r}")
            owner.attributes.append((name, None))
            self._pending_attr = True
        else:
            if not self._pending_attr:
                raise DanglingAttr("attribute value without a preceding name")
            n, _ = owner.attributes[-1]
            owner.attributes[-1] = (n, tok.payload)
            self._pending_attr = False

    def _open(self, tok: XsToken, name: str) -> None:
        elem = XmlNode.element(name)
        stack = self.open_stack
        if stack:
            self._attach(elem)
        else:
            self.root = elem
        close = None if tok.depth is None else self._attached + tok.depth
        low = min(inf if close is None else close, stack[-1].low if stack else inf)
        stack.push(name, OpenEntry(elem, close, low))

    def _feed_child(self, tok: XsToken) -> None:
        name = self._resolve_name(tok)
        self._close_exhausted()
        if not self.open_stack and self.root is not None:
            raise ContentAfterRoot("second root element")
        self._open(tok, name)

    def _feed_sibling(self, tok: XsToken) -> None:
        name = self._resolve_name(tok)
        self._close_exhausted()
        stack = self.open_stack
        if not stack:
            if self.root is None:
                raise BadStreamStart("stream must start with a child element")
            raise ContentAfterRoot("sibling after the root closed")
        idx = stack.nearest.get(name, -1)
        if idx < 0:
            # no open element has the name: close just the innermost one
            top = stack[-1]
            if self._unfilled(top) > 0:
                raise BudgetConflict(
                    f"sibling <{name}> would close <{top.node.name}> "
                    f"with {self._unfilled(top)} nodes of its depth unfilled")
            idx = len(stack) - 1
        if idx == 0:
            raise BudgetConflict(f"sibling <{name}> would close the root")
        # the entries scanned are closed below: paid for by their pushes
        for e in stack[idx:]:
            if self._unfilled(e) > 0:
                raise BudgetConflict(
                    f"sibling <{name}> closure crosses <{e.node.name}> "
                    f"with {self._unfilled(e)} nodes of its depth unfilled")
        stack.truncate(idx)
        self._open(tok, name)

    def _feed_data(self, tok: XsToken) -> None:
        kind = tok.kind
        if kind in (PrefixKind.TEXT, PrefixKind.TEXT_DUAL):
            node = XmlNode.text(tok.payload)
        elif kind is PrefixKind.COMMENT:
            node = XmlNode.comment(tok.payload)
        elif kind is PrefixKind.CDATA:
            node = XmlNode.cdata(tok.payload)
        elif kind is PrefixKind.DTD:
            node = XmlNode.dtd(tok.payload)
        else:
            payload = tok.payload
            cut = next((i for i, c in enumerate(payload) if c in " \t\r\n"),
                       len(payload))
            if cut == 0:
                raise BadToken("instruction without a target")
            node = XmlNode.pi(payload[:cut], payload[cut + 1:])
        self._close_exhausted()
        if not self.open_stack:
            if self.root is None:
                if kind is PrefixKind.PROC_INSTR and self.prolog is None:
                    self.prolog = node
                    return
                raise BadStreamStart("stream must start with a child element")
            raise ContentAfterRoot("data after the root closed")
        self._attach(node)

    def feed(self, tok: XsToken) -> None:
        if tok.kind in (PrefixKind.ATTR_NAME, PrefixKind.ATTR_VALUE):
            self._feed_attr(tok)
            return
        self._pending_attr = False
        if tok.kind is PrefixKind.CHILD:
            self._feed_child(tok)
        elif tok.kind is PrefixKind.SIBLING:
            self._feed_sibling(tok)
        else:
            self._feed_data(tok)

    def finish(self) -> XmlDocument:
        if self.root is None:
            raise EmptyStream("no root element in the stream")
        self.open_stack = _OpenStack()
        return XmlDocument(self.root, self.prolog)


def decode(doc: XsDocument) -> XmlDocument:
    """Rebuild the XML document a token stream describes."""
    if not doc.tokens:
        raise EmptyStream("no tokens")
    state = DecodeState()
    for tok in doc.tokens:
        state.feed(tok)
    return state.finish()


# ---------------------------------------------------------------------------
# encoding

def descendant_count(node: XmlNode) -> int:
    """Nodes in the subtree below node, attributes excluded."""
    return sum(entering for _, entering in walk(node)) - 1


def _pi_payload(node: XmlNode) -> str:
    return f"{node.name} {node.content}" if node.content else node.name


def _data_token(node: XmlNode, escaping: EscapeMode) -> XsToken:
    if node.kind is NodeKind.TEXT:
        last = node.content[-1:]
        if (escaping is EscapeMode.ENTITY and last
                and last in PREFIX_CHARS and last != '"'):
            return XsToken(PrefixKind.TEXT_DUAL, node.content)
        return XsToken(PrefixKind.TEXT, node.content)
    if node.kind is NodeKind.COMMENT:
        return XsToken(PrefixKind.COMMENT, node.content)
    if node.kind is NodeKind.CDATA:
        return XsToken(PrefixKind.CDATA, node.content)
    if node.kind is NodeKind.DTD:
        return XsToken(PrefixKind.DTD, node.content)
    return XsToken(PrefixKind.PROC_INSTR, _pi_payload(node))


def _check_encodable(doc: XmlDocument) -> None:
    def check_name(name: str, what: str) -> None:
        if not name or any(c in " \t\r\n" for c in name) or NUL in name:
            raise Unencodable(f"{what} name {name!r} cannot be written")
        if name.isascii() and name.isdigit():
            raise Unencodable(
                f"{what} name {name!r} would read back as a key reference")

    tops = [doc.root] if doc.prolog is None else [doc.prolog, doc.root]
    for node in (n for top in tops for n, entering in walk(top) if entering):
        if NUL in node.content:
            raise Unencodable("NUL in character data cannot be written")
        if node.kind in (NodeKind.ELEMENT, NodeKind.PROC_INSTR):
            check_name(node.name, node.kind.value)
        for name, value in node.attributes:
            check_name(name, "attribute")
            if value is not None and NUL in value:
                raise Unencodable("NUL in character data cannot be written")


def _attr_tokens(elem: XmlNode, tokens: list[XsToken]) -> None:
    for name, value in elem.attributes:
        tokens.append(XsToken(PrefixKind.ATTR_NAME, name))
        if value is not None:
            tokens.append(XsToken(PrefixKind.ATTR_VALUE, value))


def _emit_canonical(doc: XmlDocument, escaping: EscapeMode) -> list[XsToken]:
    tokens: list[XsToken] = []
    if doc.prolog is not None:
        tokens.append(XsToken(PrefixKind.PROC_INSTR, _pi_payload(doc.prolog)))
    # (token, nodes emitted up to and including it) per open element; its
    # depth is the number of nodes emitted between its enter and leave
    open_elems: list[tuple[XsToken, int]] = []
    emitted = 0
    for node, entering in walk(doc.root):
        if node.kind is not NodeKind.ELEMENT:
            if entering:
                emitted += 1
                tokens.append(_data_token(node, escaping))
        elif entering:
            emitted += 1
            tok = XsToken(PrefixKind.CHILD, node.name)
            tokens.append(tok)
            _attr_tokens(node, tokens)
            open_elems.append((tok, emitted))
        else:
            tok, start = open_elems.pop()
            tok.depth = emitted - start
    return tokens


def _encode_safe_sibling(doc: XmlDocument, escaping: EscapeMode) -> list[XsToken]:
    tokens: list[XsToken] = []
    if doc.prolog is not None:
        tokens.append(XsToken(PrefixKind.PROC_INSTR, _pi_payload(doc.prolog)))
    # The decoder's stack of open elements, as (token, nodes attached up
    # to and including the element).  Every node emitted so far decodes
    # under its true parent, so the stack holds the ancestors of the next
    # node plus the chain of the last finished element child above them.
    stack = _OpenStack()
    # per open ancestor in the tree, under one for the document itself:
    # has it an element child yet
    seen_element = [False]
    attached = 0

    def close_above(p: int) -> None:
        # the depth marker closes the open child of stack[p] and everything
        # above it right after the nodes attached since it opened
        if len(stack) > p + 1:
            tok, start = stack[p + 1]
            tok.depth = attached - start
            stack.truncate(p + 1)

    for node, entering in walk(doc.root):
        p = len(seen_element) - 2  # stack index of the node's parent
        if node.kind is not NodeKind.ELEMENT:
            if entering:
                close_above(p)
                attached += 1
                tokens.append(_data_token(node, escaping))
            continue
        if not entering:
            seen_element.pop()
            continue
        at = stack.nearest.get(node.name, -1)
        if seen_element[-1] and (at == p + 1
                                 or (at < 0 and len(stack) == p + 2)):
            kind = PrefixKind.SIBLING
            stack.truncate(p + 1)
        else:
            kind = PrefixKind.CHILD
            close_above(p)
        tok = XsToken(kind, node.name)
        tokens.append(tok)
        _attr_tokens(node, tokens)
        attached += 1
        stack.push(node.name, (tok, attached))
        seen_element[-1] = True
        seen_element.append(False)

    decoded = decode(XsDocument(tokens, escaping))
    if not structural_equal(decoded, doc, whitespace_significant=True):
        raise Unencodable("encoded stream does not decode to the document")
    return tokens


def _avoid_quoted_value(tokens: list[XsToken]) -> None:
    # A dual right after a bare = would read back as a quoted attribute
    # value; plain text escapes the trailing prefix character instead.
    for i in range(1, len(tokens)):
        prev = tokens[i - 1]
        if (tokens[i].kind is PrefixKind.TEXT_DUAL
                and prev.kind is PrefixKind.ATTR_VALUE and not prev.payload):
            tokens[i] = XsToken(PrefixKind.TEXT, tokens[i].payload)


def encode(doc: XmlDocument, opts: Optional[EncodeOptions] = None) -> XsDocument:
    """Encode a document; decode(encode(d)) is structurally equal to d."""
    opts = opts or EncodeOptions()
    _check_encodable(doc)
    prepared = (drop_insignificant_whitespace(doc)
                if opts.drop_insignificant_whitespace else doc)
    if opts.mode == EncodeMode.CANONICAL:
        tokens = _emit_canonical(prepared, opts.escaping)
    else:
        tokens = _encode_safe_sibling(prepared, opts.escaping)
    _avoid_quoted_value(tokens)
    out = XsDocument(tokens, opts.escaping)
    if opts.substitution_threshold is not None:
        from .transforms import build_substitution
        _, out = build_substitution(out, opts.substitution_threshold)
    return out
