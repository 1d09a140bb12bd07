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
  ignoring attributes; reaching zero closes it;
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

from dataclasses import dataclass, field
from typing import Optional

from .errors import XStringError
from .grammar import EscapeMode, PrefixKind, XsDocument, XsToken, PREFIX_CHARS, NUL
from .xml_model import (NodeKind, XmlDocument, XmlNode,
                        drop_insignificant_whitespace, structural_equal)


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


@dataclass
class OpenEntry:
    node: XmlNode
    remaining: Optional[int]


class DecodeState:
    """Decoder state, exposed so the stack behaviour is testable directly.

    open_stack holds (element, remaining budget) entries, outermost first;
    remaining is None for elements without a depth marker.
    """

    def __init__(self):
        self.open_stack: list[OpenEntry] = []
        self.root: Optional[XmlNode] = None
        self.prolog: Optional[XmlNode] = None
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

    def _close_exhausted(self) -> None:
        while True:
            idx = next((i for i, e in enumerate(self.open_stack)
                        if e.remaining == 0), None)
            if idx is None:
                return
            while len(self.open_stack) > idx:
                popped = self.open_stack.pop()
                if popped.remaining is not None and popped.remaining > 0:
                    raise BudgetOverrun(
                        f"<{popped.node.name}> still expects "
                        f"{popped.remaining} nodes when an enclosing depth ran out")

    def _spend(self) -> None:
        for e in self.open_stack:
            if e.remaining is not None:
                e.remaining -= 1

    def _attach(self, node: XmlNode) -> None:
        self.open_stack[-1].node.children.append(node)
        self._spend()

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

    def _open(self, tok: XsToken, name: str, parent_known: bool) -> None:
        elem = XmlNode.element(name)
        if parent_known:
            self._attach(elem)
        else:
            self.root = elem
        self.open_stack.append(OpenEntry(elem, tok.depth))

    def _feed_child(self, tok: XsToken) -> None:
        name = self._resolve_name(tok)
        self._close_exhausted()
        if not self.open_stack:
            if self.root is not None:
                raise ContentAfterRoot("second root element")
            self._open(tok, name, parent_known=False)
            return
        self._open(tok, name, parent_known=True)

    def _feed_sibling(self, tok: XsToken) -> None:
        name = self._resolve_name(tok)
        self._close_exhausted()
        if not self.open_stack:
            if self.root is None:
                raise BadStreamStart("stream must start with a child element")
            raise ContentAfterRoot("sibling after the root closed")
        idx = next((i for i in range(len(self.open_stack) - 1, -1, -1)
                    if self.open_stack[i].node.name == name), None)
        if idx is None:
            top = self.open_stack[-1]
            if top.remaining is not None and top.remaining > 0:
                raise BudgetConflict(
                    f"sibling <{name}> would close <{top.node.name}> "
                    f"with {top.remaining} nodes of its depth unfilled")
            if len(self.open_stack) == 1:
                raise BudgetConflict(f"sibling <{name}> would close the root")
            self.open_stack.pop()
        else:
            if idx == 0:
                raise BudgetConflict(f"sibling <{name}> would close the root")
            for e in self.open_stack[idx:]:
                if e.remaining is not None and e.remaining > 0:
                    raise BudgetConflict(
                        f"sibling <{name}> closure crosses <{e.node.name}> "
                        f"with {e.remaining} nodes of its depth unfilled")
            del self.open_stack[idx:]
        self._open(tok, name, parent_known=True)

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
        self.open_stack.clear()
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
    total = 0
    for child in node.children:
        total += 1 + descendant_count(child)
    return total


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

    def walk(node: XmlNode) -> None:
        if NUL in node.content:
            raise Unencodable("NUL in character data cannot be written")
        if node.kind in (NodeKind.ELEMENT, NodeKind.PROC_INSTR):
            check_name(node.name, node.kind.value)
        for name, value in node.attributes:
            check_name(name, "attribute")
            if value is not None and NUL in value:
                raise Unencodable("NUL in character data cannot be written")
        for child in node.children:
            walk(child)

    if doc.prolog is not None:
        walk(doc.prolog)
    walk(doc.root)


def _emit_canonical(doc: XmlDocument, escaping: EscapeMode) -> list[XsToken]:
    tokens: list[XsToken] = []
    if doc.prolog is not None:
        tokens.append(XsToken(PrefixKind.PROC_INSTR, _pi_payload(doc.prolog)))

    def walk(elem: XmlNode) -> None:
        tokens.append(XsToken(PrefixKind.CHILD, elem.name,
                              depth=descendant_count(elem)))
        for name, value in elem.attributes:
            tokens.append(XsToken(PrefixKind.ATTR_NAME, name))
            if value is not None:
                tokens.append(XsToken(PrefixKind.ATTR_VALUE, value))
        for child in elem.children:
            if child.kind is NodeKind.ELEMENT:
                walk(child)
            else:
                tokens.append(_data_token(child, escaping))

    walk(doc.root)
    return tokens


def _encode_safe_sibling(doc: XmlDocument, escaping: EscapeMode) -> list[XsToken]:
    tokens: list[XsToken] = []
    if doc.prolog is not None:
        tokens.append(XsToken(PrefixKind.PROC_INSTR, _pi_payload(doc.prolog)))
    # The decoder's stack of open elements, as (token, nodes attached up to
    # and including the element, index of the next open element below with
    # the same name or -1).  Every node emitted so far decodes under its
    # true parent, so the stack holds the ancestors of the next node plus
    # the chain of the last finished element child, still open above them.
    stack: list[tuple[XsToken, int, int]] = []
    nearest: dict[str, int] = {}  # name -> index of its topmost open element
    attached = 0

    def truncate(size: int) -> None:
        while len(stack) > size:
            tok, _, below = stack.pop()
            if below < 0:
                del nearest[tok.payload]
            else:
                nearest[tok.payload] = below

    def close_above(p: int) -> None:
        # the depth marker closes the open child of stack[p] and everything
        # above it right after the nodes attached since it opened
        if len(stack) > p + 1:
            tok, start, _ = stack[p + 1]
            tok.depth = attached - start
            truncate(p + 1)

    def walk(elem: XmlNode, p: int, as_sibling: bool) -> None:
        nonlocal attached
        at = nearest.get(elem.name, -1)
        if as_sibling and (at == p + 1 or (at < 0 and len(stack) == p + 2)):
            kind = PrefixKind.SIBLING
            truncate(p + 1)
        else:
            kind = PrefixKind.CHILD
            close_above(p)
        tok = XsToken(kind, elem.name)
        tokens.append(tok)
        attached += 1
        stack.append((tok, attached, nearest.get(elem.name, -1)))
        nearest[elem.name] = p + 1
        for name, value in elem.attributes:
            tokens.append(XsToken(PrefixKind.ATTR_NAME, name))
            if value is not None:
                tokens.append(XsToken(PrefixKind.ATTR_VALUE, value))
        seen_element = False
        for child in elem.children:
            if child.kind is NodeKind.ELEMENT:
                walk(child, p + 1, seen_element)
                seen_element = True
            else:
                close_above(p + 1)
                attached += 1
                tokens.append(_data_token(child, escaping))

    walk(doc.root, -1, False)
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
