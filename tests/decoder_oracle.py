"""The decoder with a budget counter per open element, kept as a reference.

The codec's DecodeState replaced it; test_decoder.py compares the two.
Every attached node decrements the budget of every open element with a
depth marker, and each token rescans the whole stack for an exhausted
budget, so a node costs time proportional to the depth.
"""

from dataclasses import dataclass
from typing import Optional

from xstring.codec import (AttrAfterContent, BadStreamStart, BadToken,
                           BudgetConflict, BudgetOverrun, ContentAfterRoot,
                           DanglingAttr, DuplicateAttr, EmptyStream,
                           UnknownKey)
from xstring.grammar import PrefixKind, XsDocument, XsToken
from xstring.xml_model import XmlDocument, XmlNode


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


def oracle_decode(doc: XsDocument) -> XmlDocument:
    """decode(doc) as the budget-counter decoder did it."""
    if not doc.tokens:
        raise EmptyStream("no tokens")
    state = DecodeState()
    for tok in doc.tokens:
        state.feed(tok)
    return state.finish()
