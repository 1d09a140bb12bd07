"""The two emitters and encode that ran on walk's enter and leave events,
kept as a reference.

The codec's emitters now read xml_model.walk over the document, which
also gives the verifier its nodes; test_emitters.py compares the two.
Here each emitter keeps its own whitespace-skip test and its own count of
the elements it is inside, and encode writes the prolog token itself.
The sibling emitter keeps the decoder's stack in OpenStack, defined here:
a list with a parallel list of what nearest held for each name, driven
through close_above, where the codec's emitter keeps the same stack
inline as the decoder does.  The node checks and the verifier are the
codec's, so outcomes compare by tokens or by error class and message.
"""

from __future__ import annotations

from typing import Optional

from xstring.codec import (EncodeMode, EncodeOptions, Unencodable,
                           _data_token, _element_tokens, _verify)
from xstring.grammar import EscapeMode, PrefixKind, XsDocument, XsToken
from xstring.xml_model import NodeKind, XmlDocument, XmlNode

from walk_oracle import walk


class OpenStack(list):
    """Open elements, outermost first, plus nearest: name -> index of the
    topmost open element with that name, or -1."""

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


def _emit_canonical(root: XmlNode, escaping: EscapeMode, drop: bool,
                    tokens: list[XsToken]) -> None:
    # (token, nodes emitted up to and including it) per open element; its
    # depth is the number of nodes emitted between its enter and leave
    open_elems: list[tuple[XsToken, int]] = []
    emitted = 0
    for node, entering in walk(root):
        if node.kind is not NodeKind.ELEMENT:
            if entering and not (drop and node.is_whitespace_text()):
                emitted += 1
                _data_token(node, escaping, tokens)
        elif entering:
            emitted += 1
            tok = _element_tokens(node, PrefixKind.CHILD, tokens)
            open_elems.append((tok, emitted))
        else:
            tok, start = open_elems.pop()
            tok.depth = emitted - start


def _emit_safe_sibling(root: XmlNode, escaping: EscapeMode, drop: bool,
                       tokens: list[XsToken]) -> None:
    # The decoder's stack of open elements, as (token, nodes attached up
    # to and including the element).
    stack = OpenStack()
    # elements the walk is inside; the node's parent is at depth - 1 on
    # the stack, the document itself at -1
    depth = 0
    attached = 0

    def close_above(p: int) -> None:
        if len(stack) > p + 1:
            tok, start = stack[p + 1]
            tok.depth = attached - start
            stack.truncate(p + 1)

    for node, entering in walk(root):
        p = depth - 1
        if node.kind is not NodeKind.ELEMENT:
            if entering and not (drop and node.is_whitespace_text()):
                close_above(p)
                attached += 1
                _data_token(node, escaping, tokens)
            continue
        if not entering:
            depth -= 1
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
        depth += 1


def oracle_encode(doc: XmlDocument,
                  opts: Optional[EncodeOptions] = None) -> XsDocument:
    opts = opts or EncodeOptions()
    drop = opts.drop_insignificant_whitespace
    tokens: list[XsToken] = []
    if doc.prolog is not None:
        if doc.prolog.kind is not NodeKind.PROC_INSTR:
            raise Unencodable(
                f"prolog {doc.prolog.kind.value} node cannot be written: only "
                "a processing instruction can precede the root")
        _data_token(doc.prolog, opts.escaping, tokens)
    if opts.mode == EncodeMode.CANONICAL:
        _emit_canonical(doc.root, opts.escaping, drop, tokens)
    else:
        _emit_safe_sibling(doc.root, opts.escaping, drop, tokens)
        _verify(doc, drop, tokens)
    return XsDocument(tokens, opts.escaping)
