"""The two emitters and encode that ran on walk's enter and leave events,
kept as a reference.

The codec's one emitter loop now reads xml_model.walk over the document,
taken once, which also gives the verifier its nodes; test_emitters.py
compares the two.
Here each emitter keeps its own whitespace-skip test and its own count of
the elements it is inside, and encode writes the prolog token itself.
The sibling emitter keeps the decoder's stack in OpenStack, defined here:
a list with a parallel list of what nearest held for each name, driven
through close_above, where the codec's emitter keeps the same stack
inline as the decoder does.  Each node is checked by _element_tokens or
_data_token, also defined here, which the codec's one emitter loop does
in its own frame instead.  The name check and the verifier are the
codec's, so outcomes compare by tokens or by error class and message.
"""

from __future__ import annotations

from typing import Optional

from xstring.codec import (EncodeMode, EncodeOptions, Unencodable,
                           _DATA_KINDS, _verify, _writable_name)
from xstring.grammar import (NUL, PREFIX_CHARS, WHITESPACE, EscapeMode,
                             PrefixKind, XsDocument, XsToken)
from xstring.xml_model import NodeKind, XmlDocument, XmlNode
from xstring.xml_model import walk as model_walk

from walk_oracle import walk

_PROC_INSTR, _TEXT = NodeKind.PROC_INSTR, NodeKind.TEXT


def _nul_free(s: str) -> str:
    if NUL in s:
        raise Unencodable("NUL in character data cannot be written")
    return s


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
            node.name and node.kind is not _PROC_INSTR):
        raise Unencodable(f"{node.kind.value} node with a name, attributes "
                          "or children cannot be written")
    content = _nul_free(node.content)
    if node.kind is _TEXT:
        # a trailing prefix character needs the dual form in entity mode,
        # except right after a bare =, where a dual would read back as a
        # quoted value; plain text escapes the character instead
        last = content[-1:]
        dual = (escaping is EscapeMode.ENTITY and last
                and last in PREFIX_CHARS and last != '"'
                and not (tokens and tokens[-1].kind is PrefixKind.ATTR_VALUE
                         and not tokens[-1].payload))
        kind = PrefixKind.TEXT_DUAL if dual else PrefixKind.TEXT
    elif node.kind is _PROC_INSTR:
        name = node.name  # data up to its first whitespace, not a name
        if not name or NUL in name or WHITESPACE.search(name):
            raise Unencodable(f"pi name {name!r} cannot be written")
        kind = PrefixKind.PROC_INSTR
        content = f"{name} {content}" if content else name
    else:
        kind = _DATA_KINDS[node.kind._value_]
    tokens.append(XsToken.unchecked(kind, content))


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
        _verify(list(model_walk(doc, drop)), tokens)
    return XsDocument(tokens, opts.escaping)
