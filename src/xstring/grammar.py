"""Token grammar for the compact string form.

Each construct is introduced by a single prefix character; closing tags have
no counterpart (structure is recovered from prefix order, sibling markers,
and depth markers).  Twelve prefix characters are reserved:

    /  child element        |  sibling element     '  text
    "  delimited text       @  attribute name      =  attribute value
    -  comment              ?  processing instr.   [  CDATA
    !  declaration          +  depth marker        #  substitution key

Token payloads are stored unescaped.  The renderer applies the document's
escape mode on the way out and the tokenizer reverses it on the way in:

* entity mode: reserved characters in data are written as decimal character
  references (``&#47;`` for ``/`` and so on).  Only references that decode
  to a reserved character are folded back; anything else in the data,
  including named entities, passes through verbatim.
* sentinel mode: data is untouched and every structural character is
  preceded by NUL on the wire.

Depth markers and key binders are not separate tokens here; they attach to
the element (or attribute) token they follow, and the tokenizer accepts them
after an attribute list as well (``@name=v+10`` binds the depth to the
enclosing element token).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import XStringError

NUL = "\x00"
_WS = " \t\r\n"
_DIGITS = "0123456789"


class PrefixKind(Enum):
    CHILD = "/"
    SIBLING = "|"
    TEXT = "'"
    TEXT_DUAL = '"'
    ATTR_NAME = "@"
    ATTR_VALUE = "="
    COMMENT = "-"
    PROC_INSTR = "?"
    CDATA = "["
    DTD = "!"
    DEPTH = "+"
    SUBST_KEY = "#"


class EscapeMode(Enum):
    ENTITY = "entity"
    SENTINEL = "sentinel"


PREFIX_CHARS = "".join(k.value for k in PrefixKind)
_CHAR_TO_KIND = {k.value: k for k in PrefixKind}
_PREFIX_CODES = frozenset(ord(c) for c in PREFIX_CHARS)
# inside "..." payloads only the delimiter and the reference introducer
# need escaping; everything else may appear bare
_DUAL_CODES = frozenset((ord('"'), ord("#")))
_NAME_KINDS = (PrefixKind.CHILD, PrefixKind.SIBLING, PrefixKind.ATTR_NAME)
_MARKER_KINDS = (PrefixKind.DEPTH, PrefixKind.SUBST_KEY)


class TokenizeError(XStringError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.reason = message


class DanglingEscape(TokenizeError):
    pass


class UnterminatedDual(TokenizeError):
    pass


class EmptyName(TokenizeError):
    pass


class BadDepth(TokenizeError):
    pass


class BadKey(TokenizeError):
    pass


class StrayData(TokenizeError):
    pass


class MalformedEntity(TokenizeError):
    pass


def _all_digits(s: str) -> bool:
    return bool(s) and all(c in _DIGITS for c in s)


@dataclass
class XsToken:
    kind: PrefixKind
    payload: str = ""
    depth: Optional[int] = None
    subst_key: Optional[int] = None

    def __post_init__(self):
        if self.kind in _MARKER_KINDS:
            raise ValueError(f"{self.kind.name} is a marker, not a token kind")
        if NUL in self.payload:
            raise ValueError("payload must not contain NUL")
        if self.kind in _NAME_KINDS:
            if any(c in _WS for c in self.payload):
                raise ValueError("names must not contain whitespace")
            if not self.payload and self.subst_key is None:
                raise ValueError("empty name")
            if _all_digits(self.payload):
                raise ValueError("purely numeric names collide with key references")
        else:
            if self.subst_key is not None:
                raise ValueError("key on a non-name token")
            if self.depth is not None:
                raise ValueError("depth on a non-element token")
        if self.depth is not None:
            if self.kind not in (PrefixKind.CHILD, PrefixKind.SIBLING):
                raise ValueError("depth on a non-element token")
            if self.depth < 0:
                raise ValueError("negative depth")
        if self.subst_key is not None and self.subst_key < 0:
            raise ValueError("negative key")

    def is_reference(self) -> bool:
        """True for a bare key occurrence standing in for a name."""
        return self.subst_key is not None and not self.payload


@dataclass
class XsDocument:
    tokens: list[XsToken] = field(default_factory=list)
    escaping: EscapeMode = EscapeMode.ENTITY


# ---------------------------------------------------------------------------
# escaping

def escape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Make s safe for use as payload data in the given mode."""
    if mode is EscapeMode.SENTINEL:
        return s
    return "".join(f"&#{ord(c)};" if c in _CHAR_TO_KIND else c for c in s)


def _read_reference(s: str, i: int, codes: frozenset[int]) -> tuple[str, int]:
    """Resolve a possible character reference at s[i] == '&'.

    Returns the replacement text and the next index.  References outside
    the requested code set stay verbatim; a '&#' that is not a decimal
    reference is an error, since escaping never produces one.
    """
    if s[i + 1:i + 2] != "#":
        return "&", i + 1
    j = i + 2
    while j < len(s) and s[j] in _DIGITS:
        j += 1
    if j == i + 2 or j >= len(s) or s[j] != ";":
        raise MalformedEntity(i, "'&#' is not a decimal character reference")
    code = int(s[i + 2:j])
    if code in codes:
        return chr(code), j + 1
    return s[i:j + 1], j + 1


def unescape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Inverse of escape_data over strings produced by it."""
    if mode is EscapeMode.SENTINEL:
        return s
    out: list[str] = []
    i = 0
    while i < len(s):
        if s[i] == "&":
            piece, i = _read_reference(s, i, _PREFIX_CODES)
            out.append(piece)
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def _escape_dual(s: str) -> str:
    return "".join(f"&#{ord(c)};" if c in '"#' else c for c in s)


# ---------------------------------------------------------------------------
# rendering

def render(doc: XsDocument) -> str:
    """Serialize tokens to the wire string; no inter-token whitespace."""
    sentinel = doc.escaping is EscapeMode.SENTINEL
    mark = NUL if sentinel else ""
    out: list[str] = []
    for t in doc.tokens:
        out.append(mark + t.kind.value)
        if t.kind in _NAME_KINDS:
            if t.payload:
                out.append(t.payload if sentinel else escape_data(t.payload))
                if t.subst_key is not None:
                    out.append(f"{mark}#{t.subst_key}")
            else:
                out.append(str(t.subst_key))
            if t.depth is not None:
                out.append(f"{mark}+{t.depth}")
        elif t.kind is PrefixKind.TEXT_DUAL:
            body = t.payload if sentinel else _escape_dual(t.payload)
            out.append(body + mark + '"')
        else:
            out.append(t.payload if sentinel else escape_data(t.payload))
    return "".join(out)


# ---------------------------------------------------------------------------
# tokenizing

class _Cursor:
    def __init__(self, text: str, sentinel: bool):
        self.text = text
        self.n = len(text)
        self.sentinel = sentinel

    def scan(self, i: int, name: bool) -> tuple[str, int]:
        """Read a payload up to the next prefix character, or the next NUL
        in sentinel mode; a name also ends at whitespace."""
        out: list[str] = []
        t = self.text
        while i < self.n:
            c = t[i]
            if name and c in _WS:
                break
            if self.sentinel:
                if c == NUL:
                    break
                out.append(c)
                i += 1
            else:
                if c in _CHAR_TO_KIND:
                    break
                if c == NUL:
                    raise StrayData(i, "NUL in entity-mode stream")
                if c == "&":
                    piece, i = _read_reference(t, i, _PREFIX_CODES)
                    out.append(piece)
                else:
                    out.append(c)
                    i += 1
        return "".join(out), i

    def scan_dual(self, i: int, start: int) -> tuple[str, int]:
        out: list[str] = []
        t = self.text
        while i < self.n:
            c = t[i]
            if self.sentinel:
                if c == NUL:
                    if t[i + 1:i + 2] == '"':
                        return "".join(out), i + 2
                    raise UnterminatedDual(start, "dual text never closed")
                out.append(c)
                i += 1
            else:
                if c == '"':
                    return "".join(out), i + 1
                if c == NUL:
                    raise StrayData(i, "NUL in entity-mode stream")
                if c == "&":
                    piece, i = _read_reference(t, i, _DUAL_CODES)
                    out.append(piece)
                else:
                    out.append(c)
                    i += 1
        raise UnterminatedDual(start, "dual text never closed")

    def scan_digits(self, i: int) -> tuple[Optional[int], int]:
        j = i
        while j < self.n and self.text[j] in _DIGITS:
            j += 1
        if j == i:
            return None, i
        return int(self.text[i:j]), j


def _attach_depth(tokens: list[XsToken], value: int, offset: int) -> None:
    for t in reversed(tokens):
        if t.kind in (PrefixKind.CHILD, PrefixKind.SIBLING):
            if t.depth is not None:
                raise BadDepth(offset, "duplicate depth marker")
            t.depth = value
            return
        if t.kind in (PrefixKind.ATTR_NAME, PrefixKind.ATTR_VALUE):
            continue
        break
    raise BadDepth(offset, "depth marker is not attached to an element")


def _attach_key(tokens: list[XsToken], value: int, offset: int) -> None:
    if tokens:
        t = tokens[-1]
        if t.kind in _NAME_KINDS and t.payload and t.subst_key is None:
            t.subst_key = value
            return
    raise BadKey(offset, "key binder is not attached to a name")


def tokenize(text: str, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Parse a wire string into tokens.

    Whitespace between a name's end and the next prefix character is
    treated as padding and discarded; whitespace inside data payloads is
    preserved.
    """
    sentinel = escaping is EscapeMode.SENTINEL
    cur = _Cursor(text, sentinel)
    tokens: list[XsToken] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in _WS:
            i += 1
            continue
        start = i
        if sentinel:
            if c != NUL:
                raise StrayData(i, "data outside any token")
            if i + 1 >= n:
                raise DanglingEscape(i, "sentinel at end of input")
            c = text[i + 1]
            if c not in _CHAR_TO_KIND:
                raise DanglingEscape(i, "sentinel before a non-structural character")
            i += 1
        else:
            if c == NUL:
                raise StrayData(i, "NUL in entity-mode stream")
            if c not in _CHAR_TO_KIND:
                raise StrayData(i, "data outside any token")
        kind = _CHAR_TO_KIND[c]
        i += 1

        if kind is PrefixKind.DEPTH:
            value, i = cur.scan_digits(i)
            if value is None:
                raise BadDepth(start, "no integer after depth marker")
            _attach_depth(tokens, value, start)
        elif kind is PrefixKind.SUBST_KEY:
            value, i = cur.scan_digits(i)
            if value is None:
                raise BadKey(start, "no integer after key binder")
            _attach_key(tokens, value, start)
        elif kind in _NAME_KINDS:
            name, i = cur.scan(i, name=True)
            if not name:
                raise EmptyName(start, "missing name")
            if _all_digits(name):
                tokens.append(XsToken(kind, "", subst_key=int(name)))
            else:
                tokens.append(XsToken(kind, name))
        elif kind is PrefixKind.TEXT_DUAL:
            payload, i = cur.scan_dual(i, start)
            tokens.append(XsToken(kind, payload))
        elif kind is PrefixKind.ATTR_VALUE:
            if not sentinel and i < n and text[i] == '"':
                payload, i = cur.scan_dual(i + 1, start)
            else:
                payload, i = cur.scan(i, name=False)
            tokens.append(XsToken(kind, payload))
        else:
            payload, i = cur.scan(i, name=False)
            tokens.append(XsToken(kind, payload))
    return XsDocument(tokens, escaping)
