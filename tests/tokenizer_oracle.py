"""The per-character tokenizer, kept as a reference.

The grammar module's pattern scanner replaced it; test_tokenizer.py
compares the two.  A cursor walks the wire string one character at a
time, resolving each character reference as it meets it.
"""

from typing import Optional

from xstring.grammar import (NUL, _CHAR_TO_KIND, BadDepth, BadKey,
                             DanglingEscape, EmptyName, EscapeMode,
                             MalformedEntity, NAME_KINDS as _NAME_KINDS,
                             PREFIX_CHARS, PrefixKind,
                             StrayData, UnterminatedDual, XsDocument, XsToken,
                             _attach_depth, _attach_key)

_WS = " \t\r\n"
_DIGITS = "0123456789"
_PREFIX_CODES = frozenset(ord(c) for c in PREFIX_CHARS)
_DUAL_CODES = frozenset((ord('"'), ord("#")))


def _all_digits(s: str) -> bool:
    return bool(s) and all(c in _DIGITS for c in s)


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
