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

The tokenizer reads the wire string with compiled patterns.  A lead pattern
skips padding and captures the prefix character (after its NUL in sentinel
mode); one run pattern per escape mode and payload kind (data, name, dual)
then reads the payload.  An entity-mode data run is
``(?:[^<prefix chars>&\\x00]+|&#[0-9]+;|&(?!#))*``, and the character a run
stops at names the error: ``&`` a malformed reference, NUL stray data, the
end of input an unterminated dual.  References are resolved by one
``&#0*([0-9]+);`` substitution, only in payloads that hold an ``&``; the
digits are looked up as text, so a reference of any length is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NoReturn, Optional

from .errors import XStringError

NUL = "\x00"
_WS = r" \t\r\n"
# the one definition of whitespace on the wire
WHITESPACE = re.compile(f"[{_WS}]")


def reads_as_key(s: str) -> bool:
    """True when s, written in name position, would read back as a key."""
    return s.isascii() and s.isdigit()


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
            if WHITESPACE.search(self.payload):
                raise ValueError("names must not contain whitespace")
            if not self.payload and self.subst_key is None:
                raise ValueError("empty name")
            if reads_as_key(self.payload):
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

def escaper(replace: dict[str, str]) -> Callable[[str], str]:
    """A function writing each key of replace as its value, one str.replace
    pass per key, so its cost does not depend on the script of the text.
    Keys that occur in the values go first, so none is escaped twice."""
    values = "".join(replace.values())
    order = sorted(replace, key=lambda c: c not in values)

    def escape(s: str) -> str:
        for c in order:
            if c in s:
                s = s.replace(c, replace[c])
        return s
    return escape


# "..." payloads escape only the delimiter and the reference introducer
_DUAL_CHARS = '"#'
_ESCAPE = escaper({c: f"&#{ord(c)};" for c in PREFIX_CHARS})
_ESCAPE_DUAL = escaper({c: f"&#{ord(c)};" for c in _DUAL_CHARS})
_REFERENCE = re.compile("&#0*([0-9]+);")
_MALFORMED = re.compile("&#(?![0-9]+;)")


def _resolver(chars: str) -> Callable[[re.Match], str]:
    """re.sub callback folding a reference back to one of chars; any other
    reference stays verbatim, however many digits it has."""
    codes = {str(ord(c)): c for c in chars}
    return lambda m: codes.get(m[1], m[0])


_UNESCAPE = _resolver(PREFIX_CHARS)
_UNESCAPE_DUAL = _resolver(_DUAL_CHARS)


def escape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Make s safe for use as payload data in the given mode."""
    return s if mode is EscapeMode.SENTINEL else _ESCAPE(s)


def unescape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Inverse of escape_data over strings produced by it.

    A '&#' that is not a decimal reference is an error, since escaping
    never produces one."""
    if mode is EscapeMode.SENTINEL:
        return s
    bad = _MALFORMED.search(s)
    if bad:
        raise MalformedEntity(bad.start(),
                              "'&#' is not a decimal character reference")
    return _REFERENCE.sub(_UNESCAPE, s)


# ---------------------------------------------------------------------------
# rendering

def render_token(t: XsToken, escaping: EscapeMode) -> str:
    """The wire form of one token; render joins these."""
    kind = t.kind
    if escaping is EscapeMode.SENTINEL:
        mark, body = NUL, t.payload
    else:
        mark = ""
        body = (_ESCAPE_DUAL if kind is PrefixKind.TEXT_DUAL
                else _ESCAPE)(t.payload)
    if kind is PrefixKind.TEXT_DUAL:
        return f'{mark}"{body}{mark}"'
    if kind not in _NAME_KINDS:
        return mark + kind.value + body
    if not body:
        out = f"{mark}{kind.value}{t.subst_key}"
    elif t.subst_key is None:
        out = mark + kind.value + body
    else:
        out = f"{mark}{kind.value}{body}{mark}#{t.subst_key}"
    if t.depth is not None:
        out += f"{mark}+{t.depth}"
    return out


def render(doc: XsDocument) -> str:
    """Serialize tokens to the wire string; no inter-token whitespace."""
    return "".join([render_token(t, doc.escaping) for t in doc.tokens])


# ---------------------------------------------------------------------------
# tokenizing

_P = re.escape(PREFIX_CHARS)
_RUN_REF = "&#[0-9]+;|&(?!#)"
# lead, data, name and dual patterns per escape mode
_PATTERNS = {
    EscapeMode.ENTITY: tuple(map(re.compile, (
        f"[{_WS}]*([{_P}])?",
        f"(?:[^{_P}&\\x00]+|{_RUN_REF})*",
        f"(?:[^{_P}&\\x00{_WS}]+|{_RUN_REF})*",
        f'(?:[^"&\\x00]+|{_RUN_REF})*'))),
    EscapeMode.SENTINEL: tuple(map(re.compile, (
        f"[{_WS}]*(\\x00[{_P}])?",
        "[^\\x00]*",
        f"[^\\x00{_WS}]*",
        "[^\\x00]*"))),
}
_DIGIT_RUN = re.compile("[0-9]+")


def _no_token(text: str, i: int, sentinel: bool) -> NoReturn:
    """Raise for the character at i, which cannot start a token."""
    if sentinel:
        if text[i] != NUL:
            raise StrayData(i, "data outside any token")
        if i + 1 == len(text):
            raise DanglingEscape(i, "sentinel at end of input")
        raise DanglingEscape(i, "sentinel before a non-structural character")
    if text[i] == NUL:
        raise StrayData(i, "NUL in entity-mode stream")
    raise StrayData(i, "data outside any token")


def _payload(run: re.Pattern, text: str, i: int, sentinel: bool,
             unescape: Callable[[re.Match], str]) -> tuple[str, int]:
    """Read the payload run matches at i; returns it unescaped and its end.

    An entity-mode run stops early at an '&' that starts no reference and
    at a NUL, and both are errors there."""
    j = run.match(text, i).end()
    s = text[i:j]
    if sentinel:
        return s, j
    c = text[j:j + 1]
    if c == "&":
        raise MalformedEntity(j, "'&#' is not a decimal character reference")
    if c == NUL:
        raise StrayData(j, "NUL in entity-mode stream")
    return (_REFERENCE.sub(unescape, s) if "&" in s else s), j


def _integer(digits: str, error: type[TokenizeError], offset: int,
             what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise error(offset, f"{what} has too many digits") from None


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


_MARKERS = {PrefixKind.DEPTH: (BadDepth, "depth marker", _attach_depth),
            PrefixKind.SUBST_KEY: (BadKey, "key binder", _attach_key)}


def tokenize(text: str, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Parse a wire string into tokens.

    Whitespace between a name's end and the next prefix character is
    treated as padding and discarded; whitespace inside data payloads is
    preserved.
    """
    sentinel = escaping is EscapeMode.SENTINEL
    lead, data, name_run, dual = _PATTERNS[escaping]
    close = NUL + '"' if sentinel else '"'
    tokens: list[XsToken] = []
    n = len(text)
    i = 0
    while i < n:
        m = lead.match(text, i)
        if m[1] is None:
            if m.end() < n:
                _no_token(text, m.end(), sentinel)
            break
        start, i = m.span(1)
        kind = _CHAR_TO_KIND[text[i - 1]]

        if kind in _MARKERS:
            error, what, attach = _MARKERS[kind]
            m = _DIGIT_RUN.match(text, i)
            if m is None:
                raise error(start, f"no integer after {what}")
            attach(tokens, _integer(m[0], error, start, what), start)
            i = m.end()
        elif kind in _NAME_KINDS:
            name, i = _payload(name_run, text, i, sentinel, _UNESCAPE)
            if not name:
                raise EmptyName(start, "missing name")
            if reads_as_key(name):
                key = _integer(name, BadKey, start, "key reference")
                tokens.append(XsToken(kind, "", subst_key=key))
            else:
                tokens.append(XsToken(kind, name))
        elif kind is PrefixKind.TEXT_DUAL or (
                kind is PrefixKind.ATTR_VALUE and not sentinel
                and text.startswith('"', i)):
            i += kind is PrefixKind.ATTR_VALUE  # past the opening quote
            payload, i = _payload(dual, text, i, sentinel, _UNESCAPE_DUAL)
            if not text.startswith(close, i):
                raise UnterminatedDual(start, "dual text never closed")
            i += len(close)
            tokens.append(XsToken(kind, payload))
        else:
            payload, i = _payload(data, text, i, sentinel, _UNESCAPE)
            tokens.append(XsToken(kind, payload))
    return XsDocument(tokens, escaping)
