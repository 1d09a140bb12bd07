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

The tokenizer reads each token with one match of a compiled pattern per
escape mode.  The match skips padding and reads the lead (the prefix
character, after its NUL in sentinel mode) and that kind's payload run;
``m.lastindex`` says which kind of run it read.  An entity-mode data run
is ``(?:[^<prefix chars>&\\x00]+|&#[0-9]+;|&(?!#))*``, and the character a
run stops at names the error, read by the same match: ``&`` a malformed
reference, NUL stray data, the end of input an unterminated dual.
References are resolved by one ``&#0*([0-9]+);`` substitution, only in
payloads that hold an ``&``; the digits are looked up as text, so a
reference of any length is read.  The tokens it builds skip
``XsToken``'s checks (``XsToken.unchecked``): the pattern has already
established them.
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


def name_fault(name: str, key: Optional[int]) -> Optional[str]:
    """XsToken(...)'s message for a name token it refuses, else None."""
    if NUL in name:
        return "payload must not contain NUL"
    if WHITESPACE.search(name):
        return "names must not contain whitespace"
    if not name and key is None:
        return "empty name"
    if name.isdigit() and reads_as_key(name):  # isdigit spares most a call
        return "purely numeric names collide with key references"


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
NAME_KINDS = (PrefixKind.CHILD, PrefixKind.SIBLING, PrefixKind.ATTR_NAME)
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


@dataclass(slots=True)
class XsToken:
    kind: PrefixKind
    payload: str = ""
    depth: Optional[int] = None
    subst_key: Optional[int] = None

    def __post_init__(self):
        if self.kind in _MARKER_KINDS:
            raise ValueError(f"{self.kind.name} is a marker, not a token kind")
        if self.kind in NAME_KINDS:
            fault = name_fault(self.payload, self.subst_key)
            if fault is not None:
                raise ValueError(fault)
        else:
            if NUL in self.payload:
                raise ValueError("payload must not contain NUL")
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

    @classmethod
    def unchecked(cls, kind: PrefixKind, payload: str = "",
                  depth: Optional[int] = None,
                  subst_key: Optional[int] = None) -> XsToken:
        """A token built without the checks of __post_init__, for code that
        has already established them: the tokenizer, the encoders and the
        substitution passes.  Input from outside the library goes through
        XsToken(...)."""
        tok = object.__new__(cls)
        tok.kind = kind
        tok.payload = payload
        tok.depth = depth
        tok.subst_key = subst_key
        return tok

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
    # the member's plain attribute: Enum.value is a property, two Python
    # calls per read
    prefix = kind._value_
    if kind not in NAME_KINDS:
        return mark + prefix + body
    if not body:
        out = f"{mark}{prefix}{t.subst_key}"
    elif t.subst_key is None:
        out = mark + prefix + body
    else:
        out = f"{mark}{prefix}{body}{mark}#{t.subst_key}"
    if t.depth is not None:
        out += f"{mark}+{t.depth}"
    return out


def render(doc: XsDocument) -> str:
    """Serialize tokens to the wire string; no inter-token whitespace."""
    return "".join([render_token(t, doc.escaping) for t in doc.tokens])


# ---------------------------------------------------------------------------
# tokenizing

_P = re.escape(PREFIX_CHARS)
_DATA_LEADS = "-'?\\[!="
_RUN_REF = "&#[0-9]+;|&(?!#)"
# One token pattern per escape mode.  The alternatives and their groups,
# the same numbers in both modes:
#   1 2 3   dual lead, payload, what the run stopped at when unclosed
#   4 5     marker lead, digits
#   6 7     name lead, payload
#   8 9     data lead, payload
#   10      (entity mode) the '&' or NUL a name or data run stopped at
# A quoted attribute value ``="..."`` is read as a dual; sentinel mode has
# no quoted values.
_TOKEN = {
    EscapeMode.ENTITY: re.compile(
        f"[{_WS}]*(?:"
        f'(="|")((?:[^"&\\x00]+|{_RUN_REF})*)(?:"|([&\\x00]|\\Z))'
        "|([+#])([0-9]*)"
        f"|(?:([/|@])((?:[^{_P}&\\x00{_WS}]+|{_RUN_REF})*)"
        f"|([{_DATA_LEADS}])((?:[^{_P}&\\x00]+|{_RUN_REF})*))([&\\x00])?"
        ")?"),
    EscapeMode.SENTINEL: re.compile(
        f"[{_WS}]*(?:"
        '(\\x00")([^\\x00]*)(?:\\x00"|(\\x00|\\Z))'
        "|(\\x00[+#])([0-9]*)"
        f"|(\\x00[/|@])([^\\x00{_WS}]*)"
        f"|(\\x00[{_DATA_LEADS}])([^\\x00]*)"
        ")?"),
}
# what a match read, by its m.lastindex; the group before a payload holds
# its lead, and a lastindex of 3 or 10 says where a run stopped short
_DUAL, _MARKER, _NAME, _DATA = 2, 5, 7, 9
_LEADS = {lead: kind for c, kind in _CHAR_TO_KIND.items()
          for lead in (c, NUL + c)}
_LEADS['="'] = PrefixKind.ATTR_VALUE
# a sentinel-mode token opens with NUL; an entity-mode stream holds none
_SENTINEL_LEAD = re.compile(f"[{_WS}]*\\x00")


def stream_escaping(text: str) -> EscapeMode:
    """The escape mode text is written in: sentinel when its first
    character after padding is NUL, entity otherwise."""
    if _SENTINEL_LEAD.match(text):
        return EscapeMode.SENTINEL
    return EscapeMode.ENTITY


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


def _stopped(m: re.Match, g: int, sentinel: bool) -> NoReturn:
    """Raise for a payload run that stopped where group g of m begins: at
    an '&' that starts no reference, at a NUL in entity mode, or before the
    closer of a dual."""
    c, at = m[g], m.start(g)
    if c == "&":
        raise MalformedEntity(at, "'&#' is not a decimal character reference")
    if c == NUL and not sentinel:
        raise StrayData(at, "NUL in entity-mode stream")
    raise UnterminatedDual(m.start(_DUAL - 1), "dual text never closed")


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
        if t.kind in NAME_KINDS and t.payload and t.subst_key is None:
            t.subst_key = value
            return
    raise BadKey(offset, "key binder is not attached to a name")


_MARKERS = {"+": (BadDepth, "depth marker", _attach_depth),
            "#": (BadKey, "key binder", _attach_key)}


def tokenize(text: str, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Parse a wire string into tokens.

    Whitespace between a name's end and the next prefix character is
    treated as padding and discarded; whitespace inside data payloads is
    preserved.
    """
    sentinel = escaping is EscapeMode.SENTINEL
    match = _TOKEN[escaping].match
    new = XsToken.unchecked
    tokens: list[XsToken] = []
    n = len(text)
    i = 0
    while i < n:
        m = match(text, i)
        g = m.lastindex
        if g is None:
            if m.end() < n:
                _no_token(text, m.end(), sentinel)
            break
        i = m.end()
        payload = m[g]
        if g == _NAME:
            if not payload:
                raise EmptyName(m.start(g - 1), "missing name")
            # isdigit first spares most names the call
            if payload.isdigit() and reads_as_key(payload):
                key = _integer(payload, BadKey, m.start(g - 1), "key reference")
                tokens.append(new(_LEADS[m[g - 1]], "", None, key))
                continue
        elif g == _MARKER:
            start = m.start(g - 1)
            error, what, attach = _MARKERS[m[g - 1][-1]]
            if not payload:
                raise error(start, f"no integer after {what}")
            attach(tokens, _integer(payload, error, start, what), start)
            continue
        elif g != _DATA and g != _DUAL:
            _stopped(m, g, sentinel)
        if not sentinel and "&" in payload:
            payload = _REFERENCE.sub(
                _UNESCAPE_DUAL if g == _DUAL else _UNESCAPE, payload)
        tokens.append(new(_LEADS[m[g - 1]], payload))
    return XsDocument(tokens, escaping)
