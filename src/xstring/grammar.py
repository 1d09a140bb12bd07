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

A stream, XsDocument, is held as four parallel lists, entry i of each
describing token i: ``kinds``, ``payloads``, ``depths`` and ``keys``.  The
library's steps read and write these columns directly, so a stream costs
no Python object per token: the strings, small ints and None it holds are
not tracked by the cyclic collector.  XsToken is the checked form of one
token, for callers outside the library: ``XsDocument(tokens, escaping)``
takes a list of them and ``XsDocument.tokens`` builds a tuple of them on
demand, a copy that writes do not reach.  A document checks its escaping
where it is built, so no step after that needs to.

The tokenizer reads each token with one match of a compiled pattern per
escape mode.  The match skips padding and reads the lead (the prefix
character, after its NUL in sentinel mode) and that kind's payload run;
``m.lastindex`` says which kind of run it read.  A depth marker right
after a name or data payload is read by the same match.  That is where
the renderer writes an element's own marker (``/name+N``, or ``\\x00+N``
in sentinel mode), so a canonical stream costs one match per token as a
sibling stream does.  An element takes the marker; any other token hands
it to ``_attach_depth`` as a marker of its own would be.  A marker
anywhere else (after padding, a key binder, a quoted value or another
marker) is a match of its own.  An entity-mode data run is the possessive
``(?:[^<prefix chars>&\\x00]+|&#[0-9]+;|&(?!#))*+``, as are the name and dual
runs, so re keeps no backtracking state per reference.  The character a
run stops at names the error, read by the same match: ``&`` a malformed
reference, NUL stray data, the end of input an unterminated dual.  The
tokenizer writes each token's fields straight into the columns, without
``XsToken``'s checks: the pattern has already established them.  A marker
read after its token sets that token's depth or key in place.

Entity mode escapes and folds a stream's payloads together, not one
payload at a time.  ``render`` joins every payload with NUL, which no
payload may hold, escapes the joined string with one ``str.replace`` pass
per prefix character present (sentinel mode writes it as it is), and
splits it again; a split that does not give one piece per payload means a
payload held NUL, and render raises ``BadArgument`` in either mode rather
than write a stream that does not read back.  A dual payload escapes only
``"`` and ``#``: the loop that writes each token's piece escapes it where
it meets the token, from the payload itself.  ``tokenize`` leaves the
payloads that hold an ``&`` as the match read them and, after its loop,
folds their references back in one joined pass and writes them back into
``payloads`` by index: one ``str.replace`` per exact ``&#N;`` form of a
prefix character, ``&#35;`` last so that the ``#`` it writes starts no new
reference, after one regex pass that strips the zeros of padded forms.
Every other reference, of any length, stays verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import StrEnum
from typing import Callable, Iterable, NoReturn, Optional

from .errors import BadArgument, LocatedError, check_int

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


class PrefixKind(StrEnum):
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


class EscapeMode(StrEnum):
    ENTITY = "entity"
    SENTINEL = "sentinel"


PREFIX_CHARS = "".join(PrefixKind)
NAME_KINDS = (PrefixKind.CHILD, PrefixKind.SIBLING, PrefixKind.ATTR_NAME)
_MARKER_KINDS = (PrefixKind.DEPTH, PrefixKind.SUBST_KEY)


class TokenizeError(LocatedError):
    pass


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
        # checked by type: a plain '/' equals PrefixKind.CHILD, True equals 1
        if not isinstance(self.kind, PrefixKind):
            raise BadArgument(f"{self.kind!r} is not a PrefixKind")
        if self.kind in _MARKER_KINDS:
            raise BadArgument(f"{self.kind.name} is a marker, not a token kind")
        if self.kind in NAME_KINDS:
            fault = name_fault(self.payload, self.subst_key)
            if fault is not None:
                raise BadArgument(fault)
        else:
            if NUL in self.payload:
                raise BadArgument("payload must not contain NUL")
            if self.subst_key is not None:
                raise BadArgument("key on a non-name token")
        if self.depth is not None:
            if self.kind not in (PrefixKind.CHILD, PrefixKind.SIBLING):
                raise BadArgument("depth on a non-element token")
        for what, value in (("depth", self.depth), ("key", self.subst_key)):
            if value is None:
                continue
            check_int(what, value)
            if value < 0:
                raise BadArgument(f"negative {what}")

    def is_reference(self) -> bool:
        """True for a bare key occurrence standing in for a name."""
        return self.subst_key is not None and not self.payload


def _checked_escaping(escaping: EscapeMode) -> EscapeMode:
    if not isinstance(escaping, EscapeMode):
        raise BadArgument(f"unknown escape mode {escaping!r}")
    return escaping


class XsDocument:
    """A token stream as four parallel columns, entry i of each describing
    token i: kinds (PrefixKind), payloads (str), depths and keys (the
    token's depth marker and substitution key, int or None); and escaping,
    the EscapeMode it is written in.

    XsDocument(tokens, escaping) takes checked XsToken(...) values;
    from_columns takes the lists themselves, for code that has already
    established XsToken's checks on them: the tokenizer, the emitter, the
    packed-form reader and the substitution passes.  Both refuse an
    escaping that is not an EscapeMode, so no later step needs to check
    it."""

    __slots__ = ("kinds", "payloads", "depths", "keys", "escaping")

    def __init__(self, tokens: Iterable[XsToken] = (),
                 escaping: EscapeMode = EscapeMode.ENTITY):
        tokens = list(tokens)
        self.kinds = [t.kind for t in tokens]
        self.payloads = [t.payload for t in tokens]
        self.depths = [t.depth for t in tokens]
        self.keys = [t.subst_key for t in tokens]
        self.escaping = _checked_escaping(escaping)

    @classmethod
    def from_columns(cls, kinds: list[PrefixKind], payloads: list[str],
                     depths: list[Optional[int]], keys: list[Optional[int]],
                     escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
        """A document holding these lists, as they are, as its columns."""
        if not len(kinds) == len(payloads) == len(depths) == len(keys):
            raise BadArgument("columns of different lengths")
        doc = object.__new__(cls)
        doc.kinds, doc.payloads, doc.depths, doc.keys = (kinds, payloads,
                                                         depths, keys)
        doc.escaping = _checked_escaping(escaping)
        return doc

    @property
    def tokens(self) -> tuple[XsToken, ...]:
        """The tokens as the columns hold them, as a tuple built anew on
        each read and without XsToken's checks, which columns filled by
        hand may fail.  Writes do not reach the document: the tuple
        refuses them, and changing one of its tokens changes nothing
        here.  Edit the columns, or build a new XsDocument, instead; a
        loop over many tokens reads this once, not once per token."""
        tokens = []
        for fields in zip(self.kinds, self.payloads, self.depths, self.keys):
            tok = object.__new__(XsToken)
            tok.kind, tok.payload, tok.depth, tok.subst_key = fields
            tokens.append(tok)
        return tuple(tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XsDocument):
            return NotImplemented
        return (self.escaping is other.escaping and self.kinds == other.kinds
                and self.payloads == other.payloads
                and self.depths == other.depths and self.keys == other.keys)

    def __repr__(self) -> str:
        return f"XsDocument({self.tokens!r}, {self.escaping!r})"


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
            # the test pays: on 200 KB without c it is 35-45x faster
            # than str.replace (Python 3.11.7, 2-vCPU host)
            if c in s:
                s = s.replace(c, replace[c])
        return s
    return escape


def folder(chars: str) -> Callable[[str], str]:
    """A function reading each decimal reference to one of chars back as
    that character and leaving every other reference verbatim, as one
    left-to-right scan would: one regex pass strips the zeros of padded
    references, only when the text holds a '&#0', then one str.replace
    pass per character.  '&#35;' goes last, since the '#' it writes could
    start a reference that the scan would not read again."""
    codes = sorted((str(ord(c)) for c in chars), key=lambda n: n == "35")
    padded = re.compile(f"(?<=&#)0+(?=(?:{'|'.join(codes)});)")
    refs = [(f"&#{n};", chr(int(n))) for n in codes]

    def fold(s: str) -> str:
        if "&#0" in s:
            s = padded.sub("", s)
        for ref, c in refs:
            # no 'if ref in s': for a multi-character form replace runs the
            # same scan and returns s itself when it finds nothing
            s = s.replace(ref, c)
        return s
    return fold


# "..." payloads escape only the delimiter and the reference introducer;
# wire_pieces writes the same two with str.replace
_DUAL_CHARS = '"#'
_ESCAPE = escaper({c: f"&#{ord(c)};" for c in PREFIX_CHARS})
_UNESCAPE = folder(PREFIX_CHARS)
_UNESCAPE_DUAL = folder(_DUAL_CHARS)
_MALFORMED = re.compile("&#(?![0-9]+;)")


def escape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Make s safe for use as payload data in the given mode."""
    if _checked_escaping(mode) is EscapeMode.SENTINEL:
        return s
    return _ESCAPE(s)


def unescape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Inverse of escape_data over strings produced by it.

    A '&#' that is not a decimal reference is an error, since escaping
    never produces one."""
    if _checked_escaping(mode) is EscapeMode.SENTINEL:
        return s
    bad = _MALFORMED.search(s)
    if bad:
        raise MalformedEntity(bad.start(),
                              "'&#' is not a decimal character reference")
    return _UNESCAPE(s)


# ---------------------------------------------------------------------------
# rendering

# each kind's lead per escape mode, as plain str: a StrEnum member would
# miss the str + str fast path
_WIRE_LEADS = {EscapeMode.ENTITY: {kind: kind.value for kind in PrefixKind},
               EscapeMode.SENTINEL: {kind: NUL + kind.value
                                     for kind in PrefixKind}}


def wire_pieces(doc: XsDocument) -> list[str]:
    """The wire form of each token of doc, in order; render joins them.

    The payloads are escaped together: joined with NUL, which no payload
    may hold, escaped in one pass and split again.  A dual payload, which
    escapes only '"' and '#', is escaped where the loop meets it."""
    payloads = doc.payloads
    if not payloads:
        return []
    sentinel = doc.escaping is EscapeMode.SENTINEL
    joined = NUL.join(payloads)
    bodies = (joined if sentinel else _ESCAPE(joined)).split(NUL)
    if len(bodies) != len(payloads):
        raise BadArgument("payload must not contain NUL")
    mark = NUL if sentinel else ""
    leads = _WIRE_LEADS[doc.escaping]
    dual, names = PrefixKind.TEXT_DUAL, NAME_KINDS
    pieces: list[str] = []
    for kind, body, depth, key, payload in zip(doc.kinds, bodies, doc.depths,
                                               doc.keys, payloads):
        if kind is dual:
            if not sentinel:
                # '#' first: the '&#34;' a '"' becomes holds one; a call
                # per dual cost 3 % of the compact path on deep
                body = payload.replace("#", "&#35;").replace('"', "&#34;")
            pieces.append(f'{mark}"{body}{mark}"')
            continue
        lead = leads[kind]
        if kind not in names:
            pieces.append(lead + body)
            continue
        if not body:
            piece = f"{lead}{key}"
        elif key is None:
            piece = lead + body
        else:
            piece = f"{lead}{body}{mark}#{key}"
        if depth is not None:
            piece = f"{piece}{mark}+{depth}"
        pieces.append(piece)
    return pieces


def render(doc: XsDocument) -> str:
    """Serialize tokens to the wire string; no inter-token whitespace."""
    return "".join(wire_pieces(doc))


# ---------------------------------------------------------------------------
# tokenizing

_P = re.escape(PREFIX_CHARS)
_DATA_LEADS = "-'?\\[!="
_RUN_REF = "&#[0-9]+;|&(?!#)"
# One token pattern per escape mode.  The alternatives and their groups:
#   1 2 3   dual lead, payload, what the run stopped at when unclosed
#   4 5     data lead, payload
#   6 7     name lead, payload
#   8       the digits of a depth marker right after a name or data run
#   9       (entity mode) the '&' or NUL a name or data run stopped at
#   last 2  a marker's lead and digits: 10 11 in entity mode, 9 10 in
#           sentinel mode
# A quoted attribute value ``="..."`` is read as a dual; sentinel mode has
# no quoted values.  The entity-mode payload runs are possessive (``*+``):
# what follows a run matches wherever it stops, so re keeps no state to
# backtrack into it, where ``*`` kept some for every reference.  The
# marker alternative goes last: first, it cost 5-8 % in the match loop.
_TOKEN = {
    EscapeMode.ENTITY: re.compile(
        f"[{_WS}]*(?:"
        f'(="|")((?:[^"&\\x00]+|{_RUN_REF})*+)(?:"|([&\\x00]|\\Z))'
        f"|(?:([{_DATA_LEADS}])((?:[^{_P}&\\x00]+|{_RUN_REF})*+)"
        f"|([/|@])((?:[^{_P}&\\x00{_WS}]+|{_RUN_REF})*+))"
        "(?:\\+([0-9]+)|([&\\x00]))?"
        "|([+#])([0-9]*)"
        ")?"),
    EscapeMode.SENTINEL: re.compile(
        f"[{_WS}]*(?:"
        '(\\x00")([^\\x00]*)(?:\\x00"|(\\x00|\\Z))'
        f"|(?:(\\x00[{_DATA_LEADS}])([^\\x00]*)"
        f"|(\\x00[/|@])([^\\x00{_WS}]*))"
        "(?:\\x00\\+([0-9]+))?"
        "|(\\x00[+#])([0-9]*)"
        ")?"),
}
# what a match read, by its m.lastindex; the group before a payload holds
# its lead, and a lastindex of 3 or 9 says where a run stopped short
_DUAL, _DATA, _NAME, _DEPTH = 2, 5, 7, 8
_MARKER = {EscapeMode.ENTITY: 11, EscapeMode.SENTINEL: 10}
_CHILD, _SIBLING = PrefixKind.CHILD, PrefixKind.SIBLING
# keyed by plain str, not the members, so a lookup stays on dict's
# str-only fast path
_LEADS = {lead: kind for kind in PrefixKind
          for lead in (kind.value, NUL + kind)}
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


def _attach_depth(doc: XsDocument, value: int, offset: int) -> None:
    kinds, depths = doc.kinds, doc.depths
    for j in range(len(kinds) - 1, -1, -1):
        kind = kinds[j]
        if kind is _CHILD or kind is _SIBLING:
            if depths[j] is not None:
                raise BadDepth(offset, "duplicate depth marker")
            depths[j] = value
            return
        if kind not in (PrefixKind.ATTR_NAME, PrefixKind.ATTR_VALUE):
            break
    raise BadDepth(offset, "depth marker is not attached to an element")


def _attach_key(doc: XsDocument, value: int, offset: int) -> None:
    if doc.kinds and doc.kinds[-1] in NAME_KINDS and doc.payloads[-1] and (
            doc.keys[-1] is None):
        doc.keys[-1] = value
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
    doc = XsDocument.from_columns([], [], [], [], escaping)
    sentinel = escaping is EscapeMode.SENTINEL
    match = _TOKEN[escaping].match
    marker = _MARKER[escaping]
    # the length of a depth marker's lead, '+' or NUL '+'
    plus = 2 if sentinel else 1
    kinds, payloads = doc.kinds, doc.payloads
    depths, keys = doc.depths, doc.keys
    add_kind, add_payload = kinds.append, payloads.append
    add_depth, add_key = depths.append, keys.append
    # entity mode: the indexes of the payloads that hold an '&', by kind
    # of run
    refs: list[int] = []
    duals: list[int] = []
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
        if g == marker:
            start = m.start(g - 1)
            error, what, attach = _MARKERS[m[g - 1][-1]]
            payload = m[g]
            if not payload:
                raise error(start, f"no integer after {what}")
            attach(doc, _integer(payload, error, start, what), start)
            continue
        marked = g == _DEPTH
        if marked:
            g = _DATA if m[_DATA] is not None else _NAME
        payload = m[g]
        if g == _NAME:
            if not payload:
                raise EmptyName(m.start(g - 1), "missing name")
            # isdigit first spares most names the call
            if payload.isdigit() and reads_as_key(payload):
                add_key(_integer(payload, BadKey, m.start(g - 1),
                                 "key reference"))
                payload = ""
            else:
                add_key(None)
        elif g == _DATA or g == _DUAL:
            add_key(None)
        else:
            _stopped(m, g, sentinel)
        kind = _LEADS[m[g - 1]]
        add_kind(kind)
        add_payload(payload)
        add_depth(None)
        if marked:
            # the marker read with the token: an element takes it, and
            # any other token attaches it as a marker of its own would be
            start = m.start(_DEPTH) - plus
            # int inline, _integer only when it fails: through _integer,
            # canonical decode on the deep benchmark workload took 1.02x
            # as long
            try:
                depth = int(m[_DEPTH])
            except ValueError:  # _integer raises the overlong error
                depth = _integer(m[_DEPTH], BadDepth, start, "depth marker")
            if kind is _CHILD or kind is _SIBLING:
                depths[-1] = depth
            else:
                _attach_depth(doc, depth, start)
        if not sentinel and "&" in payload:
            (duals if g == _DUAL else refs).append(len(payloads) - 1)
    # one fold over each kind's payloads, joined with NUL, which an
    # entity-mode stream does not hold; a fold per payload was 3-8 %
    # slower on the corpus and wide benchmark workloads
    for held, fold in ((refs, _UNESCAPE), (duals, _UNESCAPE_DUAL)):
        if held:
            folded = fold(NUL.join([payloads[j] for j in held])).split(NUL)
            for j, payload in zip(held, folded):
                payloads[j] = payload
    return doc
