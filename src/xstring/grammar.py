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

The tokenizer reads a stream with one ``re.split`` of a compiled pattern
per escape mode.  A match is one token or marker, and its groups line up
as the columns of a row of the split: the lead (the prefix character
alone, without the NUL before it in sentinel mode, so that the split
makes no string for it), the payload, whose dual, data or name run a
lookbehind on the lead chooses, a dual flag, a visit flag set for
markers and for names made only of digits, the stop, and the digits of a
depth marker right after a name or data run.  That is where the renderer
writes an element's own marker (``/name+N``, or ``\\x00+N`` in sentinel
mode).  Slices of the split give the columns, and the kinds are mapped
from the leads, all in C.  Python then visits only the rows that need
it, in stream order: a marker, attached by ``_attach_depth`` or
``_attach_key``; a name made only of digits, read as a key; a depth
marker on a row that is not an element (an element's own depths are
mapped from their digits in C); and the first fault.  A fault is the
first row whose run stopped short (the stop group: ``&`` a malformed
reference, NUL stray data, the end of input or a NUL an unterminated
dual) or the first gap between matches that holds more than padding.
It is raised after any error of an earlier row, with the offset the
match that read it had: the split is made again, stopped after that
many matches, and the length of what it leaves gives the offset, so no
offset is computed on the way to a good result.  The entity-mode
payload runs are possessive and unrolled,
``[^<stops>&\\x00]*+(?:<reference>[^<stops>&\\x00]*+)*+``, so re keeps no
backtracking state per reference and a payload without an ``&`` is one
scan of a class.

Entity mode escapes and folds a stream's payloads together, not one
payload at a time.  ``render`` joins every payload with NUL, which no
payload may hold, escapes the joined string with one ``str.replace`` pass
per prefix character present (sentinel mode writes it as it is), and
splits it again; a split that does not give one piece per payload means a
payload held NUL, and render raises ``BadArgument`` in either mode rather
than write a stream that does not read back.  A dual payload escapes only
``"`` and ``#``: the loop that writes each token's piece escapes it where
it meets the token, from the payload itself.  ``tokenize`` leaves the
payloads that hold an ``&`` as the split read them and then
folds their references back in one joined pass and writes them back into
``payloads`` by index: one ``str.replace`` per exact ``&#N;`` form of a
prefix character, ``&#35;`` last so that the ``#`` it writes starts no new
reference, after one regex pass that strips the zeros of padded forms.
Every other reference, of any length, stays verbatim.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import StrEnum
from functools import partial
from itertools import compress, count, filterfalse, repeat
from operator import contains, is_not
from typing import Callable, Iterable, NoReturn, Optional

from .errors import BadArgument, LocatedError, check_int
from .xml_model import XML_WHITESPACE

NUL = "\x00"
# a NUL would end its payload early on the wire and in the packed form
NUL_IN_PAYLOAD = "payload must not contain NUL"
# whitespace on the wire is XML's
WHITESPACE = re.compile(f"[{XML_WHITESPACE}]")


def reads_as_key(s: str) -> bool:
    """True when s, written in name position, would read back as a key."""
    return s.isascii() and s.isdigit()


def name_fault(name: str, key: Optional[int]) -> Optional[str]:
    """XsToken(...)'s message for a name token it refuses, else None."""
    if NUL in name:
        return NUL_IN_PAYLOAD
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
                raise BadArgument(NUL_IN_PAYLOAD)
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


def checked_escaping(escaping: EscapeMode) -> EscapeMode:
    """escaping, which must be an EscapeMode; else BadArgument."""
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
        self.escaping = checked_escaping(escaping)

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
        doc.escaping = checked_escaping(escaping)
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
_NOT_A_REFERENCE = "'&#' is not a decimal character reference"


def escape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Make s safe for use as payload data in the given mode."""
    if checked_escaping(mode) is EscapeMode.SENTINEL:
        return s
    return _ESCAPE(s)


def unescape_data(s: str, mode: EscapeMode = EscapeMode.ENTITY) -> str:
    """Inverse of escape_data over strings produced by it.

    A '&#' that is not a decimal reference is an error, since escaping
    never produces one."""
    if checked_escaping(mode) is EscapeMode.SENTINEL:
        return s
    bad = _MALFORMED.search(s)
    if bad:
        raise MalformedEntity(bad.start(), _NOT_A_REFERENCE)
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
        raise BadArgument(NUL_IN_PAYLOAD)
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
# a reference a run reads past: a decimal one, or an '&' that starts none
_REF = "(?:&#[0-9]+;|&(?!#))"


def _run(chars: str) -> str:
    """An entity-mode payload run of chars and references, unrolled: on a
    payload with no '&' it is one scan of a class."""
    return f"[^{chars}&\\x00]*+(?:{_REF}[^{chars}&\\x00]*+)*+"


# One token pattern per escape mode, which tokenize splits a stream with.
# A match is one token or marker, and its groups line up as the columns of
# a row of the split:
#   1 lead     the prefix character, without the NUL before it in sentinel
#              mode: one character, which Python does not build anew
#   2 payload  the run the lead calls for, chosen by a lookbehind on the
#              lead: a dual run after '"' (a quoted value ``="`` reads as
#              a dual), a marker's digits or a name made only of digits,
#              a name run after a name lead, and a data run after the rest
#   3 dual     the opening quote of a dual, read by that lookbehind; the
#              tail takes the closing one when this is set
#   4 visit    the lead again for a marker and for a name made only of
#              digits (or of nothing): the rows Python has to visit
#   5 stop     what a run stopped short at: '&' starting no reference or a
#              NUL in entity mode, and for a dual a NUL that does not close
#              it in sentinel mode, or the end of input ("")
#   6 depth    the digits of a depth marker right after a name or data run
# Padding is not part of the pattern but left between matches, so a
# search never reads a run of whitespace more than once.  The payload runs
# are possessive (``*+``): what follows a run matches wherever it stops,
# so re keeps no state to backtrack into it.
_TOKEN = {
    EscapeMode.ENTITY: re.compile(
        f'([{_P}])(?:(?<==)")?+('
        f'(?<=("))' + _run('"') +
        f"|(?=(?<=[+#])|[0-9]*+(?![^{_P}&\\x00{XML_WHITESPACE}]|{_REF}))"
        "(?<=([/|@+#]))[0-9]*+"
        "|(?<=[/|@])" + _run(_P + XML_WHITESPACE) +
        "|" + _run(_P) +
        ')(?:([&\\x00]|(?(3)\\Z|(?!)))|(?(3)"|(?:\\+([0-9]+))?))'),
    EscapeMode.SENTINEL: re.compile(
        f"\\x00([{_P}])("
        '(?<=("))[^\\x00]*+'
        f"|(?=(?<=[+#])|[0-9]*+(?![^\\x00{XML_WHITESPACE}]))"
        "(?<=([/|@+#]))[0-9]*+"
        f"|(?<=[/|@])[^\\x00{XML_WHITESPACE}]*+"
        "|[^\\x00]*+"
        ')(?:((?(3)\\x00(?!")|(?!))|(?(3)\\Z|(?!)))'
        '|(?(3)\\x00"|(?:\\x00\\+([0-9]+))?))'),
}
# a row of a split: the text before the match, then its six groups
_STRIDE = 7
_CHILD, _SIBLING = PrefixKind.CHILD, PrefixKind.SIBLING
# keyed by plain str, not the members, so a lookup stays on dict's
# str-only fast path
_LEADS = {kind.value: kind for kind in PrefixKind}
# whether a row's kind is a token's, not a marker's
_IS_TOKEN = {kind: kind not in _MARKER_KINDS for kind in PrefixKind}
# what a depth marker passes over on its way back to its element
_ATTACH_ACROSS = (PrefixKind.ATTR_NAME, PrefixKind.ATTR_VALUE) + _MARKER_KINDS
# a sentinel-mode token opens with NUL; an entity-mode stream holds none
_SENTINEL_LEAD = re.compile(f"[{XML_WHITESPACE}]*\\x00")


def stream_escaping(text: str) -> EscapeMode:
    """The escape mode text is written in: sentinel when its first
    character after padding is NUL, entity otherwise."""
    if _SENTINEL_LEAD.match(text):
        return EscapeMode.SENTINEL
    return EscapeMode.ENTITY


def _start(pattern: re.Pattern, text: str, row: int) -> int:
    """Where the match of row begins, past the padding before it; for the
    row after the last, where the text after the last match stops being
    padding.  A split that stops after row matches leaves the rest of text
    as its last part."""
    rest = pattern.split(text, row)[-1] if row else text
    return len(text) - len(rest.lstrip(XML_WHITESPACE))


def _end(pattern: re.Pattern, text: str, row: int) -> int:
    """Where the match of row ends."""
    return len(text) - len(pattern.split(text, row + 1)[-1])


def _no_token(text: str, i: int, sentinel: bool) -> NoReturn:
    """Raise for the character at i, which cannot start a token."""
    if text[i] != NUL:
        raise StrayData(i, "data outside any token")
    if not sentinel:
        raise StrayData(i, "NUL in entity-mode stream")
    if i + 1 == len(text):
        raise DanglingEscape(i, "sentinel at end of input")
    raise DanglingEscape(i, "sentinel before a non-structural character")


def _integer(digits: str, error: type[TokenizeError],
             where: Callable[[], int], what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise error(where(), f"{what} has too many digits") from None


def _attach_depth(doc: XsDocument, row: int, value: int,
                  where: Callable[[], int]) -> None:
    """Give value to the element that the depth marker of row follows: the
    row itself, or the nearest row before it across attributes and other
    markers."""
    kinds, depths = doc.kinds, doc.depths
    for j in range(row, -1, -1):
        kind = kinds[j]
        if kind is _CHILD or kind is _SIBLING:
            if depths[j] is not None:
                raise BadDepth(where(), "duplicate depth marker")
            depths[j] = value
            return
        if kind not in _ATTACH_ACROSS:
            break
    raise BadDepth(where(), "depth marker is not attached to an element")


def _attach_key(doc: XsDocument, row: int, value: int,
                where: Callable[[], int]) -> None:
    """Give value to the name that the key binder of row follows."""
    kinds = doc.kinds
    j = row - 1
    while j >= 0 and kinds[j] in _MARKER_KINDS:
        j -= 1
    if j >= 0 and kinds[j] in NAME_KINDS and doc.payloads[j] and (
            doc.keys[j] is None):
        doc.keys[j] = value
        return
    raise BadKey(where(), "key binder is not attached to a name")


_MARKERS = {PrefixKind.DEPTH: (BadDepth, "depth marker", _attach_depth),
            PrefixKind.SUBST_KEY: (BadKey, "key binder", _attach_key)}


def _fold(payloads: list[str], rows: list[int],
          fold: Callable[[str], str]) -> None:
    """Fold the references of the payloads of rows, joined with NUL, which
    an entity-mode stream does not hold: a fold per payload was 3-8 %
    slower on the corpus and wide benchmark workloads."""
    if rows:
        folded = fold(NUL.join(map(payloads.__getitem__, rows))).split(NUL)
        deque(map(payloads.__setitem__, rows, folded), 0)


def tokenize(text: str, escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """Parse a wire string into tokens.

    Whitespace between a name's end and the next prefix character is
    treated as padding and discarded; whitespace inside data payloads is
    preserved.
    """
    pattern = _TOKEN[checked_escaping(escaping)]
    sentinel = escaping is EscapeMode.SENTINEL
    parts = pattern.split(text)
    rows = len(parts) // _STRIDE
    # the first fault: the text before row `gap` (rows for the text after
    # the last match) holds more than padding, or the run of row `stop`
    # stopped short; rows + 1 where there is none
    gap = stop = rows + 1
    if "".join(parts[::_STRIDE]).strip(XML_WHITESPACE):
        gap = next(g for g, before in enumerate(parts[::_STRIDE])
                   if before.strip(XML_WHITESPACE))
    stops = parts[5::_STRIDE]
    if stops.count(None) != rows:
        stop = next(compress(count(), map(is_not, stops, repeat(None))))
        stopped_at = stops[stop]
    del stops
    kinds = list(map(_LEADS.__getitem__, parts[1::_STRIDE]))
    payloads = parts[2::_STRIDE]
    visits = list(compress(range(rows), parts[4::_STRIDE]))
    # the dual and depth columns, kept only where they hold something, so
    # that a stream without them peaks lower
    flags = parts[3::_STRIDE]
    if flags.count(None) == rows:
        flags = ()
    marks = parts[6::_STRIDE]
    if marks.count(None) == rows:
        marks = None
    del parts
    depths = [None] * rows
    # each element's own depth marker is read in C; a marker on any other
    # row is attached by the visit to that row
    values = {}
    if marks:
        distinct = set(marks)
        distinct.discard(None)
        try:
            values = dict(zip(distinct, map(int, distinct)))
        except ValueError:  # too many digits: each visit reads its own
            values = None
        if values is not None:
            values[None] = None
            depths = list(map(values.__getitem__, marks))
        if values is None or not set(compress(kinds, marks)) <= {
                _CHILD, _SIBLING}:
            visits = sorted({*visits, *compress(range(rows), marks)})
    doc = XsDocument.from_columns(kinds, payloads, depths, [None] * rows,
                                  escaping)
    # visit the rows that need Python, in stream order, up to the first
    # fault; a marker row whose stop is its fault is visited first
    limit = gap if gap <= stop else stop + (kinds[stop] in _MARKER_KINDS)
    markers = False
    for j in visits:
        if j >= limit:
            break
        kind, payload = kinds[j], payloads[j]
        mark = marks[j] if marks else None
        where = partial(_start, pattern, text, j)
        if kind in _MARKER_KINDS:
            markers = True
            error, what, attach = _MARKERS[kind]
            if not payload:
                raise error(where(), f"no integer after {what}")
            attach(doc, j, _integer(payload, error, where, what), where)
        elif kind in NAME_KINDS and (not payload or reads_as_key(payload)):
            if not payload:
                raise EmptyName(where(), "missing name")
            doc.keys[j] = _integer(payload, BadKey, where, "key reference")
            payloads[j] = ""
        if mark is not None and (values is None or (
                kind is not _CHILD and kind is not _SIBLING)):
            def where():
                return (_end(pattern, text, j) - len(mark)
                        - (2 if sentinel else 1))
            depths[j] = None
            _attach_depth(doc, j, _integer(mark, BadDepth, where,
                                           "depth marker"), where)
    if gap <= min(stop, rows):
        _no_token(text, _start(pattern, text, gap), sentinel)
    if stop < rows:
        # a run stopped short: where no token starts, at an '&' that
        # starts no reference, or where a dual's closer should be
        at = _end(pattern, text, stop) - len(stopped_at)
        if (kinds[stop] in _MARKER_KINDS
                or (stopped_at == NUL and not sentinel)):
            _no_token(text, at, sentinel)
        if stopped_at == "&":
            raise MalformedEntity(at, _NOT_A_REFERENCE)
        raise UnterminatedDual(_start(pattern, text, stop),
                               "dual text never closed")
    if not sentinel and "&" in text:
        # the payloads holding an '&', folded together by kind of run
        held = list(compress(range(rows), map(contains, payloads,
                                              repeat("&"))))
        duals = set(compress(range(rows), flags)).__contains__
        _fold(payloads, list(filterfalse(duals, held)), _UNESCAPE)
        _fold(payloads, list(filter(duals, held)), _UNESCAPE_DUAL)
    if markers:
        keep = list(map(_IS_TOKEN.__getitem__, kinds))
        doc.kinds, doc.payloads, doc.depths, doc.keys = (
            list(compress(column, keep)) for column in (
                kinds, payloads, depths, doc.keys))
    return doc
