"""Folding an encoded document into an attribute of a host document.

The host must contain exactly one XSTRING element, the slot.  Nested mode
stores one encoded document in the slot's LENGTH and TEXT attributes; when
such a document is folded again the stored string gets escaped once per
layer and grows accordingly.  Multi mode avoids that: the slot carries a
COUNT and one LENGTH_i/TEXT_i pair per layer, and folding an already
folded document lifts its pairs up unchanged, so each layer is escaped
exactly once.  Unfolding at index k rebuilds the document of that layer
and hands pairs 0..k-1 back down to its slot.

LENGTH always counts the raw encoded string before attribute escaping and
is checked on unfold, so a tampered TEXT is caught early.

A multi slot must hold LENGTH_i and TEXT_i for every i below its COUNT,
or LengthMismatch names the first one missing.  Reading or writing a slot
takes one pass over its attributes, whatever COUNT claims.
"""

from __future__ import annotations

import re
from enum import StrEnum
from typing import Optional

from .codec import EncodeOptions, decode, encode
from .errors import BadArgument, XStringError, check_int
from .grammar import EscapeMode, escaper, render, tokenize
from .xml_model import NodeKind, XmlDocument, XmlNode, walk

SLOT_NAME = "XSTRING"

_ESCAPE = escaper({" ": "&#160;", '"': "&#34;", "&": "&#38;",
                     "<": "&#60;"})
_UNESCAPES = {"&#160;": " ", "&#34;": '"', "&#38;": "&", "&#60;": "<",
              "&nbsp;": " "}
# every reference starts with '&' and ends at its first ';', so matching
# the literals left to right finds what a scan from each '&' to the next
# ';' finds
_REFERENCE = re.compile("|".join(map(re.escape, _UNESCAPES)))
# a count or layer index in a folded document: ASCII digits, where int()
# and str.isdigit would also take signs, spaces, underscores and the
# digits of other scripts
_DIGITS = re.compile("[0-9]+")
# the names a fold layout owns: COUNT, LENGTH, TEXT, and a LENGTH_ or TEXT_
# name whose part after its last underscore is ASCII digits (TEXT_x_1 too)
_LAYOUT_NAME = re.compile("(?s)COUNT|(?:LENGTH|TEXT)(?:_(?:.*_)?[0-9]+)?")


class FoldMode(StrEnum):
    NESTED = "nested"
    MULTI = "multi"


class FoldError(XStringError):
    pass


class NoSlot(FoldError):
    pass


class MultipleSlots(FoldError):
    pass


class MixedSlot(FoldError):
    pass


class IndexOutOfRange(FoldError):
    pass


class LengthMismatch(FoldError):
    pass


def escape_fold_attr(s: str) -> str:
    """Make an encoded string safe for storage in an attribute value."""
    return _ESCAPE(s)


def unescape_fold_attr(s: str) -> str:
    return _REFERENCE.sub(lambda m: _UNESCAPES[m[0]], s)


def _slot(doc: XmlDocument, what: str) -> Optional[XmlNode]:
    """The single slot element of doc, or None when it has none."""
    slots = [node for node, _, _ in walk(doc)
             if node.kind is NodeKind.ELEMENT and node.name == SLOT_NAME]
    if len(slots) > 1:
        raise MultipleSlots(f"{what} has {len(slots)} {SLOT_NAME} elements")
    return slots[0] if slots else None


def _find_slot(doc: XmlDocument, what: str) -> XmlNode:
    slot = _slot(doc, what)
    if slot is None:
        raise NoSlot(f"{what} has no {SLOT_NAME} element")
    return slot


def _read_slot(slot: XmlNode) -> dict[str, str]:
    """The slot's attributes by name: the first of a repeated name wins and
    an attribute without a value reads as ''."""
    return {name: value or "" for name, value in reversed(slot.attributes)}


def _layers(attrs: dict[str, str]) -> Optional[list[tuple[str, str]]]:
    """The (LENGTH_i, TEXT_i) pairs of a slot, lowest layer first, or None
    when it has no COUNT.  The read ends at the first pair missing below
    COUNT, so it costs at most the slot's attributes whatever COUNT says."""
    if "COUNT" not in attrs:
        return None
    if "LENGTH" in attrs or "TEXT" in attrs:
        raise MixedSlot("slot mixes nested and multi fold attributes")
    count = _parse_count(attrs["COUNT"], "COUNT")
    pairs = []
    for i in range(count):
        try:
            pairs.append((attrs[f"LENGTH_{i}"], attrs[f"TEXT_{i}"]))
        except KeyError as missing:
            raise LengthMismatch(f"COUNT says {count} layers but the slot "
                                 f"has no {missing.args[0]}") from None
    return pairs


def _write_slot(slot: XmlNode, /, **values: str) -> None:
    """Set values on slot in one pass: an attribute it already has keeps
    its place, the others are appended in order."""
    attrs = slot.attributes
    for i, (name, _) in enumerate(attrs):
        if name in values:
            attrs[i] = (name, values.pop(name))
    attrs.extend(values.items())


def _write_layers(slot: XmlNode, pairs: list[tuple[str, str]]) -> None:
    values = {"COUNT": str(len(pairs))}
    for i, (length, stored) in enumerate(pairs):
        values.update({f"LENGTH_{i}": length, f"TEXT_{i}": stored})
    _write_slot(slot, **values)


def _parse_count(text: str, what: str) -> int:
    if _DIGITS.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    elif text.startswith("-") and _DIGITS.fullmatch(text, 1):
        raise LengthMismatch(f"{what} {text!r} is negative")
    raise LengthMismatch(f"{what} {text!r} is not a number")


def _encode_payload(payload: XmlDocument) -> str:
    return render(encode(payload, EncodeOptions(escaping=EscapeMode.ENTITY)))


def fold(inner: XmlDocument, host: XmlDocument,
         mode: str = FoldMode.NESTED) -> XmlDocument:
    """Store inner, encoded, in the slot of a copy of host."""
    if mode not in list(FoldMode):
        raise BadArgument(f"unknown fold mode {mode!r}")
    out = host.copy()
    slot = _find_slot(out, "host")
    attrs = _read_slot(slot)
    if mode == FoldMode.NESTED:
        if "COUNT" in attrs:
            raise MixedSlot("host slot already holds a multi fold")
        text = _encode_payload(inner)
        _write_slot(slot, LENGTH=str(len(text)), TEXT=escape_fold_attr(text))
        return out

    # the host slot must be fresh; an explicit COUNT="0" counts as fresh
    taken = [name for name in attrs if _LAYOUT_NAME.fullmatch(name)]
    if taken == ["COUNT"] and _parse_count(attrs["COUNT"], "COUNT"):
        raise MixedSlot("host slot already holds folded layers; "
                        "fold the host as the inner document instead")
    if taken not in ([], ["COUNT"]):
        raise MixedSlot("multi fold needs a host slot with no fold attributes")

    inner_slot = _slot(inner, "inner document")
    inner_attrs = {} if inner_slot is None else _read_slot(inner_slot)
    lifted = _layers(inner_attrs)
    if lifted is None and ("LENGTH" in inner_attrs or "TEXT" in inner_attrs):
        raise MixedSlot("inner document's slot holds a nested fold")
    pairs = [(length or "0", stored) for length, stored in lifted or ()]
    if lifted is not None:
        inner = inner.copy()
        reset_slot = _find_slot(inner, "inner document")
        reset_slot.attributes = [(n, v) for n, v in reset_slot.attributes
                                 if not _LAYOUT_NAME.fullmatch(n)]

    text = _encode_payload(inner)
    _write_layers(slot, pairs + [(str(len(text)), escape_fold_attr(text))])
    return out


def _decode_stored(length_text: str, stored: str) -> XmlDocument:
    expected = _parse_count(length_text or "0", "LENGTH")
    text = unescape_fold_attr(stored)
    if len(text) != expected:
        raise LengthMismatch(
            f"LENGTH says {expected} characters but TEXT holds {len(text)}")
    return decode(tokenize(text, EscapeMode.ENTITY))


def unfold(doc: XmlDocument, index: Optional[int] = None) -> XmlDocument:
    """Rebuild a folded document from the slot of doc.

    For a multi fold, index picks the layer (default the outermost); the
    returned document gets the pairs below that layer handed back to its
    own slot, so it compares equal to the document that was folded in.
    """
    if index is not None:
        check_int("index", index)
    slot = _find_slot(doc, "document")
    attrs = _read_slot(slot)
    pairs = _layers(attrs)
    if pairs is None:
        if index not in (None, 0):
            raise IndexOutOfRange("a nested fold holds a single document")
        return _decode_stored(attrs.get("LENGTH", ""), attrs.get("TEXT", ""))

    count = len(pairs)
    k = count - 1 if index is None else index
    if not 0 <= k < count:
        raise IndexOutOfRange(f"index {k} outside the {count} folded layers")
    payload = _decode_stored(*pairs[k])
    if k > 0:
        _write_layers(_find_slot(payload, "rebuilt document"), pairs[:k])
    return payload
