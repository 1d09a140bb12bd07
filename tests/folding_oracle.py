"""The fold layout read and written one attribute at a time, kept as a
reference.

folding.py's one-pass slot reader and writer replaced it; test_folding.py
compares the two.  Every attribute read or write scans the slot's whole
attribute list, and a multi slot's COUNT is trusted: a missing pair is
read as empty, so fold and unfold take time quadratic in the count.
"""

import re
from typing import Optional

from xstring.codec import EncodeOptions, decode, encode
from xstring.folding import (SLOT_NAME, FoldMode, IndexOutOfRange,
                             LengthMismatch, MixedSlot, MultipleSlots, NoSlot,
                             escape_fold_attr, unescape_fold_attr)
from xstring.grammar import EscapeMode, render, tokenize
from xstring.xml_model import NodeKind, XmlDocument, XmlNode

from walk_oracle import walk

_DIGITS = re.compile("[0-9]+")


def _slot(doc: XmlDocument, what: str) -> Optional[XmlNode]:
    """The single slot element of doc, or None when it has none."""
    slots = [node for node, entering in walk(doc.root)
             if entering and node.kind is NodeKind.ELEMENT
             and node.name == SLOT_NAME]
    if len(slots) > 1:
        raise MultipleSlots(f"{what} has {len(slots)} {SLOT_NAME} elements")
    return slots[0] if slots else None


def _find_slot(doc: XmlDocument, what: str) -> XmlNode:
    slot = _slot(doc, what)
    if slot is None:
        raise NoSlot(f"{what} has no {SLOT_NAME} element")
    return slot


def _get_attr(node: XmlNode, name: str) -> Optional[str]:
    for n, v in node.attributes:
        if n == name:
            return v if v is not None else ""
    return None


def _set_attr(node: XmlNode, name: str, value: str) -> None:
    for i, (n, _) in enumerate(node.attributes):
        if n == name:
            node.attributes[i] = (n, value)
            return
    node.attributes.append((name, value))


def _fold_attr_names(node: XmlNode) -> list[str]:
    names = []
    for n, _ in node.attributes:
        if n in ("COUNT", "LENGTH", "TEXT"):
            names.append(n)
        elif (n.startswith(("LENGTH_", "TEXT_"))
              and _DIGITS.fullmatch(n.rpartition("_")[2])):
            names.append(n)
    return names


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


def oracle_fold(inner: XmlDocument, host: XmlDocument,
                mode: str = FoldMode.NESTED) -> XmlDocument:
    """Store inner, encoded, in the slot of a copy of host."""
    out = host.copy()
    slot = _find_slot(out, "host")
    if mode == FoldMode.NESTED:
        if _get_attr(slot, "COUNT") is not None:
            raise MixedSlot("host slot already holds a multi fold")
        text = _encode_payload(inner)
        _set_attr(slot, "LENGTH", str(len(text)))
        _set_attr(slot, "TEXT", escape_fold_attr(text))
        return out
    if mode != FoldMode.MULTI:
        raise ValueError(f"unknown fold mode {mode!r}")

    # the host slot must be fresh; an explicit COUNT="0" counts as fresh
    taken = _fold_attr_names(slot)
    if taken == ["COUNT"]:
        if _parse_count(_get_attr(slot, "COUNT"), "COUNT") != 0:
            raise MixedSlot("host slot already holds folded layers; "
                            "fold the host as the inner document instead")
    elif taken:
        raise MixedSlot("multi fold needs a host slot with no fold attributes")

    pairs: list[tuple[str, str]] = []
    inner_slot = _slot(inner, "inner document")
    if inner_slot is not None:
        count_text = _get_attr(inner_slot, "COUNT")
        if count_text is None:
            if _get_attr(inner_slot, "LENGTH") is not None \
                    or _get_attr(inner_slot, "TEXT") is not None:
                raise MixedSlot("inner document's slot holds a nested fold")
        else:
            count = _parse_count(count_text, "COUNT")
            for i in range(count):
                pairs.append((_get_attr(inner_slot, f"LENGTH_{i}") or "0",
                              _get_attr(inner_slot, f"TEXT_{i}") or ""))
            inner = inner.copy()
            reset_slot = _find_slot(inner, "inner document")
            stripped = set(_fold_attr_names(reset_slot))
            reset_slot.attributes = [(n, v) for n, v in reset_slot.attributes
                                     if n not in stripped]

    text = _encode_payload(inner)
    _set_attr(slot, "COUNT", str(len(pairs) + 1))
    for i, (length, stored) in enumerate(pairs):
        _set_attr(slot, f"LENGTH_{i}", length)
        _set_attr(slot, f"TEXT_{i}", stored)
    _set_attr(slot, f"LENGTH_{len(pairs)}", str(len(text)))
    _set_attr(slot, f"TEXT_{len(pairs)}", escape_fold_attr(text))
    return out


def _decode_stored(length_text: str, stored: str) -> XmlDocument:
    expected = _parse_count(length_text, "LENGTH")
    text = unescape_fold_attr(stored)
    if len(text) != expected:
        raise LengthMismatch(
            f"LENGTH says {expected} characters but TEXT holds {len(text)}")
    return decode(tokenize(text, EscapeMode.ENTITY))


def oracle_unfold(doc: XmlDocument,
                  index: Optional[int] = None) -> XmlDocument:
    """Rebuild a folded document from the slot of doc.

    For a multi fold, index picks the layer (default the outermost); the
    returned document gets the pairs below that layer handed back to its
    own slot, so it compares equal to the document that was folded in.
    """
    slot = _find_slot(doc, "document")
    count_text = _get_attr(slot, "COUNT")
    if count_text is None:
        if index not in (None, 0):
            raise IndexOutOfRange("a nested fold holds a single document")
        return _decode_stored(_get_attr(slot, "LENGTH") or "0",
                              _get_attr(slot, "TEXT") or "")

    if _get_attr(slot, "LENGTH") is not None \
            or _get_attr(slot, "TEXT") is not None:
        raise MixedSlot("slot mixes nested and multi fold attributes")
    count = _parse_count(count_text, "COUNT")
    k = count - 1 if index is None else index
    if not 0 <= k < count:
        raise IndexOutOfRange(f"index {k} outside the {count} folded layers")
    payload = _decode_stored(_get_attr(slot, f"LENGTH_{k}") or "0",
                             _get_attr(slot, f"TEXT_{k}") or "")
    if k > 0:
        inner_slot = _find_slot(payload, "rebuilt document")
        _set_attr(inner_slot, "COUNT", str(k))
        for i in range(k):
            length = _get_attr(slot, f"LENGTH_{i}")
            stored = _get_attr(slot, f"TEXT_{i}")
            if length is not None:
                _set_attr(inner_slot, f"LENGTH_{i}", length)
            if stored is not None:
                _set_attr(inner_slot, f"TEXT_{i}", stored)
    return payload
