"""Stream rewrites: canonical form and name substitution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .codec import EncodeMode, EncodeOptions, UnknownKey, decode, encode
from .errors import BadArgument, XStringError
from .grammar import (NAME_KINDS, EscapeMode, XsDocument, escape_data,
                      name_fault, reads_as_key)


class NumericNameClash(XStringError):
    pass


class AlreadyKeyed(BadArgument):
    pass


@dataclass
class SubstitutionTable:
    """Names keyed by position; key k stands for names[k]."""
    names: list[str] = field(default_factory=list)


def to_child_depth(doc: XsDocument) -> XsDocument:
    """Rewrite a stream so it uses no sibling tokens at all.

    Every element token comes out as a child carrying the exact number of
    nodes it encloses, which makes the stream order-insensitive to name
    clashes at the cost of the depth digits.
    """
    opts = EncodeOptions(mode=EncodeMode.CANONICAL, escaping=doc.escaping,
                         drop_insignificant_whitespace=False)
    return encode(decode(doc), opts)


def build_substitution(doc: XsDocument,
                       threshold: int = 8) -> tuple[SubstitutionTable, XsDocument]:
    """Replace repeated long names with small numeric keys.

    A name is a candidate when it is at least threshold characters long and
    appears at least twice in name position (element or attribute).  Keys
    are handed out in first-occurrence order, but only to candidates whose
    replacement actually shortens the rendered stream; the first occurrence
    keeps the name and binds the key, later ones carry the bare key.
    """
    if type(threshold) is bool or not isinstance(threshold, int):
        raise BadArgument(f"threshold {threshold!r} is not an int")
    if threshold < 2:
        raise BadArgument("substitution threshold must be at least 2")

    kinds, payloads = doc.kinds, doc.payloads
    counts: dict[str, int] = {}
    spots: list[int] = []  # where the names of at least threshold sit
    for i, (kind, name, key) in enumerate(zip(kinds, payloads, doc.keys)):
        if key is not None:
            if not name:
                # a bare digit run in name position is a name made of
                # digits, which the key syntax cannot coexist with
                raise NumericNameClash(
                    f"name {key} is indistinguishable from a key")
            raise AlreadyKeyed("stream already carries substitution keys")
        if kind in NAME_KINDS:
            if name.isdigit() and reads_as_key(name):
                raise NumericNameClash(
                    f"name {name!r} is indistinguishable from a key")
            if len(name) >= threshold:
                counts[name] = counts.get(name, 0) + 1
                spots.append(i)

    # a candidate is decided at its first occurrence, which binds its key;
    # later ones become bare keys, with their payloads emptied
    # what a binder writes besides its digits: '#', or NUL '#' in
    # sentinel mode
    binder = 2 if doc.escaping is EscapeMode.SENTINEL else 1
    table = SubstitutionTable()
    out_payloads, out_keys = payloads[:], doc.keys[:]
    bound: dict[str, int] = {}
    for i in spots:
        name = payloads[i]
        if counts.get(name, 0) < 2:
            continue
        key = bound.get(name)
        if key is not None:
            out_payloads[i] = ""
            out_keys[i] = key
            continue
        key = len(table.names)
        digits = len(str(key))
        written = len(escape_data(name, doc.escaping))
        saved = (counts[name] - 1) * (written - digits)
        if saved > binder + digits:
            bound[name] = key
            table.names.append(name)
            out_keys[i] = key
        else:
            # refused for good: a later occurrence's key would have at
            # least as many digits
            del counts[name]
    return table, XsDocument.from_columns(kinds[:], out_payloads,
                                          doc.depths[:], out_keys,
                                          doc.escaping)


def expand_substitution(doc: XsDocument,
                        table: Optional[SubstitutionTable] = None) -> XsDocument:
    """Resolve every key back to its name and drop the bindings.

    The stream's own binders are enough; a table may seed keys for streams
    whose binders were stripped.
    """
    # names the stream binds were checked as name payloads; the table's
    # come from the caller, so they get XsToken's check of a name
    bound: dict[int, str] = {}
    seeded = table.names if table else []
    payloads, keys = doc.payloads[:], doc.keys[:]
    for i, key in enumerate(doc.keys):
        if key is None:
            continue
        keys[i] = None
        name = payloads[i]
        if name:
            bound[key] = name
        elif key in bound:
            payloads[i] = bound[key]
        elif key < len(seeded):
            name = seeded[key]
            fault = name_fault(name, None)
            if fault is not None:
                raise BadArgument(fault)
            payloads[i] = name
        else:
            raise UnknownKey(f"key {key} was never bound")
    return XsDocument.from_columns(doc.kinds[:], payloads, doc.depths[:],
                                   keys, doc.escaping)
