"""Stream rewrites: canonical form and name substitution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .codec import EncodeMode, EncodeOptions, UnknownKey, decode, encode
from .errors import BadArgument, XStringError
from .grammar import (NAME_KINDS, EscapeMode, XsDocument, XsToken, escape_data,
                      reads_as_key)


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


def _rendered_len(name: str, escaping: EscapeMode) -> int:
    return len(escape_data(name, escaping))


def build_substitution(doc: XsDocument,
                       threshold: int = 8) -> tuple[SubstitutionTable, XsDocument]:
    """Replace repeated long names with small numeric keys.

    A name is a candidate when it is at least threshold characters long and
    appears at least twice in name position (element or attribute).  Keys
    are handed out in first-occurrence order, but only to candidates whose
    replacement actually shortens the rendered stream; the first occurrence
    keeps the name and binds the key, later ones carry the bare key.
    """
    if threshold < 2:
        raise BadArgument("substitution threshold must be at least 2")

    counts: dict[str, int] = {}
    for tok in doc.tokens:
        if tok.is_reference():
            # a bare digit run in name position is a name made of digits,
            # which the key syntax cannot coexist with
            raise NumericNameClash(
                f"name {tok.subst_key} is indistinguishable from a key")
        if tok.subst_key is not None:
            raise AlreadyKeyed("stream already carries substitution keys")
        if tok.kind in NAME_KINDS:
            if reads_as_key(tok.payload):
                raise NumericNameClash(
                    f"name {tok.payload!r} is indistinguishable from a key")
            if len(tok.payload) >= threshold:
                counts[tok.payload] = counts.get(tok.payload, 0) + 1

    # a candidate is decided at its first occurrence, which binds its key;
    # the input's tokens hold their invariants and a key is not negative,
    # so the keyed tokens are built unchecked
    table = SubstitutionTable()
    keys: dict[str, int] = {}
    out: list[XsToken] = []
    for tok in doc.tokens:
        name = tok.payload
        if tok.kind in NAME_KINDS and counts.get(name, 0) >= 2:
            if name in keys:
                out.append(XsToken.unchecked(tok.kind, "", tok.depth,
                                             keys[name]))
                continue
            key = len(table.names)
            digits = len(str(key))
            saved = (counts[name] - 1) * (_rendered_len(name, doc.escaping)
                                          - digits)
            if saved > 1 + digits:
                keys[name] = key
                table.names.append(name)
                out.append(XsToken.unchecked(tok.kind, name, tok.depth, key))
                continue
            # refused for good: a later occurrence's key would have at
            # least as many digits
            del counts[name]
        out.append(tok)
    return table, XsDocument(out, doc.escaping)


def expand_substitution(doc: XsDocument,
                        table: Optional[SubstitutionTable] = None) -> XsDocument:
    """Resolve every key back to its name and drop the bindings.

    The stream's own binders are enough; a table may seed keys for streams
    whose binders were stripped.
    """
    # names the stream binds were checked as name payloads; the table's
    # come from the caller, so their tokens get XsToken's checks
    bound: dict[int, str] = {}
    seeded = table.names if table else []
    out: list[XsToken] = []
    for tok in doc.tokens:
        key = tok.subst_key
        if key is None:
            out.append(tok)
        elif not tok.is_reference():
            bound[key] = tok.payload
            out.append(XsToken.unchecked(tok.kind, tok.payload, tok.depth))
        elif key in bound:
            out.append(XsToken.unchecked(tok.kind, bound[key], tok.depth))
        elif key < len(seeded):
            out.append(XsToken(tok.kind, seeded[key], depth=tok.depth))
        else:
            raise UnknownKey(f"key {key} was never bound")
    return XsDocument(out, doc.escaping)
