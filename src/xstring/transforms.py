"""Stream rewrites: canonical form, name substitution, attribute promotion."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .codec import EncodeMode, EncodeOptions, UnknownKey, decode, encode
from .errors import XStringError
from .grammar import (_NAME_KINDS, EscapeMode, PrefixKind, XsDocument, XsToken,
                      escape_data, reads_as_key)
from .xml_model import XmlNode, walk


class NumericNameClash(XStringError):
    pass


@dataclass
class SubstitutionTable:
    """Names keyed by position; key k stands for names[k]."""
    names: list[str] = field(default_factory=list)

    def key_of(self, name: str) -> int:
        return self.names.index(name)


def is_canonical(doc: XsDocument) -> bool:
    """True when every element token is a child with an explicit depth."""
    for tok in doc.tokens:
        if tok.kind is PrefixKind.SIBLING:
            return False
        if tok.kind is PrefixKind.CHILD and tok.depth is None:
            return False
    return True


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
        raise ValueError("substitution threshold must be at least 2")

    counts: dict[str, int] = {}
    for tok in doc.tokens:
        if tok.is_reference():
            # a bare digit run in name position is a name made of digits,
            # which the key syntax cannot coexist with
            raise NumericNameClash(
                f"name {tok.subst_key} is indistinguishable from a key")
        if tok.subst_key is not None:
            raise ValueError("stream already carries substitution keys")
        if tok.kind in _NAME_KINDS:
            if reads_as_key(tok.payload):
                raise NumericNameClash(
                    f"name {tok.payload!r} is indistinguishable from a key")
            if len(tok.payload) >= threshold:
                counts[tok.payload] = counts.get(tok.payload, 0) + 1

    table = SubstitutionTable()
    keys: dict[str, int] = {}
    for tok in doc.tokens:
        if tok.kind not in _NAME_KINDS:
            continue
        name = tok.payload
        if name in keys or counts.get(name, 0) < 2:
            continue
        key = len(table.names)
        digits = len(str(key))
        saved = (counts[name] - 1) * (_rendered_len(name, doc.escaping) - digits)
        if saved > 1 + digits:
            keys[name] = key
            table.names.append(name)

    out: list[XsToken] = []
    bound: set[str] = set()
    for tok in doc.tokens:
        if tok.kind in _NAME_KINDS and tok.payload in keys:
            key = keys[tok.payload]
            if tok.payload in bound:
                out.append(XsToken(tok.kind, "", depth=tok.depth, subst_key=key))
            else:
                bound.add(tok.payload)
                out.append(replace(tok, subst_key=key))
        else:
            out.append(tok)
    return table, XsDocument(out, doc.escaping)


def expand_substitution(doc: XsDocument,
                        table: Optional[SubstitutionTable] = None) -> XsDocument:
    """Resolve every key back to its name and drop the bindings.

    The stream's own binders are enough; a table may seed keys for streams
    whose binders were stripped.
    """
    names: dict[int, str] = dict(enumerate(table.names)) if table else {}
    out: list[XsToken] = []
    for tok in doc.tokens:
        if tok.subst_key is None:
            out.append(tok)
        elif tok.is_reference():
            name = names.get(tok.subst_key)
            if name is None:
                raise UnknownKey(f"key {tok.subst_key} was never bound")
            out.append(XsToken(tok.kind, name, depth=tok.depth))
        else:
            names[tok.subst_key] = tok.payload
            out.append(replace(tok, subst_key=None))
    return XsDocument(out, doc.escaping)


def attrs_to_elements(doc: XsDocument) -> XsDocument:
    """Turn every attribute into a leading child element of its owner.

    A valueless attribute becomes an empty element; a valued one gets the
    value as a text child.  The rewritten stream keeps the input's escape
    mode and stays canonical when the input was.
    """
    tree = decode(doc)

    for node, entering in walk(tree.root):
        if entering or not node.attributes:
            continue
        lifted = []
        for name, value in node.attributes:
            elem = XmlNode.element(name)
            if value is not None:
                elem.children.append(XmlNode.text(value))
            lifted.append(elem)
        node.attributes = []
        node.children = lifted + node.children
    mode = EncodeMode.CANONICAL if is_canonical(doc) else EncodeMode.SAFE_SIBLING
    opts = EncodeOptions(mode=mode, escaping=doc.escaping,
                         drop_insignificant_whitespace=False)
    return encode(tree, opts)
