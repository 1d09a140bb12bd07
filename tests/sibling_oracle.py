"""The encoder pieces the codec's one-walk encoder replaced, kept as
references.

The codec's one-pass encoder replaced the decode-and-repair loop; the
differential tests in test_sibling_encoder.py compare the two.  The loop
starts from the plain child/sibling emission, decodes its own output and
repairs the leftmost divergence until the round trip is exact, up to 2n+4
rounds.  _check_encodable is the check the encoder ran over the whole tree
before emitting; the encoder now checks each node as it emits it.
drop_insignificant_whitespace is the tree copy the encoders took first;
they now skip whitespace-only text as they walk.
"""

from xstring.codec import (BudgetConflict, DecodeState, Unencodable,
                           descendant_count)
from xstring.grammar import (NUL, PREFIX_CHARS, WHITESPACE, EscapeMode,
                             PrefixKind, XsDocument, XsToken, reads_as_key)
from xstring.xml_model import (NodeKind, XmlDocument, XmlNode,
                               structural_equal)

from walk_oracle import walk


def _pi_payload(node: XmlNode) -> str:
    return f"{node.name} {node.content}" if node.content else node.name


def _data_token(node: XmlNode, escaping: EscapeMode) -> XsToken:
    if node.kind is NodeKind.TEXT:
        last = node.content[-1:]
        if (escaping is EscapeMode.ENTITY and last
                and last in PREFIX_CHARS and last != '"'):
            return XsToken(PrefixKind.TEXT_DUAL, node.content)
        return XsToken(PrefixKind.TEXT, node.content)
    if node.kind is NodeKind.COMMENT:
        return XsToken(PrefixKind.COMMENT, node.content)
    if node.kind is NodeKind.CDATA:
        return XsToken(PrefixKind.CDATA, node.content)
    if node.kind is NodeKind.DTD:
        return XsToken(PrefixKind.DTD, node.content)
    return XsToken(PrefixKind.PROC_INSTR, _pi_payload(node))


def drop_insignificant_whitespace(doc: XmlDocument) -> XmlDocument:
    """Copy of doc with whitespace-only text nodes removed."""
    stack = [XmlNode(NodeKind.ELEMENT)]  # its one child is the copy of root
    for node, entering in walk(doc.root):
        if node.is_whitespace_text():
            continue  # a leaf, so skipping both its events skips it
        if entering:
            dup = XmlNode(node.kind, node.name, list(node.attributes),
                          node.content)
            stack[-1].children.append(dup)
            stack.append(dup)
        else:
            stack.pop()
    return XmlDocument(stack[0].children[0],
                       doc.prolog.copy() if doc.prolog else None)


def _check_encodable(doc: XmlDocument) -> None:
    def check_name(name: str, what: str) -> None:
        if not name or WHITESPACE.search(name) or NUL in name:
            raise Unencodable(f"{what} name {name!r} cannot be written")
        if reads_as_key(name):
            raise Unencodable(
                f"{what} name {name!r} would read back as a key reference")

    tops = [doc.root] if doc.prolog is None else [doc.prolog, doc.root]
    for node in (n for top in tops for n, entering in walk(top) if entering):
        if NUL in node.content:
            raise Unencodable("NUL in character data cannot be written")
        if node.kind in (NodeKind.ELEMENT, NodeKind.PROC_INSTR):
            check_name(node.name, node.kind.value)
        for name, value in node.attributes:
            check_name(name, "attribute")
            if value is not None and NUL in value:
                raise Unencodable("NUL in character data cannot be written")


def _avoid_quoted_value(tokens: list[XsToken]) -> None:
    # A dual right after a bare = would read back as a quoted attribute
    # value; plain text escapes the trailing prefix character instead.
    for i in range(1, len(tokens)):
        prev = tokens[i - 1]
        if (tokens[i].kind is PrefixKind.TEXT_DUAL
                and prev.kind is PrefixKind.ATTR_VALUE and not prev.payload):
            tokens[i] = XsToken(PrefixKind.TEXT, tokens[i].payload)


def oracle_encode(doc: XmlDocument,
                  escaping: EscapeMode = EscapeMode.ENTITY) -> XsDocument:
    """encode(doc) in sibling mode as the repair loop wrote it."""
    tokens = _encode_safe_sibling(drop_insignificant_whitespace(doc), escaping)
    _avoid_quoted_value(tokens)
    return XsDocument(tokens, escaping)


def _emit_sibling(doc: XmlDocument, escaping: EscapeMode) -> tuple[list[XsToken], list[int]]:
    """Plain child/sibling emission plus the token index of each tree node
    in stream order (the repair loop needs the mapping)."""
    tokens: list[XsToken] = []
    token_of: list[int] = []
    if doc.prolog is not None:
        tokens.append(XsToken(PrefixKind.PROC_INSTR, _pi_payload(doc.prolog)))

    def walk(elem: XmlNode, as_sibling: bool) -> None:
        kind = PrefixKind.SIBLING if as_sibling else PrefixKind.CHILD
        token_of.append(len(tokens))
        tokens.append(XsToken(kind, elem.name))
        for name, value in elem.attributes:
            tokens.append(XsToken(PrefixKind.ATTR_NAME, name))
            if value is not None:
                tokens.append(XsToken(PrefixKind.ATTR_VALUE, value))
        seen_element = False
        for child in elem.children:
            if child.kind is NodeKind.ELEMENT:
                walk(child, as_sibling=seen_element)
                seen_element = True
            else:
                token_of.append(len(tokens))
                tokens.append(_data_token(child, escaping))

    walk(doc.root, False)
    return tokens, token_of


def _stream_parents(doc: XmlDocument) -> tuple[list[XmlNode], list[int]]:
    """Nodes of the root's tree in stream order plus each node's parent index."""
    nodes: list[XmlNode] = []
    parents: list[int] = []

    def walk(node: XmlNode, parent: int) -> None:
        me = len(nodes)
        nodes.append(node)
        parents.append(parent)
        for child in node.children:
            walk(child, me)

    walk(doc.root, -1)
    return nodes, parents


def _as_child(tok: XsToken) -> XsToken:
    return XsToken(PrefixKind.CHILD, tok.payload, depth=tok.depth,
                   subst_key=tok.subst_key)


def _encode_safe_sibling(doc: XmlDocument, escaping: EscapeMode) -> list[XsToken]:
    tokens, token_of = _emit_sibling(doc, escaping)
    true_nodes, true_parents = _stream_parents(doc)

    for _ in range(2 * len(tokens) + 4):
        state = DecodeState()
        conflict_at = None
        for idx, tok in enumerate(tokens):
            try:
                state.feed(tok.kind, tok.payload, tok.depth, tok.subst_key)
            except BudgetConflict:
                conflict_at = idx
                break
        if conflict_at is not None:
            # the sibling closure itself is invalid; demote it to a child
            if tokens[conflict_at].kind is not PrefixKind.SIBLING:
                raise Unencodable("encoder repair loop failed to converge")
            tokens[conflict_at] = _as_child(tokens[conflict_at])
            continue

        decoded = state.finish()
        _, got_parents = _stream_parents(decoded)
        bad = next((k for k in range(len(true_parents))
                    if got_parents[k] != true_parents[k]), None)
        if bad is None:
            if not structural_equal(decoded, doc, whitespace_significant=True):
                raise Unencodable("encoder repair loop failed to converge")
            return tokens

        p = true_parents[bad]
        # is the wrong parent inside the right one?  then some ancestor was
        # left open too long and needs its close point spelled out
        anc = got_parents[bad]
        while anc != -1 and anc != p:
            anc = true_parents[anc]
        if anc == p and got_parents[bad] != p:
            e = got_parents[bad]
            while true_parents[e] != p:
                e = true_parents[e]
            tok = tokens[token_of[e]]
            if tok.depth is not None:
                raise Unencodable("encoder repair loop failed to converge")
            tok.depth = descendant_count(true_nodes[e])
        else:
            # the sibling closed too much; demote it to a child
            if tokens[token_of[bad]].kind is not PrefixKind.SIBLING:
                raise Unencodable("encoder repair loop failed to converge")
            tokens[token_of[bad]] = _as_child(tokens[token_of[bad]])
    raise Unencodable("encoder repair loop failed to converge")


