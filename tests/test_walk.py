"""xml_model.walk and the readers rewritten on it, against versions built
on the enter/leave walker it replaced (walk_oracle.py): the walk's
(node, parent, depth) triples, serialize_xml, XmlNode.copy and
structural_equal, on the corpus and on hypothesis trees that hold data
nodes with children and whitespace-only text with children.

structural_equal differs in one case.  With whitespace insignificant, the
old comparison skipped every whitespace-only text node, also one with
children, whose children it then compared one level up; now such a node
is compared like any other."""

import random
from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from xstring import NodeKind, XmlDocument, XmlNode, serialize_xml
from xstring.xml_model import (serialize_attribute, structural_equal,
                               walk)

import corpus as fixtures
from test_emitters import _DATA, _NODES
from walk_oracle import walk as oracle_walk


def triples(pairs):
    return [(id(node), id(parent), depth) for node, parent, depth in pairs]


def oracle_triples(root, drop=False):
    """walk's triples from the enter/leave events."""
    out, parents = [], []
    for node, entering in oracle_walk(root):
        if not entering:
            parents.pop()
            continue
        if not (drop and not node.children and node.is_whitespace_text()):
            out.append((node, parents[-1] if parents else None,
                        len(parents)))
        parents.append(node)
    return triples(out)


def shape(root):
    return [(entering, n.kind, n.name, n.content, n.attributes)
            for n, entering in oracle_walk(root)]


def oracle_copy(root):
    stack = [XmlNode(NodeKind.ELEMENT)]
    for node, entering in oracle_walk(root):
        if entering:
            dup = XmlNode(node.kind, node.name, list(node.attributes),
                          node.content)
            stack[-1].children.append(dup)
            stack.append(dup)
        else:
            stack.pop()
    return stack[0].children[0]


def oracle_serialize(doc):
    out = []
    for top in (doc.prolog, doc.root):
        for node, entering in oracle_walk(top) if top is not None else ():
            if not entering:
                if node.kind is NodeKind.ELEMENT and node.children:
                    out.append(f"</{node.name}>")
            elif node.kind is NodeKind.ELEMENT:
                end = ">" if node.children else "/>"
                attrs = "".join(map(serialize_attribute, node.attributes))
                out.append(f"<{node.name}{attrs}{end}")
            elif node.kind is NodeKind.PROC_INSTR:
                body = (f"{node.name} {node.content}" if node.content
                        else node.name)
                out.append(f"<?{body}?>")
            else:
                out.append({NodeKind.TEXT: "{}", NodeKind.COMMENT: "<!--{}-->",
                            NodeKind.CDATA: "<![CDATA[{}]]>",
                            NodeKind.DTD: "<!{}>"}[node.kind]
                           .format(node.content))
    return "".join(out)


def oracle_nodes_equal(a, b, ws):
    ea, eb = (((n, e) for n, e in oracle_walk(top)
               if ws or not n.is_whitespace_text()) for top in (a, b))
    for (x, x_in), (y, y_in) in zip_longest(ea, eb, fillvalue=(None, None)):
        if x_in is not y_in:
            return False
        if x_in and (x.kind is not y.kind or x.name != y.name
                     or x.content != y.content
                     or x.attributes != y.attributes):
            return False
    return True


def oracle_equal(a, b, ws):
    if (a.prolog is None) != (b.prolog is None):
        return False
    if a.prolog is not None and not oracle_nodes_equal(a.prolog, b.prolog,
                                                       ws):
        return False
    return oracle_nodes_equal(a.root, b.root, ws)


def oracle_doc_copy(doc):
    return XmlDocument(oracle_copy(doc.root),
                       doc.prolog and oracle_copy(doc.prolog))


def whitespace_parents_marked(doc):
    """A copy of doc whose whitespace-only text nodes with children each
    end in "x", so the old comparison compares them as the new one does."""
    doc = oracle_doc_copy(doc)
    for top in filter(None, (doc.prolog, doc.root)):
        for node, entering in oracle_walk(top):
            if entering and node.children and node.is_whitespace_text():
                node.content += "x"
    return doc


def hoisted(doc):
    """A copy of doc with each whitespace-only text node that has children
    below the root replaced by its children, as the old comparison saw it."""
    doc = oracle_doc_copy(doc)
    for node, entering in oracle_walk(doc.root):
        if entering:  # the walk reads the children after this event
            kids, todo = [], node.children[::-1]
            while todo:
                child = todo.pop()
                if child.children and child.is_whitespace_text():
                    todo.extend(child.children[::-1])
                else:
                    kids.append(child)
            node.children = kids
    return doc


def variants(doc, rng):
    """Documents near doc: a copy, one equal but for whitespace, and
    four edits that may or may not change it."""
    out = [oracle_doc_copy(doc), hoisted(doc)]
    for edit in ("insert", "drop", "content", "lift"):
        v = oracle_doc_copy(doc)
        node = rng.choice([n for n, entering in oracle_walk(v.root)
                           if entering])
        if edit == "lift":
            # a last grandchild becomes the next child: the same nodes in
            # the same order, nested differently
            at = [i for i, c in enumerate(node.children) if c.children]
            if at:
                i = rng.choice(at)
                node.children.insert(i + 1, node.children[i].children.pop())
        elif edit == "insert":
            node.children.insert(rng.randint(0, len(node.children)),
                                 XmlNode.text(rng.choice([" ", "\n", ""])))
        elif edit == "drop":
            node.children = [c for c in node.children
                             if not c.is_whitespace_text()]
        else:
            node.content += rng.choice([" ", "y"])
        out.append(v)
    return out


def assert_readers_match(doc, rng):
    for top in filter(None, (doc.prolog, doc.root)):
        for drop in (False, True):
            assert triples(walk(top, drop)) == oracle_triples(top, drop)
        dup = top.copy()
        assert shape(dup) == shape(oracle_copy(top)) == shape(top)
        assert all(x is not y and x.attributes is not y.attributes
                   for (x, _), (y, _) in zip(oracle_walk(dup),
                                             oracle_walk(top)))
    assert serialize_xml(doc) == oracle_serialize(doc)
    marked = whitespace_parents_marked(doc)
    for other in variants(doc, rng):
        want = oracle_equal(doc, other, True)
        assert structural_equal(doc, other, True) == want
        assert structural_equal(other, doc, True) == want
        want = oracle_equal(marked, whitespace_parents_marked(other), False)
        assert structural_equal(doc, other) == want
        assert structural_equal(other, doc) == want


def test_corpus_readers_match_oracle():
    rng = random.Random(17)
    for doc in fixtures.corpus():
        assert_readers_match(doc, rng)


@settings(max_examples=300)
@given(_NODES, st.one_of(st.none(), _DATA), st.randoms(use_true_random=False))
def test_generated_trees_readers_match_oracle(root, prolog, rng):
    assert_readers_match(XmlDocument(root, prolog), rng)


def test_whitespace_parent_is_compared():
    # the old comparison lifted A out of the text node and called the two
    # equal
    a = XmlDocument(XmlNode.element("r", children=[
        XmlNode(NodeKind.TEXT, content=" ",
                children=[XmlNode.element("A")])]))
    b = XmlDocument(XmlNode.element("r", children=[XmlNode.element("A")]))
    assert not structural_equal(a, b)
    assert not structural_equal(b, a)
    assert structural_equal(a, a.copy())


def test_walk_yields_parent_and_depth():
    c = XmlNode.element("c")
    ws = XmlNode.text(" ")
    ws_parent = XmlNode(NodeKind.TEXT, content="", children=[c])
    t = XmlNode.comment("t")
    r = XmlNode.element("r", children=[ws, ws_parent, t])
    assert triples(walk(r)) == triples([
        (r, None, 0), (ws, r, 1), (ws_parent, r, 1), (c, ws_parent, 2),
        (t, r, 1)])
    assert triples(walk(r, drop=True)) == triples([
        (r, None, 0), (ws_parent, r, 1), (c, ws_parent, 2), (t, r, 1)])
    assert list(walk(ws, drop=True)) == []
