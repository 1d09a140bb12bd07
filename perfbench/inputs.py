"""Seeded benchmark inputs, produced as XML text.

The generators build small tuple trees and serialize them here, so an input
depends only on the workload, its size and the seed; the program under test
sees nothing but the text.  A node is one of

    ("element", name, attributes, children)   attributes: [(name, value|None)]
    ("text", content)      ("comment", content)    ("pi", name, content)
    ("cdata", content)     ("dtd", content)

and the serializer writes them the way ``xstring.serialize_xml`` does, so the
byte count of an input is the byte count of its serialized source XML.

``random_document`` and its helpers are a frozen copy of the generator in
``tests/corpus.py``: given the same ``random.Random`` they draw the same
numbers and serialize to the same text as that module's documents do today,
but a later edit to the test fixtures cannot change the ``corpus`` workload.
"""

import random
import string

ENTITY = "entity"
SENTINEL = "sentinel"

# Size n of each workload for the end-to-end run.  With 500 corpus
# documents the sibling encoder's work per byte varied by 12 % between
# seeds, with 1000 by 2 %.  A 400 KB wide table proved far more sensitive
# to host noise than this 100 KB one.  The traced run measures every layer
# at n and 2n; for deep it uses a smaller n so that 2n stays below the
# depth (about 330) at which the recursive tree walkers of the seed commit
# raise RecursionError.
SIZES = {"corpus": 1000, "wide": 450, "mixed": 50, "deep": 250}
TRACE_SIZES = {"corpus": 500, "wide": 225, "mixed": 25, "deep": 150}


# ---------------------------------------------------------------------------
# serializer

def _attrs(attrs):
    parts = []
    for name, value in attrs:
        if value is None:
            parts.append(f" {name}")
        elif '"' in value and "'" not in value:
            parts.append(f" {name}='{value}'")
        else:
            v = value.replace('"', "&#34;")
            parts.append(f' {name}="{v}"')
    return "".join(parts)


def _write(node, out):
    kind = node[0]
    if kind == "element":
        _, name, attrs, children = node
        out.append(f"<{name}{_attrs(attrs)}")
        if children:
            out.append(">")
            for child in children:
                _write(child, out)
            out.append(f"</{name}>")
        else:
            out.append("/>")
    elif kind == "text":
        out.append(node[1])
    elif kind == "comment":
        out.append(f"<!--{node[1]}-->")
    elif kind == "pi":
        _, name, content = node
        out.append(f"<?{name} {content}?>" if content else f"<?{name}?>")
    elif kind == "cdata":
        out.append(f"<![CDATA[{node[1]}]]>")
    else:
        out.append(f"<!{node[1]}>")


def serialize(root, prolog=None):
    out = []
    if prolog is not None:
        _write(prolog, out)
    _write(root, out)
    return "".join(out)


def _element(name, children=(), attrs=()):
    return ("element", name, list(attrs), list(children))


# ---------------------------------------------------------------------------
# corpus: frozen copy of the tests/corpus.py generator

_NAME_START = string.ascii_letters + "_"
_NAME_REST = string.ascii_letters + string.digits + ".-_:"
_TEXT_POOL = (string.ascii_letters + string.digits +
              "  .,:;()*%$" + "/|'\"@=+-?#![]")
_ENTITIES = ["&#47;", "&#160;", "&amp;", "&nbsp;", "&#38;"]
_ATTR_POOL = string.ascii_letters + string.digits + " .'/|@=+-?#![]"
_COMMENT_POOL = string.ascii_letters + string.digits + " /|'@=+?#![]"
_PI_POOL = string.ascii_letters + string.digits + " /|'@=+-#![]"
_CDATA_POOL = string.ascii_letters + string.digits + " /|'@=+-?#!["
_DTD_POOL = string.ascii_letters + string.digits + " #(),*|"


def random_name(rng):
    n = rng.randint(1, 20)
    return (rng.choice(_NAME_START) +
            "".join(rng.choice(_NAME_REST) for _ in range(n - 1)))


def random_text(rng):
    n = rng.randint(1, 24)
    chars = [rng.choice(_TEXT_POOL) for _ in range(n)]
    if rng.random() < 0.25:
        chars.insert(rng.randrange(len(chars) + 1), rng.choice(_ENTITIES))
    text = "".join(chars)
    if not text.strip():
        text += rng.choice("xyz")
    return text


def _pool_text(rng, pool, lo=0, hi=18):
    return "".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))


def random_attrs(rng):
    attrs = []
    names = set()
    for _ in range(rng.randint(0, 3)):
        name = random_name(rng)
        if name in names:
            continue
        names.add(name)
        if rng.random() < 0.2:
            attrs.append((name, None))
        else:
            attrs.append((name, _pool_text(rng, _ATTR_POOL, 0, 12)))
    return attrs


def random_node(rng, depth):
    roll = rng.random()
    if roll < 0.45 and depth < 5:
        return random_element(rng, depth)
    if roll < 0.70:
        return ("text", random_text(rng))
    if roll < 0.80:
        return ("comment", _pool_text(rng, _COMMENT_POOL))
    if roll < 0.90:
        content = _pool_text(rng, _PI_POOL).lstrip()
        return ("pi", random_name(rng), content)
    if roll < 0.97:
        return ("cdata", _pool_text(rng, _CDATA_POOL))
    return ("dtd", random_name(rng) + " " + _pool_text(rng, _DTD_POOL, 1, 10))


def random_element(rng, depth=0):
    children = []
    last_was_text = False
    for _ in range(rng.randint(0, 4)):
        node = random_node(rng, depth + 1)
        # Adjacent text nodes would coalesce on reparse.
        if node[0] == "text" and last_was_text:
            continue
        last_was_text = node[0] == "text"
        children.append(node)
    if rng.random() < 0.1 and not (children and children[-1][0] == "text"):
        children.append(("text", "\n  "))
    return ("element", random_name(rng), random_attrs(rng), children)


def random_document(rng):
    prolog = None
    if rng.random() < 0.2:
        prolog = ("pi", "xml", 'version="1.0"')
    return random_element(rng), prolog


def corpus(rng, n):
    """n small random documents; the escape mode alternates between them."""
    docs = []
    for i in range(n):
        root, prolog = random_document(rng)
        docs.append((serialize(root, prolog), ENTITY if i % 2 == 0 else SENTINEL))
    return docs


# ---------------------------------------------------------------------------
# wide: one flat record table

_SYLLABLES = ["ka", "lo", "mi", "ren", "sa", "tor", "vel", "du", "an", "bri"]
_CATEGORIES = ["hardware/tools", "garden|outdoor", "books@home",
               "kitchen+dining", "toys!games", "office#paper"]
_NOTE_WORDS = ["ship", "asap", "it's", "fragile", "a/b", "x|y", "50%",
               "[bulk]", "re:order", "c=3", "-", "why?", "#12", "\"quoted\""]


def _word(rng):
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))


def wide(rng, rows):
    """A record table: rows records of five fields with long repeated names."""
    records = []
    for i in range(rows):
        note = " ".join(rng.choice(_NOTE_WORDS) for _ in range(rng.randint(1, 4)))
        records.append(_element("CUSTOMER_RECORD", [
            _element("CUSTOMER_NAME", [("text", f"{_word(rng).title()} {_word(rng).title()}")]),
            _element("LOCATION", [("text", f"{_word(rng).title()}/{_word(rng).upper()}")]),
            _element("CATEGORY", [("text", rng.choice(_CATEGORIES))]),
            _element("QUANTITY", [("text", str(rng.randint(1, 9999)))]),
            _element("DELIVERY_NOTE", [("text", note)]),
        ], [("ID", str(i))]))
    return [(serialize(_element("CUSTOMER_TABLE", records)), ENTITY)]


# ---------------------------------------------------------------------------
# mixed: XHTML-like prose

def _sentence(rng):
    words = [_word(rng) for _ in range(rng.randint(3, 8))]
    return " ".join(words) + rng.choice([". ", ", ", "; ", "? "])


def _paragraph(rng):
    return _element("p", [
        ("text", _sentence(rng)),
        _element(rng.choice("bi"), [("text", _word(rng))]),
        ("text", " " + _sentence(rng)),
    ])


def mixed(rng, blocks):
    """Prose blocks: nested same-name divs, inline markup followed by text,
    and comments after elements, each of which the sibling form can only
    express with depth markers."""
    body = []
    for k in range(blocks):
        body.append(_element("div", [
            _element("div", [_paragraph(rng), ("comment", f" note {k} ")]),
            ("text", _sentence(rng)),
            ("comment", f" end of block {k} "),
        ], [("class", "section")]))
    head = _element("head", [_element("title", [("text", _sentence(rng))])])
    return [(serialize(_element("html", [head, _element("body", body)])), ENTITY)]


# ---------------------------------------------------------------------------
# deep: one long spine

def deep(rng, depth):
    """A chain of depth distinct element names with a few leaves per level.

    The leaves come before the next spine element, so the sibling form
    needs no depth markers and the cost of deep nesting shows on its own.
    """
    node = _element(f"level{depth}", [("text", _sentence(rng))])
    for level in range(depth - 1, -1, -1):
        leaves = [_element("item", [("text", _word(rng) + rng.choice("/|'@=+ "))])
                  for _ in range(rng.randint(2, 5))]
        node = _element(f"level{level}", leaves + [node])
    return [(serialize(node), ENTITY)]


GENERATORS = {"corpus": corpus, "wide": wide, "mixed": mixed, "deep": deep}


def generate(workload, seed, size):
    """The workload's documents as (xml_text, escape_mode) pairs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), size)
