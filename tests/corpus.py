"""Shared fixtures and a seeded random document generator.

The fixture strings are frozen goldens; the generator produces documents
covering all six node kinds, attributes, and data containing prefix
characters that the escaping layer must protect.
"""

import random
import string

from xstring import XmlDocument, XmlNode, parse_xml

# Properties-file style document and its sibling-form encoding.
PROPERTIES_XML = ("<ENVIRONMENT><TERM>ANSI</TERM><CURRENCY>DOLLAR</CURRENCY>"
                  "<KEYBOARD>PC101</KEYBOARD><USER>jdoe</USER></ENVIRONMENT>")
PROPERTIES_XS = "/ENVIRONMENT/TERM'ANSI|CURRENCY'DOLLAR|KEYBOARD'PC101|USER'jdoe"

# Ambiguous-nesting pair: same token sequence, different depth markers.
DEPTH3_XML = "<XML><TAG><?PI?><!--comment-->text</TAG></XML>"
DEPTH3_XS = "/XML/TAG+3?PI-comment'text"
DEPTH1_XML = "<XML><TAG><?PI?></TAG><!--comment-->text</XML>"
DEPTH1_XS = "/XML/TAG+1?PI-comment'text"

# Depth marker forcing a sibling back to a child.
MIXED_KINDS_XML = ("<ROOT><CHILD/><!--comment--><![CDATA[0xFF]]>"
                   "<SIBLING/></ROOT>")
MIXED_KINDS_XS = "/ROOT/CHILD+0-comment[0xFF/SIBLING"

# Two-row table document, sibling and child-depth forms.
ROWS_XML = ("<EMP><ROW><FNAME>John</FNAME><LNAME>Doh</LNAME></ROW>"
            "<ROW><FNAME>Jane</FNAME><LNAME>Doh</LNAME></ROW></EMP>")
ROWS_XS = "/EMP/ROW/FNAME'John|LNAME'Doh|ROW/FNAME'Jane|LNAME'Doh"
ROWS_XS_CANONICAL = ("/EMP+10/ROW+4/FNAME+1'John/LNAME+1'Doh"
                     "/ROW+4/FNAME+1'Jane/LNAME+1'Doh")

# Same table with distinct surnames, plus the attribute-mapped variant.
ROWS_MIXED_XML = ("<EMP><ROW><FNAME>John</FNAME><LNAME>Doe</LNAME></ROW>"
                  "<ROW><FNAME>Jane</FNAME><LNAME>Doh</LNAME></ROW></EMP>")
ROWS_MIXED_XS = "/EMP/ROW/FNAME'John|LNAME'Doe|ROW/FNAME'Jane|LNAME'Doh"
RECORDS_XML = ('<EMP><REC FNAME="John" LNAME="Doe"/>'
               '<REC FNAME="Jane" LNAME="Doh"/></EMP>')
RECORDS_XS = "/EMP/REC@FNAME=John@LNAME=Doe|REC@FNAME=Jane@LNAME=Doh"

# Name-table substitution example.
SUBST_PLAIN_XML = ("<XML><AVERYLONGTAGNAME>child1</AVERYLONGTAGNAME>"
                   "<AVERYLONGTAGNAME>child2</AVERYLONGTAGNAME></XML>")
SUBST_PLAIN_XS = "/XML/AVERYLONGTAGNAME'child1|AVERYLONGTAGNAME'child2"
SUBST_KEYED_XS = "/XML/AVERYLONGTAGNAME#0'child1|0'child2"

# Small page with an embedding slot, plus two hosts for chained folding.
XHTML_PAGE_XML = """<HTML>
<HEAD>
<TITLE>Example XHTML</TITLE>
</HEAD>
<BODY>
<XSTRING LENGTH="0" TEXT="" />
<CENTER><H3>Example</H3></CENTER>
</BODY>
</HTML>"""

XHTML_HOST2_XML = """<HTML>
<HEAD>
<TITLE>Yet another example</TITLE>
</HEAD>
<BODY>
<XSTRING/>
<CENTER><H3>This is yet another example</H3></CENTER>
</BODY>
</HTML>"""

XHTML_HOST3_XML = """<HTML>
<HEAD>
<TITLE>Going too far perhaps?</TITLE>
</HEAD>
<BODY>
<XSTRING/>
<CENTER><H3>This is way too much!</H3></CENTER>
</BODY>
</HTML>"""

# Multi-mode variants carry a COUNT slot instead of LENGTH/TEXT.
XHTML_PAGE_COUNT_XML = XHTML_PAGE_XML.replace(
    '<XSTRING LENGTH="0" TEXT="" />', '<XSTRING COUNT="0"/>')

_NAME_START = string.ascii_letters + "_"
_NAME_REST = string.ascii_letters + string.digits + ".-_:"
# No "<", no "&" (entities are injected whole), no NUL.
_TEXT_POOL = (string.ascii_letters + string.digits +
              "  .,:;()*%$" + "/|'\"@=+-?#![]")
_ENTITIES = ["&#47;", "&#160;", "&amp;", "&nbsp;", "&#38;"]
_ATTR_POOL = string.ascii_letters + string.digits + " .'/|@=+-?#![]"
_COMMENT_POOL = string.ascii_letters + string.digits + " /|'@=+?#![]"
_PI_POOL = string.ascii_letters + string.digits + " /|'@=+-#![]"
_CDATA_POOL = string.ascii_letters + string.digits + " /|'@=+-?#!["
_DTD_POOL = string.ascii_letters + string.digits + " #(),*|"


def random_name(rng: random.Random) -> str:
    n = rng.randint(1, 20)
    return (rng.choice(_NAME_START) +
            "".join(rng.choice(_NAME_REST) for _ in range(n - 1)))


def random_text(rng: random.Random) -> str:
    n = rng.randint(1, 24)
    chars = [rng.choice(_TEXT_POOL) for _ in range(n)]
    if rng.random() < 0.25:
        chars.insert(rng.randrange(len(chars) + 1), rng.choice(_ENTITIES))
    text = "".join(chars)
    # Keep at least one visible character so the node survives reparsing.
    if not text.strip():
        text += rng.choice("xyz")
    return text


def _pool_text(rng: random.Random, pool: str, lo: int = 0, hi: int = 18) -> str:
    return "".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))


def random_attrs(rng: random.Random) -> list:
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


def random_node(rng: random.Random, depth: int) -> XmlNode:
    roll = rng.random()
    if roll < 0.45 and depth < 5:
        return random_element(rng, depth)
    if roll < 0.70:
        return XmlNode.text(random_text(rng))
    if roll < 0.80:
        return XmlNode.comment(_pool_text(rng, _COMMENT_POOL))
    if roll < 0.90:
        content = _pool_text(rng, _PI_POOL).lstrip()
        return XmlNode.pi(random_name(rng), content)
    if roll < 0.97:
        return XmlNode.cdata(_pool_text(rng, _CDATA_POOL))
    return XmlNode.dtd(random_name(rng) + " " + _pool_text(rng, _DTD_POOL, 1, 10))


def random_element(rng: random.Random, depth: int = 0) -> XmlNode:
    children = []
    last_was_text = False
    for _ in range(rng.randint(0, 4)):
        node = random_node(rng, depth + 1)
        # Adjacent text nodes would coalesce on reparse.
        if node.kind.name == "TEXT" and last_was_text:
            continue
        last_was_text = node.kind.name == "TEXT"
        children.append(node)
    if rng.random() < 0.1 and not (children and children[-1].kind.name == "TEXT"):
        children.append(XmlNode.text("\n  "))
    return XmlNode.element(random_name(rng), random_attrs(rng), children)


def random_document(rng: random.Random) -> XmlDocument:
    prolog = None
    if rng.random() < 0.2:
        prolog = XmlNode.pi("xml", 'version="1.0"')
    return XmlDocument(root=random_element(rng), prolog=prolog)


def make_corpus(count: int = 500, seed: int = 1031) -> list:
    rng = random.Random(seed)
    return [random_document(rng) for _ in range(count)]


def fixture_documents() -> list:
    """Every *_XML fixture, parsed.  Unlike the random corpus, which never
    repeats a name long enough to key, these give substitution work."""
    return [parse_xml(xml) for name, xml in sorted(globals().items())
            if name.endswith("_XML")]


_cached = None


def corpus() -> list:
    global _cached
    if _cached is None:
        _cached = make_corpus()
    return _cached
