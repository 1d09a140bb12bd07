"""Every layer at 20 000 levels of nesting, under the default recursion limit.

Levels alternate between <y k="v"><y/>NEXT</y> and <y k="v">NEXT t</y>.
In sibling form the empty y makes NEXT a sibling token and the trailing
text forces a depth marker on NEXT, so sibling closures and close counts
both work at full depth.
"""

import ast
import sys
from pathlib import Path

import pytest

import xstring

from xstring import (
    EncodeMode,
    EncodeOptions,
    EscapeMode,
    PrefixKind,
    decode,
    encode,
    fold,
    measure,
    parse_xml,
    render,
    serialize_xml,
    structural_equal,
    to_child_depth,
    tokenize,
    unfold,
)

DEPTH = 20_000


def chain_xml(attr_open: str, empty_open: str) -> str:
    pairs = DEPTH // 2
    return ((attr_open + "<y/>" + attr_open) * pairs + empty_open
            + "t</y></y>" * pairs)


DEEP_XML = chain_xml('<y k="v">', '<y k="v"/>')
# the same chain with every attribute lifted into a leading child element
PROMOTED_XML = chain_xml("<y><k>v</k>", "<y><k>v</k></y>")


@pytest.fixture(scope="module")
def deep():
    # a walker that recursed per level would fail on this chain
    assert sys.getrecursionlimit() < DEPTH
    return parse_xml(DEEP_XML)


def _calls_itself(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def test_no_function_calls_itself():
    recursive = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and _calls_itself(fn):
                recursive.append(f"{path.name}:{fn.name}")
    assert recursive == []


@pytest.mark.parametrize("mode", [EncodeMode.SAFE_SIBLING,
                                  EncodeMode.CANONICAL])
@pytest.mark.parametrize("escaping", [EscapeMode.ENTITY, EscapeMode.SENTINEL])
def test_round_trip(deep, mode, escaping):
    xs = encode(deep, EncodeOptions(mode=mode, escaping=escaping))
    kinds = {tok.kind for tok in xs.tokens}
    assert (PrefixKind.SIBLING in kinds) == (mode == EncodeMode.SAFE_SIBLING)
    assert sum(tok.depth is not None for tok in xs.tokens) >= DEPTH // 2
    back = decode(tokenize(render(xs), escaping))
    assert structural_equal(back, deep, whitespace_significant=True)


@pytest.fixture(scope="module")
def deep_xs(deep):
    return encode(deep)


def test_structural_equal(deep):
    twin = parse_xml(DEEP_XML)
    assert structural_equal(twin, deep)
    assert structural_equal(twin, deep, whitespace_significant=True)
    assert not structural_equal(parse_xml(PROMOTED_XML), deep)


def test_copy(deep):
    dup = deep.copy()
    assert dup.root is not deep.root
    assert structural_equal(dup, deep, whitespace_significant=True)


def test_serialize_xml(deep):
    assert serialize_xml(deep) == DEEP_XML


def test_measure(deep_xs):
    report = measure(DEEP_XML, deep_xs)
    assert report.xml_chars == len(DEEP_XML)
    assert report.xs_chars == len(render(deep_xs))


def test_to_child_depth(deep, deep_xs):
    canon = to_child_depth(deep_xs)
    assert not any(t.kind is PrefixKind.SIBLING for t in canon.tokens)
    assert all(t.depth is not None for t in canon.tokens
               if t.kind is PrefixKind.CHILD)
    assert structural_equal(decode(canon), deep)


def test_fold_deep_inner(deep):
    host = parse_xml("<PAGE><XSTRING/></PAGE>")
    folded = fold(deep, host)
    assert structural_equal(unfold(folded), deep)
