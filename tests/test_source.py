"""Checks on the source of the xstring package itself, and on the errors
it raises for a caller's arguments."""

import ast
import graphlib
import types
from pathlib import Path

import pytest

import xstring
from xstring import (ConstructKind, EncodeOptions, FoldMode, PrefixKind,
                     XsDocument, XStringError, XsToken, asymptote_check,
                     build_substitution, fold, parse_xml, predict_size,
                     render, tokenize, unpack)


def test_no_private_names_across_modules():
    # a module's underscore names are its own; siblings use public ones
    crossing = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("xstring"):
                continue
            crossing += [f"{path.name}: {node.module}.{alias.name}"
                         for alias in node.names if alias.name.startswith("_")]
    assert crossing == []


def test_all_lists_each_public_name_once():
    # a name dropped from only one of the import and __all__ fails here,
    # not first at `from xstring import *`
    public = {name for name, value in vars(xstring).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(xstring.__all__) == len(set(xstring.__all__))
    assert set(xstring.__all__) == public


def test_no_whitespace_calls_without_characters():
    # with no argument these treat all of Unicode's spaces as whitespace;
    # XML's whitespace is space, tab, CR and LF only, so name the characters
    calls = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("strip", "lstrip", "rstrip",
                                           "split", "isspace")
                    and not node.args and not node.keywords):
                calls.append(f"{path.name}:{node.lineno} .{node.func.attr}()")
    assert calls == []


def test_no_reads_of_enum_private_value():
    # PrefixKind and NodeKind are StrEnums: a member is a str that hashes
    # as one, so no table needs a key read from Enum's private _value_
    reads = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_value_":
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def _imported_modules(path):
    """The xstring modules path imports, at any level of its code."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                imported.add(node.module.partition(".")[0])
            elif node.level == 1:
                imported.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("xstring."):
                imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("xstring."))
    return imported


def test_module_imports_form_no_cycle():
    # imports inside functions count: they hide a cycle, not break it;
    # prepare raises CycleError, naming the cycle, when there is one
    package = Path(xstring.__file__).parent
    graph = {path.stem: _imported_modules(path)
             for path in sorted(package.glob("*.py"))}
    graphlib.TopologicalSorter(graph).prepare()


@pytest.mark.parametrize("call", [
    lambda: EncodeOptions(mode="bogus"),
    lambda: fold(parse_xml("<a/>"), parse_xml("<h><XSTRING/></h>"), "bogus"),
    lambda: predict_size(ConstructKind.TEXT, 0),
    lambda: predict_size(ConstructKind.ATTRIBUTE, 3, 0),
    lambda: asymptote_check(0, 5),
    lambda: build_substitution(tokenize("/a"), 1),
    lambda: XsToken(PrefixKind.TEXT, "a\0"),
    lambda: EncodeOptions(escaping="sentinel"),
    lambda: tokenize("/r", "sentinel"),
    lambda: unpack(b"", "sentinel"),
    lambda: render(XsDocument([], "sentinel")),
], ids=["encode_mode", "fold_mode", "size_n", "size_m", "asymptote",
        "threshold", "token", "encode_escape", "tokenize_escape",
        "unpack_escape", "render_escape"])
def test_argument_errors_are_typed(call):
    # each is both: existing callers catch ValueError, the CLI XStringError
    with pytest.raises(XStringError) as err:
        call()
    assert isinstance(err.value, ValueError)
