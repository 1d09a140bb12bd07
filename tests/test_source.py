"""Checks on the source of the xstring package itself, and on the errors
it raises for a caller's arguments."""

import ast
import dataclasses
import graphlib
import re
import sys
import types
from pathlib import Path

import pytest

import xstring
from xstring import (ConstructKind, EncodeOptions, FoldMode, PrefixKind,
                     XsDocument, XStringError, XsToken, asymptote_check,
                     build_substitution, encode, fold, parse_xml,
                     predict_size, render, tokenize, unfold, unpack)

# a multi fold of one layer, whose layer 1 does not exist
_FOLDED = fold(parse_xml("<a/>"), parse_xml('<h><XSTRING COUNT="0"/></h>'),
               FoldMode.MULTI)


def test_imports_are_the_package_or_the_standard_library():
    # the package has no dependencies: a module it imports by absolute
    # name is __future__ or one that ships with Python
    foreign = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in (
                            "xstring", "__future__",
                            *sys.stdlib_module_names)]
    assert foreign == []


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


def test_each_decision_has_one_owner():
    # XML's whitespace set, each message below and the violation line are
    # each written once, so a rule changed in one place is changed
    # everywhere; the other modules import them.  The CLI reads no
    # environment variable for --escape's default, so its name is gone
    wanted = {"whitespace": lambda c: (len(c) == 4
                                       and set(c) == set(" \t\r\n")),
              "escape": lambda c: "unknown escape mode" in c,
              "stray": lambda c: "data outside any token" in c,
              "nul_payload": lambda c: "payload must not contain NUL" in c,
              "nul_entity": lambda c: "NUL in entity-mode stream" in c,
              "reference": lambda c: (
                  "is not a decimal character reference" in c),
              "stream_start": lambda c: (
                  "stream must start with a child element" in c),
              "escape_environment": lambda c: "XSTRING_ESCAPE" in c}
    # "rule N at offset O: message"; LocatedError's "message at offset O"
    # is another line
    violation = re.compile(r" at offset \{[^{}]*\}: ")
    found = {what: [] for what in [*wanted, "violation_line"]}
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                hits = [what for what, test in wanted.items()
                        if test(node.value)]
            elif (isinstance(node, ast.JoinedStr)
                    and violation.search(ast.unparse(node))):
                hits = ["violation_line"]
            else:
                continue
            for what in hits:
                found[what].append(f"{path.name}:{node.lineno}")
    assert {what: len(where) for what, where in found.items()} == {
        **{what: 1 for what in found}, "escape_environment": 0}, found


def test_encode_options_are_frozen():
    # a field set after the checks would skip them: mode "bogus" encoded
    # a sibling stream
    opts = EncodeOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.mode = "bogus"


def test_no_reads_of_enum_private_value():
    # PrefixKind and NodeKind are StrEnums: a member is a str that hashes
    # as one, so no table needs a key read from Enum's private _value_
    reads = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_value_":
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_enumerations_are_str_enums():
    # a StrEnum is the one place its values are written: its members are
    # those strings, so argument checks, CLI choices and tables read the
    # class instead of restating them; a class of string constants or a
    # plain Enum would need them written out again
    odd = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = {base.attr if isinstance(base, ast.Attribute) else base.id
                     for base in cls.bases
                     if isinstance(base, (ast.Attribute, ast.Name))}
            if "StrEnum" in bases:
                continue
            body = [stmt for stmt in cls.body
                    if not (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant))]
            constants = body and all(
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str) for stmt in body)
            if "Enum" in bases or constants:
                odd.append(f"{path.name}:{cls.lineno} {cls.name}")
    assert odd == []


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
    lambda: build_substitution(tokenize("/a"), "3"),
    lambda: build_substitution(tokenize("/a"), True),
    lambda: unfold(_FOLDED, True),
    lambda: unfold(_FOLDED, 1.0),
    lambda: unfold(_FOLDED, "1"),
    lambda: fold(parse_xml("<a/>"), parse_xml("<h/>"), "bogus"),
    lambda: predict_size("text", 3),
    lambda: predict_size(ConstructKind.TEXT, "3"),
    lambda: predict_size(ConstructKind.TEXT, True),
    lambda: predict_size(ConstructKind.ATTRIBUTE, 3, 1.0),
    lambda: asymptote_check("3", 5),
    lambda: asymptote_check(3, True),
    lambda: EncodeOptions(drop_insignificant_whitespace="no"),
    lambda: encode(parse_xml("<a/>"), {}),
    lambda: encode(parse_xml("<a/>"), {"mode": "canonical"}),
], ids=["encode_mode", "fold_mode", "size_n", "size_m", "asymptote",
        "threshold", "token", "encode_escape", "tokenize_escape",
        "unpack_escape", "render_escape", "threshold_str", "threshold_bool",
        "index_bool", "index_float", "index_str", "fold_mode_no_slot",
        "size_kind_str", "size_n_str", "size_n_bool", "size_m_float",
        "asymptote_name_len_str", "asymptote_depth_bool", "encode_drop_str",
        "encode_options_empty_dict", "encode_options_dict"])
def test_argument_errors_are_typed(call):
    # each is both: existing callers catch ValueError, the CLI XStringError;
    # a value of the wrong type is refused by type, bool included, since
    # True equals 1
    with pytest.raises(XStringError) as err:
        call()
    assert isinstance(err.value, ValueError)
