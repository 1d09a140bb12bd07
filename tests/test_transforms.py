"""Canonicalizer and name-table substitution."""

import pytest

from xstring import (
    EscapeMode,
    NumericNameClash,
    PrefixKind,
    SubstitutionTable,
    UnknownKey,
    XsDocument,
    XsToken,
    build_substitution,
    decode,
    encode,
    expand_substitution,
    parse_xml,
    render,
    structural_equal,
    to_child_depth,
    tokenize,
)

from corpus import (
    ROWS_XS,
    ROWS_XS_CANONICAL,
    SUBST_KEYED_XS,
    SUBST_PLAIN_XML,
    SUBST_PLAIN_XS,
    fixture_documents,
    make_corpus,
)


# canonicalizer

def test_to_child_depth_golden():
    out = to_child_depth(tokenize(ROWS_XS))
    assert render(out) == ROWS_XS_CANONICAL


def test_to_child_depth_minimal():
    assert render(to_child_depth(tokenize("/X"))) == "/X+0"


def test_to_child_depth_idempotent():
    out = to_child_depth(tokenize(ROWS_XS))
    again = to_child_depth(out)
    assert again.tokens == out.tokens


def test_to_child_depth_decode_equal():
    src = tokenize(ROWS_XS)
    out = to_child_depth(src)
    assert structural_equal(decode(out), decode(src),
                            whitespace_significant=True)


def test_to_child_depth_no_siblings():
    out = to_child_depth(tokenize(ROWS_XS))
    assert all(t.kind is not PrefixKind.SIBLING for t in out.tokens)
    assert all(t.depth is not None for t in out.tokens
               if t.kind is PrefixKind.CHILD)


def test_to_child_depth_keeps_escaping():
    src = encode(parse_xml("<A><B>x/y</B><C/></A>"),
                 opts=None)
    sent = XsDocument(src.tokens, EscapeMode.SENTINEL)
    out = to_child_depth(sent)
    assert out.escaping is EscapeMode.SENTINEL


def test_to_child_depth_corpus_sample():
    for doc in make_corpus(count=40, seed=3):
        src = encode(doc)
        out = to_child_depth(src)
        assert structural_equal(decode(out), decode(src),
                                whitespace_significant=True)
        assert to_child_depth(out).tokens == out.tokens
        assert all(t.kind is not PrefixKind.SIBLING for t in out.tokens)


# substitution

def test_build_substitution_golden():
    assert render(encode(parse_xml(SUBST_PLAIN_XML))) == SUBST_PLAIN_XS
    table, out = build_substitution(tokenize(SUBST_PLAIN_XS))
    assert render(out) == SUBST_KEYED_XS
    assert table.names == ["AVERYLONGTAGNAME"]


def test_expand_substitution_inverse():
    src = tokenize(SUBST_PLAIN_XS)
    _, out = build_substitution(src)
    assert expand_substitution(out).tokens == src.tokens


def test_expand_with_external_table():
    table = SubstitutionTable(["AVERYLONGTAGNAME"])
    refs = tokenize("/XML/0'a|0'b")
    out = expand_substitution(refs, table)
    assert render(out) == "/XML/AVERYLONGTAGNAME'a|AVERYLONGTAGNAME'b"


def test_expand_unknown_key():
    with pytest.raises(UnknownKey):
        expand_substitution(tokenize("/XML/5'x"))
    with pytest.raises(UnknownKey):
        expand_substitution(tokenize("/XML/5'x"), SubstitutionTable(["ONLY"]))


def test_substitution_threshold():
    # short names stay, even when repeated
    doc = tokenize("/R/ABC'x|ABC'y")
    _, out = build_substitution(doc, threshold=3)
    assert render(out) == "/R/ABC'x|ABC'y"
    # one character longer pays for the key
    doc = tokenize("/R/ABCD'x|ABCD'y")
    _, out = build_substitution(doc, threshold=3)
    assert render(out) == "/R/ABCD#0'x|0'y"


def test_substitution_requires_repetition():
    doc = tokenize("/R/LONGSINGLETONNAME'x")
    table, out = build_substitution(doc)
    assert table.names == []
    assert out.tokens == doc.tokens


def test_substitution_covers_attribute_names():
    doc = tokenize("/R/A@LONGATTRIBUTE=1|B@LONGATTRIBUTE=2")
    table, out = build_substitution(doc)
    assert table.names == ["LONGATTRIBUTE"]
    assert render(out) == "/R/A@LONGATTRIBUTE#0=1|B@0=2"
    assert expand_substitution(out).tokens == doc.tokens


def test_substitution_never_grows():
    keys = {3: 0, 8: 0}
    for doc in make_corpus(count=40, seed=5) + fixture_documents():
        xs = encode(doc)
        for threshold in keys:
            table, out = build_substitution(xs, threshold=threshold)
            keys[threshold] += len(table.names)
            assert len(render(out)) <= len(render(xs))
    # the fixture documents bind keys at both thresholds
    assert all(keys.values()), keys


def test_numeric_name_rejected():
    with pytest.raises(NumericNameClash):
        build_substitution(tokenize("/ROOT/42'x|42'y"))


def test_bound_stream_rejected():
    bound = XsDocument([XsToken(PrefixKind.CHILD, "ROOT"),
                        XsToken(PrefixKind.CHILD, "NAME", subst_key=0)])
    with pytest.raises(ValueError):
        build_substitution(bound)


def test_substituted_stream_decodes_after_expansion():
    src = tokenize(SUBST_PLAIN_XS)
    _, out = build_substitution(src)
    assert structural_equal(decode(expand_substitution(out)), decode(src))
    # the decoder also resolves binders and references directly
    assert structural_equal(decode(out), decode(src))
