"""Tests for the size accounting tables and the ratio limit."""

import random
from itertools import product

import pytest

from xstring import XStringError, parse_xml
from xstring.binary import pack_envelope
from xstring.codec import (DecodeError, DecodeState, DuplicateAttr,
                           EncodeMode, EncodeOptions, decode, encode)
from xstring.grammar import EscapeMode, PrefixKind, XsDocument, XsToken, render
from xstring.metrics import (
    AsymptoteProbe,
    ConstructKind,
    Mismatch,
    SizeReport,
    asymptote_check,
    measure,
    predict_size,
)
from xstring.transforms import build_substitution
from xstring.xml_model import XmlNode, serialize_xml, structural_equal

import metrics_oracle
from corpus import RECORDS_XML, ROWS_MIXED_XML, corpus
from steps import lines_run, nodes_built
from walk_oracle import walk

NS = (1, 5, 50)
MS = (1, 5)


def report_for(xml_text):
    return measure(xml_text, encode(parse_xml(xml_text)))


def test_predict_size_goldens():
    assert predict_size(ConstructKind.NESTED_TAG, 3) == (11, 4)
    assert predict_size(ConstructKind.EMPTY_TAG, 3) == (6, 4)
    assert predict_size(ConstructKind.PI_TAG, 2) == (6, 3)
    assert predict_size(ConstructKind.DTD_ELEMENT, 4) == (7, 5)
    assert predict_size(ConstructKind.COMMENT_TAG, 7) == (14, 8)
    assert predict_size(ConstructKind.CDATA_TAG, 4) == (16, 5)
    assert predict_size(ConstructKind.TEXT, 4) == (4, 5)
    assert predict_size(ConstructKind.TEXT_DUAL, 4) == (4, 6)
    assert predict_size(ConstructKind.ATTRIBUTE, 5, m=4) == (12, 11)


def test_predict_size_validation():
    with pytest.raises(ValueError):
        predict_size(ConstructKind.TEXT, 0)
    with pytest.raises(ValueError):
        predict_size(ConstructKind.ATTRIBUTE, 3)


@pytest.mark.parametrize("n", NS)
def test_measured_empty_tag_matches_row(n):
    report = report_for(f"<{'A' * n}/>")
    stat = report.constructs[ConstructKind.EMPTY_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.EMPTY_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_nested_tag_matches_row(n):
    name = "A" * n
    report = report_for(f"<{name}><B/></{name}>")
    stat = report.constructs[ConstructKind.NESTED_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.NESTED_TAG, n))
    inner = report.constructs[ConstructKind.EMPTY_TAG]
    assert (inner.xml_chars, inner.xs_chars) == (4, 2)


@pytest.mark.parametrize("n", NS)
def test_measured_pi_matches_row(n):
    report = report_for(f"<R><?{'A' * n}?></R>")
    stat = report.constructs[ConstructKind.PI_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.PI_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_dtd_matches_row(n):
    report = report_for(f"<R><!{'D' * n}></R>")
    stat = report.constructs[ConstructKind.DTD_ELEMENT]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.DTD_ELEMENT, n))


@pytest.mark.parametrize("n", NS)
def test_measured_comment_matches_row(n):
    report = report_for(f"<R><!--{'C' * n}--></R>")
    stat = report.constructs[ConstructKind.COMMENT_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.COMMENT_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_cdata_matches_row(n):
    report = report_for(f"<R><![CDATA[{'x' * n}]]></R>")
    stat = report.constructs[ConstructKind.CDATA_TAG]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.CDATA_TAG, n))


@pytest.mark.parametrize("n", NS)
def test_measured_text_matches_row(n):
    report = report_for(f"<R>{'t' * n}</R>")
    stat = report.constructs[ConstructKind.TEXT]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.TEXT, n))


@pytest.mark.parametrize("n", NS)
def test_measured_text_dual_matches_row(n):
    # a trailing prefix character forces the dual form
    report = report_for(f"<R>{'t' * (n - 1)}/</R>")
    stat = report.constructs[ConstructKind.TEXT_DUAL]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.TEXT_DUAL, n))


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("n", NS)
def test_measured_attribute_matches_row(n, m):
    report = report_for(f'<R {"N" * m}="{"v" * n}"/>')
    stat = report.constructs[ConstructKind.ATTRIBUTE]
    assert (stat.count, stat.xml_chars, stat.xs_chars) == (
        1, *predict_size(ConstructKind.ATTRIBUTE, n, m=m))
    # the space before the attribute is separator overhead
    assert report.xml_overhead == 1


def test_construct_columns_add_up():
    for xml_text in (ROWS_MIXED_XML, RECORDS_XML,
                     "<A><B c=\"1\" d=\"2\">text</B><!--n--></A>"):
        report = report_for(xml_text)
        assert sum(s.xml_chars for s in report.constructs.values()) \
            + report.xml_overhead == report.xml_chars
        assert sum(s.xs_chars for s in report.constructs.values()) \
            == report.xs_chars


def test_columns_add_up_on_corpus():
    for doc in corpus()[:80]:
        xs = encode(doc)
        report = measure(serialize_xml(doc), xs)
        assert sum(s.xml_chars for s in report.constructs.values()) \
            + report.xml_overhead == report.xml_chars
        assert sum(s.xs_chars for s in report.constructs.values()) \
            == report.xs_chars
        assert report.xs_chars == len(render(xs))
        assert report.xsb_bytes == len(pack_envelope(xs))


def test_two_row_table_sizes():
    report = report_for(ROWS_MIXED_XML)
    assert report.xml_chars == 107
    assert report.xml_chars_raw == 107
    assert report.xs_chars == 54
    assert report.ratio == pytest.approx(54 / 107)
    assert report.xs_chars < report.xml_chars


def test_attribute_mapped_table_sizes():
    report = report_for(RECORDS_XML)
    assert report.xml_chars == 73
    assert report.xs_chars == 54
    assert report.ratio == pytest.approx(54 / 73)
    assert report.xs_chars < report.xml_chars


def test_measure_rejects_wrong_stream():
    with pytest.raises(Mismatch):
        measure(ROWS_MIXED_XML, encode(parse_xml(RECORDS_XML)))
    with pytest.raises(Mismatch):
        measure("<A/>", encode(parse_xml("<B/>")))


def test_asymptote_short_names():
    probe = asymptote_check(1, 50)
    assert isinstance(probe, AsymptoteProbe)
    assert probe.limit == pytest.approx(2 / 7)
    assert abs(probe.ratio - probe.limit) < 0.02
    assert probe.ratio > probe.limit


def test_asymptote_medium_names():
    probe = asymptote_check(10, 50)
    assert probe.limit == pytest.approx(11 / 25)
    assert abs(probe.ratio - probe.limit) < 0.02


def test_asymptote_long_names_near_half():
    probe = asymptote_check(100, 50)
    assert 0.48 <= probe.ratio <= 0.52


def test_asymptote_ratio_consistent():
    probe = asymptote_check(3, 12)
    assert probe.ratio == pytest.approx(probe.xs_chars / probe.xml_chars)
    assert probe.xml_chars == len(serialize_xml(
        parse_xml("<AAA>" * 11 + "<AAA/>" + "</AAA>" * 11)))


@pytest.mark.parametrize("n", [1, 4, 16])
def test_asymptote_deep_chain_nears_limit(n):
    # far past the old recursion limit of about 330 levels
    probe = asymptote_check(n, 10_000)
    assert probe.xs_chars == 10_000 * (n + 1)
    assert 0 < probe.ratio - probe.limit < 1e-4


def test_asymptote_validation():
    with pytest.raises(ValueError):
        asymptote_check(0, 5)
    with pytest.raises(ValueError):
        asymptote_check(5, 0)


def test_report_as_kv():
    text = report_for(ROWS_MIXED_XML).as_kv()
    assert "xml_chars=107" in text
    assert "xs_chars=54" in text
    assert "ratio=0.5047" in text
    assert "nested_tag.count=7" in text
    assert "text.count=4" in text


def test_report_as_table():
    text = report_for(RECORDS_XML).as_table()
    lines = text.splitlines()
    assert lines[0].split() == ["construct", "count", "xml", "xs"]
    assert lines[-1].split() == ["total", "73", "54"]
    assert any(row.split()[0] == "attribute" for row in lines[1:-2])


# -- the differential test against the measurement that decoded ------------

EXTRA_XML = [
    "<A> <B/> </A>",
    "<R> </R>",
    "<A>\n  <B/>\n</A>",
    "<p>one <b>x</b> two</p>",
    "<A> <B/>\u00a0</A>",  # a no-break space is not XML whitespace
    '<?xml version="1.0"?>\n<R a="1" b=\'"\'>t<!--c--><![CDATA[d]]>'
    "<!DOC x><?pi some data?> <E/></R>",
]


def _streams(text):
    """Every stream encode writes for text: both modes, both escapings,
    whitespace dropped and kept, plain and with substitution."""
    doc = parse_xml(text)
    for mode, escaping, drop in product(
            (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL),
            (EscapeMode.ENTITY, EscapeMode.SENTINEL), (True, False)):
        xs = encode(doc, EncodeOptions(mode, escaping, drop))
        yield xs
        yield build_substitution(xs, 4)[1]


def _mutated(xs, rng):
    """A copy of xs with one random change to one random token, or None
    when the change drawn does not apply to the token drawn."""
    toks = [XsToken.unchecked(t.kind, t.payload, t.depth, t.subst_key)
            for t in xs.tokens]
    k = rng.randrange(len(toks))
    tok = toks[k]
    how = rng.randrange(7)
    if how == 0:
        del toks[k]
    elif how == 1:
        toks.insert(k, toks[k])
    elif how == 2 and k + 1 < len(toks):
        toks[k], toks[k + 1] = toks[k + 1], toks[k]
    elif how == 3 and tok.payload:
        tok.payload = tok.payload[:-1] + "Z"
    elif how == 4 and tok.kind in (PrefixKind.CHILD, PrefixKind.SIBLING):
        tok.depth = rng.choice([None, 0, 1, 2, 5])
    elif how == 5 and tok.kind in (PrefixKind.CHILD, PrefixKind.SIBLING):
        tok.kind = (PrefixKind.SIBLING if tok.kind is PrefixKind.CHILD
                    else PrefixKind.CHILD)
    elif how == 6:
        toks.insert(k, XsToken.unchecked(PrefixKind.TEXT, rng.choice(" \n")))
    else:
        return None
    return XsDocument(toks, xs.escaping)


def _cases():
    """(text, stream) pairs: every stream encode writes for the extra
    documents and the corpus, then mismatched pairs: streams of another
    document, randomly changed streams, and streams that keep only some
    of the source's whitespace-only text."""
    texts = EXTRA_XML + [serialize_xml(doc) for doc in corpus()]
    cases = [(text, xs) for text in texts for xs in _streams(text)]
    rng = random.Random(12)
    for _ in range(60):
        a, b = rng.sample(texts, 2)
        cases.append((a, encode(parse_xml(b))))
    while len(cases) < len(texts) * 16 + 360:
        text, xs = rng.choice(cases[:len(texts) * 16])
        changed = _mutated(xs, rng)
        if changed is not None:
            cases.append((text, changed))
    for text in EXTRA_XML[:3]:
        xs = encode(parse_xml(text), EncodeOptions(
            drop_insignificant_whitespace=False))
        for i, tok in enumerate(xs.tokens):
            if tok.kind is PrefixKind.TEXT and not tok.payload.strip(" \n"):
                kept = xs.tokens[:i] + xs.tokens[i + 1:]
                cases.append((text, XsDocument(kept, xs.escaping)))
    return cases


def _outcome(fn, text, xs):
    try:
        return fn(text, xs)
    except XStringError as e:
        return type(e)


def _holds_whitespace(xs):
    return any(tok.kind in (PrefixKind.TEXT, PrefixKind.TEXT_DUAL)
               and XmlNode.text(tok.payload).is_whitespace_text()
               for tok in xs.tokens)


def _in_order(prolog, root, drop):
    """(kind, name, content, attributes, parent's position) of each node in
    document order, less whitespace-only text when drop."""
    nodes = [] if prolog is None else [
        (prolog.kind, prolog.name, prolog.content, prolog.attributes, None)]
    open_at = []
    for node, entering in walk(root) if root is not None else ():
        if drop and node.is_whitespace_text():
            continue
        if entering:
            nodes.append((node.kind, node.name, node.content, node.attributes,
                          open_at[-1] if open_at else None))
            open_at.append(len(nodes) - 1)
        else:
            open_at.pop()
    return nodes


def _stops_matching_first(text, xs):
    """Whether the nodes the stream decodes to before the token the decoder
    rejects already differ from the source's, attributes of the last one
    aside: those are not complete until the next node."""
    state = DecodeState()
    try:
        for tok in xs.tokens:
            state.feed(tok)
    except DecodeError:
        pass
    source = parse_xml(text)
    drop = not _holds_whitespace(xs)
    got = _in_order(state.prolog, state.root, False)
    want = _in_order(source.prolog, source.root, drop)
    if not got:
        return False
    if len(got) > len(want):
        return True
    last, mate = got[-1], want[len(got) - 1]
    return (got[:-1] != want[:len(got) - 1] or last[:3] != mate[:3]
            or last[4] != mate[4])


def _expected(text, xs, old):
    """What measure gives where the decoding measurement gave old: the same,
    except for the two kinds of stream encode never writes."""
    if isinstance(old, SizeReport):
        # (a) whitespace-only text, but not all of the source's
        if _holds_whitespace(xs) and not structural_equal(
                decode(xs), parse_xml(text), whitespace_significant=True):
            return Mismatch
    elif issubclass(old, DecodeError):
        # (b) the stream stops matching before the decoder rejects it
        if _stops_matching_first(text, xs):
            return Mismatch
    return old


def test_measure_matches_the_decoding_oracle():
    cases = _cases()
    changed = {"a": 0, "b": 0}
    for text, xs in cases:
        old = _outcome(metrics_oracle.measure, text, xs)
        new = _outcome(measure, text, xs)
        assert new == _expected(text, xs, old), (text, render(xs))
        if new != old:
            changed["a" if isinstance(old, SizeReport) else "b"] += 1
    assert len(cases) > 8000
    assert changed["a"] > 0 and changed["b"] > 0, changed


def test_keeping_some_whitespace_is_a_mismatch():
    # (a) the oracle ignored whitespace-only text on both sides
    text = "<A> <B/> </A>"
    xs = encode(parse_xml(text), EncodeOptions(
        drop_insignificant_whitespace=False))
    assert render(xs) == "/A' /B+0' "
    partial = XsDocument(xs.tokens[:3], xs.escaping)  # the last one gone
    assert isinstance(metrics_oracle.measure(text, partial), SizeReport)
    with pytest.raises(Mismatch):
        measure(text, partial)
    # whitespace the source does not have at all is the same case
    extra = XsDocument([XsToken(PrefixKind.CHILD, "A"),
                        XsToken(PrefixKind.TEXT, " "),
                        XsToken(PrefixKind.CHILD, "B")])
    assert isinstance(metrics_oracle.measure("<A><B/></A>", extra),
                      SizeReport)
    with pytest.raises(Mismatch):
        measure("<A><B/></A>", extra)


def test_mismatch_before_a_decode_error():
    # (b) <C> is not the source's <B>; the duplicate comes after it
    xs = XsDocument([XsToken(PrefixKind.CHILD, "A"),
                     XsToken(PrefixKind.CHILD, "C"),
                     XsToken(PrefixKind.ATTR_NAME, "x"),
                     XsToken(PrefixKind.ATTR_NAME, "x")])
    with pytest.raises(DuplicateAttr):
        metrics_oracle.measure("<A><B/></A>", xs)
    with pytest.raises(Mismatch):
        measure("<A><B/></A>", xs)


# -- measure builds no second tree and stays linear --------------------------

@pytest.mark.parametrize("text", [RECORDS_XML, serialize_xml(corpus()[3])])
def test_measure_builds_no_tree_beyond_the_parse(monkeypatch, text):
    xs = encode(parse_xml(text))
    parsed = nodes_built(monkeypatch, lambda: parse_xml(text))
    assert parsed > 0
    assert nodes_built(monkeypatch, lambda: measure(text, xs)) == parsed


def _table(rows):
    return "<TABLE>" + "".join(
        f'<RECORD ID="{i}"><NAME>n{i}</NAME><CITY>c/{i}</CITY>'
        f"<NOTE>a|b {i}</NOTE></RECORD>" for i in range(rows)) + "</TABLE>"


def test_measure_takes_linear_steps():
    def steps(n):
        text = _table(n)
        return lines_run(measure, text, encode(parse_xml(text)))

    assert steps(1000) < 2.2 * steps(500)
