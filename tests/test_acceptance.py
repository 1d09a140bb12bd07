"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS or FAIL line so a log scan shows the
status of every criterion at a glance.  Checks accumulate into a
failure list instead of asserting one by one, so the line always
prints before the test verdict.
"""

import random

from xstring import (
    EncodeMode,
    EncodeOptions,
    EscapeMode,
    decode,
    descendant_count,
    encode,
    parse_xml,
    render,
    serialize_xml,
    structural_equal,
    tokenize,
)
from xstring.binary import PackError, pack, pack_envelope, unpack, unpack_envelope
from xstring.folding import (
    FoldMode,
    LengthMismatch,
    fold,
    unescape_fold_attr,
    unfold,
)
from xstring.grammar import PrefixKind
from xstring.metrics import ConstructKind, asymptote_check, measure, predict_size
from xstring.transforms import build_substitution, expand_substitution, to_child_depth
from xstring.xml_model import WellFormednessError, check_well_formed

from corpus import (
    DEPTH1_XML,
    DEPTH1_XS,
    DEPTH3_XML,
    DEPTH3_XS,
    MIXED_KINDS_XML,
    MIXED_KINDS_XS,
    PROPERTIES_XML,
    PROPERTIES_XS,
    RECORDS_XML,
    ROWS_MIXED_XML,
    ROWS_XML,
    ROWS_XS_CANONICAL,
    SUBST_KEYED_XS,
    SUBST_PLAIN_XS,
    XHTML_HOST2_XML,
    XHTML_HOST3_XML,
    XHTML_PAGE_XML,
    corpus,
    fixture_documents,
)

XHTML_HOST4_XML = (XHTML_HOST3_XML
                   .replace("Going too far perhaps?", "One more level")
                   .replace("This is way too much!", "Still going"))

RULE_FIXTURES = [
    (1, "<A/><B/>"),
    (2, "<A><B></B>"),
    (3, '<A><?xml version="1.0"?></A>'),
    (4, "<A><B></A></B>"),
    (5, '<A b="1"></A c="2">'),
    (6, "<A b=1/>"),
    (7, "<1A/>"),
    (8, "<A>x & y</A>"),
]

VALID_FIXTURES = [PROPERTIES_XML, ROWS_XML, RECORDS_XML, MIXED_KINDS_XML,
                  DEPTH1_XML, DEPTH3_XML, XHTML_PAGE_XML,
                  '<?xml version="1.0"?><A b="1">text</A>']


def finish(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {label}")
    assert not failures, "\n".join(str(f) for f in failures[:10])


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_golden_encodings(capsys):
    failures = []
    got = render(encode(parse_xml(PROPERTIES_XML)))
    check(failures, got == PROPERTIES_XS, f"properties: {got!r}")

    # the depth-3 string is already minimal; it survives a tokenize and
    # render pass unchanged and decodes to the expected tree
    got = render(tokenize(DEPTH3_XS))
    check(failures, got == DEPTH3_XS, f"depth form: {got!r}")
    check(failures,
          structural_equal(decode(tokenize(DEPTH3_XS)), parse_xml(DEPTH3_XML)),
          "depth form decodes to the wrong tree")

    got = render(encode(parse_xml(MIXED_KINDS_XML)))
    check(failures, got == MIXED_KINDS_XS, f"mixed kinds: {got!r}")

    got = render(encode(parse_xml(ROWS_XML),
                        EncodeOptions(mode=EncodeMode.CANONICAL)))
    check(failures, got == ROWS_XS_CANONICAL, f"canonical rows: {got!r}")

    _, keyed = build_substitution(tokenize(SUBST_PLAIN_XS))
    got = render(keyed)
    check(failures, got == SUBST_KEYED_XS, f"substitution: {got!r}")

    with capsys.disabled():
        finish(1, "five golden encodings reproduced character-exact", failures)


def test_criterion_2_round_trip_corpus(capsys):
    failures = []
    docs = corpus()
    assert len(docs) == 500
    for mode in (EncodeMode.SAFE_SIBLING, EncodeMode.CANONICAL):
        for escaping in (EscapeMode.ENTITY, EscapeMode.SENTINEL):
            opts = EncodeOptions(mode=mode, escaping=escaping)
            bad = 0
            for doc in docs:
                if not structural_equal(decode(encode(doc, opts)), doc):
                    bad += 1
            check(failures, bad == 0,
                  f"{mode}/{escaping.value}: {bad} round-trip failures")
    with capsys.disabled():
        finish(2, "500 documents round-trip in all four mode combinations",
               failures)


def test_criterion_3_depth_semantics(capsys):
    failures = []
    rows = parse_xml(ROWS_XML).root
    check(failures, descendant_count(rows) == 10,
          f"table count: {descendant_count(rows)}")
    for row in rows.children:
        check(failures, descendant_count(row) == 4,
              f"row count: {descendant_count(row)}")

    deep = decode(tokenize(DEPTH3_XS))
    shallow = decode(tokenize(DEPTH1_XS))
    check(failures, structural_equal(deep, parse_xml(DEPTH3_XML)),
          "depth 3 tree wrong")
    check(failures, structural_equal(shallow, parse_xml(DEPTH1_XML)),
          "depth 1 tree wrong")
    check(failures, not structural_equal(deep, shallow),
          "depth markers 3 and 1 must give different trees")
    with capsys.disabled():
        finish(3, "depth markers count enclosed nodes and disambiguate",
               failures)


def _single_construct(kind, n, m):
    name = "A" * n
    if kind is ConstructKind.NESTED_TAG:
        return f"<{name}><B/></{name}>"
    if kind is ConstructKind.EMPTY_TAG:
        return f"<{name}/>"
    if kind is ConstructKind.PI_TAG:
        return f"<R><?{name}?></R>"
    if kind is ConstructKind.DTD_ELEMENT:
        return f"<R><!{'D' * n}></R>"
    if kind is ConstructKind.COMMENT_TAG:
        return f"<R><!--{'C' * n}--></R>"
    if kind is ConstructKind.CDATA_TAG:
        return f"<R><![CDATA[{'x' * n}]]></R>"
    if kind is ConstructKind.TEXT:
        return f"<R>{'t' * n}</R>"
    if kind is ConstructKind.TEXT_DUAL:
        return f"<R>{'t' * (n - 1)}/</R>"
    return f'<R {"N" * m}="{"v" * n}"/>'


def test_criterion_4_size_formula_rows(capsys):
    failures = []
    for kind in ConstructKind:
        for n in (1, 5, 50):
            for m in (1, 5) if kind is ConstructKind.ATTRIBUTE else (0,):
                xml_text = _single_construct(kind, n, m)
                report = measure(xml_text, encode(parse_xml(xml_text)))
                stat = report.constructs[kind]
                want = predict_size(kind, n, m)
                got = (stat.xml_chars, stat.xs_chars)
                check(failures, stat.count == 1 and got == want,
                      f"{kind.value} n={n} m={m}: want {want}, got {got}")
    with capsys.disabled():
        finish(4, "every size formula row matches a measured document",
               failures)


def test_criterion_5_ratio_limit(capsys):
    failures = []
    for n in (1, 10, 100):
        probe = asymptote_check(n, 50)
        check(failures, abs(probe.ratio - probe.limit) < 0.02,
              f"n={n}: ratio {probe.ratio:.4f} vs limit {probe.limit:.4f}")
    probe = asymptote_check(100, 50)
    check(failures, 0.48 <= probe.ratio <= 0.52,
          f"n=100 ratio {probe.ratio:.4f} outside [0.48, 0.52]")

    # recomputed fixture ratios, pinned
    for xml_text, want_xml, want_xs in ((ROWS_MIXED_XML, 107, 54),
                                        (RECORDS_XML, 73, 54)):
        report = measure(xml_text, encode(parse_xml(xml_text)))
        check(failures,
              (report.xml_chars, report.xs_chars) == (want_xml, want_xs),
              f"fixture sizes: want {(want_xml, want_xs)}, "
              f"got {(report.xml_chars, report.xs_chars)}")
        check(failures, report.xs_chars < report.xml_chars,
              "encoded form must be smaller")
    with capsys.disabled():
        finish(5, "deep nesting approaches the one-half size limit", failures)


def test_criterion_6_binary_codec(capsys):
    failures = []
    from xstring.grammar import XsDocument, XsToken
    golden = pack(XsDocument([XsToken(PrefixKind.CHILD, "XML"),
                              XsToken(PrefixKind.TEXT, "XMLTEXT")]))
    check(failures, golden[:6] == bytes.fromhex("0F03584D4C07"),
          f"golden prefix: {golden[:6].hex()}")

    bad = 0
    for doc in corpus():
        xs = encode(doc)
        if unpack(pack(xs)).tokens != xs.tokens:
            bad += 1
    check(failures, bad == 0, f"{bad} pack/unpack identity failures")

    rng = random.Random(8181)
    base = pack_envelope(encode(parse_xml(ROWS_MIXED_XML)))
    crashes = 0
    for trial in range(10000):
        if trial % 2:
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 32)))
        else:
            buf = bytearray(base)
            for _ in range(rng.randrange(1, 5)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            data = bytes(buf[:rng.randrange(1, len(buf) + 1)])
        try:
            unpack_envelope(data)
        except PackError:
            pass
        except Exception:
            crashes += 1
    check(failures, crashes == 0, f"{crashes} fuzz cases escaped the "
                                  "typed error family")
    with capsys.disabled():
        finish(6, "binary form round-trips and survives 10000 fuzz cases",
               failures)


def test_criterion_7_canonicalizer(capsys):
    failures = []
    for doc in corpus():
        xs = encode(doc)
        canon = to_child_depth(xs)
        if not structural_equal(decode(canon), decode(xs)):
            failures.append("canonical form decodes differently")
            break
        if to_child_depth(canon).tokens != canon.tokens:
            failures.append("canonicalizer is not idempotent")
            break
        if any(t.kind is PrefixKind.SIBLING for t in canon.tokens):
            failures.append("canonical form contains a sibling token")
            break
    with capsys.disabled():
        finish(7, "child-depth form is equivalent, idempotent, sibling-free",
               failures)


def test_criterion_8_substitution(capsys):
    failures = []
    table, keyed = build_substitution(tokenize(SUBST_PLAIN_XS))
    check(failures, render(keyed) == SUBST_KEYED_XS,
          f"golden: {render(keyed)!r}")
    back = expand_substitution(keyed, table)
    check(failures, back.tokens == tokenize(SUBST_PLAIN_XS).tokens,
          "expansion is not token-exact")

    for threshold in (3, 8):
        grew = keys = 0
        for doc in corpus() + fixture_documents():
            xs = encode(doc)
            table, out = build_substitution(xs, threshold)
            keys += len(table.names)
            if len(render(out)) > len(render(xs)):
                grew += 1
        check(failures, grew == 0,
              f"threshold {threshold}: {grew} streams grew")
        check(failures, keys > 0, f"threshold {threshold}: no key bound")
    with capsys.disabled():
        finish(8, "name substitution round-trips and never grows a stream",
               failures)


def test_criterion_9_folding(capsys):
    failures = []
    page = parse_xml(XHTML_PAGE_XML)
    hosts = [XHTML_HOST2_XML, XHTML_HOST3_XML, XHTML_HOST4_XML]
    layers = [page]
    for host in hosts:
        layers.append(fold(layers[-1], parse_xml(host)))
    for depth in (1, 2, 3):
        peeled = layers[depth]
        for _ in range(depth):
            peeled = unfold(peeled)
        check(failures, structural_equal(peeled, page),
              f"nested depth {depth} does not round-trip")

    # multi mode treats a slot with LENGTH/TEXT as a nested fold, so the
    # innermost document for this chain carries a bare slot
    bare = parse_xml(XHTML_PAGE_XML.replace(
        '<XSTRING LENGTH="0" TEXT="" />', "<XSTRING/>"))
    multi = bare
    for host in hosts:
        multi = fold(multi, parse_xml(host), FoldMode.MULTI)
    back = multi
    for _ in hosts:
        back = unfold(back)
    check(failures, structural_equal(back, bare),
          "multi fold does not round-trip")

    def walk(node):
        yield node
        for child in node.children:
            yield from walk(child)

    for doc in layers[1:] + [multi]:
        for node in walk(doc.root):
            if getattr(node, "name", None) != "XSTRING":
                continue
            attrs = dict(node.attributes)
            for name, value in attrs.items():
                if name == "LENGTH" or name.startswith("LENGTH_"):
                    stored = attrs["TEXT" + name[len("LENGTH"):]]
                    check(failures,
                          int(value) == len(unescape_fold_attr(stored)),
                          f"{name} does not match its payload")

    tampered = fold(page, parse_xml(XHTML_HOST2_XML))
    slot = next(n for n in walk(tampered.root)
                if getattr(n, "name", None) == "XSTRING")
    for i, (name, value) in enumerate(slot.attributes):
        if name == "LENGTH":
            slot.attributes[i] = (name, str(int(value) + 1))
    try:
        unfold(tampered)
        failures.append("tampered LENGTH was accepted")
    except LengthMismatch:
        pass
    with capsys.disabled():
        finish(9, "fold and unfold agree at depths 1-3 and verify LENGTH",
               failures)


def test_criterion_10_well_formedness_rules(capsys):
    failures = []
    for rule, text in RULE_FIXTURES:
        try:
            parse_xml(text)
            failures.append(f"rule {rule} fixture was accepted")
        except WellFormednessError as err:
            check(failures, err.rule == rule,
                  f"fixture for rule {rule} reported rule {err.rule}")
    for text in VALID_FIXTURES:
        report = check_well_formed(text)
        check(failures, report.ok, f"valid fixture rejected: {text[:40]!r}")
    with capsys.disabled():
        finish(10, "all eight structural rules match their fixtures",
               failures)
