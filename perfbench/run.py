"""xstring benchmark: seeded documents through every codec path.

    python3 perfbench/run.py [--workload all|corpus|wide|mixed|deep]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout: the directory that holds ``src/xstring`` and
``perfbench``.  With one workload it measures that workload in this
interpreter and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``all`` (the
default) it runs the four workloads in turn, each in a fresh interpreter,
and prints every metric of each.  BENCHMARK.json at the root defines the
metrics; README.md next to this file explains them.

Each path runs over every document of the workload.  Throughput is in MB/s
of the source XML (10**6 UTF-8 bytes), whatever the path reads:

    encode        parse_xml -> encode(sibling) -> render
    decode        tokenize -> decode -> serialize_xml        (sibling stream)
    canon_encode  parse_xml -> encode(canonical) -> render
    canon_decode  tokenize -> decode -> serialize_xml        (canonical stream)
    compact       tokenize -> build_substitution(8) -> pack_envelope
                  -> unpack_envelope -> expand_substitution -> render

With ``--trace 0`` the end-to-end metrics are measured untraced.  With
``--trace 1`` the run records a span around every call it makes into the
program, counts ``DecodeState.feed`` calls, measures each layer at sizes n
and 2n, and writes the spans to ``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import inputs
from spans import Recorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = tuple(inputs.SIZES)
PATHS = ("encode", "decode", "canon_encode", "canon_decode", "compact")
SUBST_THRESHOLD = 8
# A sample repeats one path over the workload until it has run this long,
# so that short passes (corpus, deep) are not timed one at a time.
MIN_SAMPLE_S = 0.1
# Fresh interpreters whose `import xstring` time gives setup_s.
SETUP_RUNS = 11
# The speed of a shared host drifts by 20 to 40 % over tens of seconds and
# moves every path of a run together.  So every timing is scaled to a
# machine on which a fixed calibration job, pure Python that shares no code
# with the program, takes CALIBRATION_S seconds: each round of samples is
# bracketed by runs of that job, and a sample's time is multiplied by
# CALIBRATION_S / (the job's time around it).  This cuts the quartile
# spread of ten runs several-fold.  Raw figures are in the notes line.
CALIBRATION_S = 0.007
MIN_CALIBRATION_S = 0.05
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import xstring; "
                "print(time.perf_counter() - t)")

# Public functions the benchmark calls; the traced run wraps each of them.
API = ("parse_xml", "serialize_xml", "structural_equal", "tokenize",
       "render", "encode", "decode", "build_substitution",
       "expand_substitution", "pack_envelope", "unpack_envelope")
# Span names timed per layer.  Encode and decode spans are named after the
# stream form, because on deep input the canonical form costs nodes x depth.
LAYERS = ("parse_xml", "render", "tokenize", "serialize_xml",
          "encode.sibling", "encode.canonical", "decode.sibling",
          "decode.canonical",
          "build_substitution", "expand_substitution", "pack_envelope",
          "unpack_envelope")
TOKEN_KINDS = ("CHILD", "SIBLING", "TEXT", "TEXT_DUAL", "ATTR_NAME",
               "ATTR_VALUE", "COMMENT", "PROC_INSTR", "CDATA", "DTD")


def load_xstring():
    """Import xstring from this checkout's src/, or exit without a result."""
    if not (SRC / "xstring" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no xstring package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xstring
    if Path(xstring.__file__).resolve().parent != SRC / "xstring":
        raise SystemExit(f"perfbench: imported xstring from {xstring.__file__}, "
                         f"not from {SRC}")
    return xstring


# ---------------------------------------------------------------------------
# paths

def path_encode(api, d):
    return api.render(api.encode(api.parse_xml(d.text), d.sibling_opts))


def path_decode(api, d):
    return api.serialize_xml(api.decode(api.tokenize(d.xs, d.escaping)))


def path_canon_encode(api, d):
    return api.render(api.encode(api.parse_xml(d.text), d.canonical_opts))


def path_canon_decode(api, d):
    return api.serialize_xml(api.decode_canonical(api.tokenize(d.cxs, d.escaping)))


def path_compact(api, d):
    _, keyed = api.build_substitution(api.tokenize(d.xs, d.escaping),
                                      SUBST_THRESHOLD)
    blob = api.pack_envelope(keyed)
    return blob, api.render(api.expand_substitution(
        api.unpack_envelope(blob, d.escaping)))


PATH_FNS = {"encode": path_encode, "decode": path_decode,
            "canon_encode": path_canon_encode,
            "canon_decode": path_canon_decode, "compact": path_compact}


# ---------------------------------------------------------------------------
# correctness gate

class Mismatch(Exception):
    """A round trip returned something other than its source."""


class Tally:
    """Operations attempted and failed, failures by path and exception."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.first_error = {}

    @property
    def failed(self):
        return sum(self.failures.values())

    def record(self, path, outcome):
        """Count one operation; outcome is None or the exception it raised."""
        self.attempted += 1
        if outcome is not None:
            key = f"{path}:{type(outcome).__name__}"
            self.failures[key] += 1
            self.first_error.setdefault(key, str(outcome)[:200])


class Doc:
    """One input document and the outputs the gate accepted for it."""

    def __init__(self, lib, text, escaping):
        self.text = text
        self.nbytes = len(text.encode("utf-8"))
        self.escaping = lib.EscapeMode(escaping)
        self.sibling_opts = lib.EncodeOptions(escaping=self.escaping)
        self.canonical_opts = lib.EncodeOptions(mode=lib.EncodeMode.CANONICAL,
                                                escaping=self.escaping)
        self.xs = self.cxs = self.blob = None
        self.expect = {}


def _attempt(tally, path, trip):
    try:
        trip()
    except Exception as err:  # every failure is counted; the run goes on
        tally.record(path, err)
        return False
    tally.record(path, None)
    return True


def gate(api, texts, tally):
    """Run each round trip once, untimed, and check it against the source.

    Returns the documents whose source parses, each with the output every
    timed path must reproduce; a trip that fails leaves its output None, so
    that path fails on that document in every timed pass too.
    """
    docs = []
    for text, mode in texts:
        d = Doc(api.xstring, text, mode)
        source = []
        if not _attempt(tally, "parse", lambda: source.append(api.parse_xml(text))):
            continue
        source = source[0]

        def same(tree, what):
            if not api.structural_equal(tree, source):
                raise Mismatch(f"{what} round trip differs from the source")

        def sibling():
            wire = path_encode(api, d)
            back = api.decode(api.tokenize(wire, d.escaping))
            same(back, "sibling")
            out = api.serialize_xml(back)
            same(api.parse_xml(out), "serialized sibling")
            d.xs, d.expect["encode"], d.expect["decode"] = wire, wire, out

        def canonical():
            cxs = path_canon_encode(api, d)
            back = api.decode_canonical(api.tokenize(cxs, d.escaping))
            same(back, "canonical")
            out = api.serialize_xml(back)
            same(api.parse_xml(out), "serialized canonical")
            d.cxs, d.expect["canon_encode"], d.expect["canon_decode"] = cxs, cxs, out

        def compact():
            blob, out = path_compact(api, d)
            if out != d.xs:
                raise Mismatch("expanded stream differs from the sibling stream")
            same(api.decode(api.unpack_envelope(blob, d.escaping)), "compact")
            d.blob, d.expect["compact"] = blob, (blob, out)

        _attempt(tally, "sibling", sibling)
        _attempt(tally, "canonical", canonical)
        _attempt(tally, "compact", compact)
        docs.append(d)
    return docs


def digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8") if isinstance(p, str) else p or b"")
        h.update(b"\x01")
    return h.hexdigest()[:16]


def ratio(docs, attr):
    """Summed length of an output over summed source characters."""
    made = [getattr(d, attr) for d in docs]
    if any(m is None for m in made):
        return float("nan")
    return sum(map(len, made)) / sum(len(d.text) for d in docs)


# ---------------------------------------------------------------------------
# timing

def run_pass(api, path, docs, tally):
    """One path over every document; returns seconds busy."""
    fn = PATH_FNS[path]
    outs = []
    start = time.perf_counter()
    for d in docs:
        try:
            outs.append(fn(api, d))
        except Exception as err:  # counted below, outside the timed region
            outs.append(err)
    busy = time.perf_counter() - start
    for d, out in zip(docs, outs):
        if isinstance(out, Exception):
            tally.record(path, out)
        elif out != d.expect.get(path):
            tally.record(path, Mismatch("output differs from the gate's"))
        else:
            tally.record(path, None)
    return busy


def sample(api, path, docs, tally):
    """Seconds per pass of path over docs, from passes of MIN_SAMPLE_S total."""
    gc.collect()
    reps, busy = 0, 0.0
    while reps == 0 or busy < MIN_SAMPLE_S:
        busy += run_pass(api, path, docs, tally)
        reps += 1
    return busy / reps


def calibrate():
    """Seconds the calibration job takes on this machine right now.

    The job generates and serializes 40 corpus documents of a fixed seed.
    The collector is off so that the program's heap cannot slow it."""
    gc.disable()
    try:
        reps, busy = 0, 0.0
        while reps == 0 or busy < MIN_CALIBRATION_S:
            start = time.perf_counter()
            inputs.corpus(random.Random(0), 40)
            busy += time.perf_counter() - start
            reps += 1
    finally:
        gc.enable()
    return busy / reps


def rounds(api, docs, seconds, tally):
    """Samples of every path, round robin, for at least `seconds` and one
    round.  Returns per path the seconds per pass of each sample, and per
    round the calibration time around it (geometric mean of the runs of
    the job before and after the round)."""
    taken = {p: [] for p in PATHS}
    cal = [calibrate()]
    deadline = time.perf_counter() + seconds
    while True:
        for p in PATHS:
            taken[p].append(sample(api, p, docs, tally))
        cal.append(calibrate())
        if time.perf_counter() >= deadline:
            return taken, [math.sqrt(a * b) for a, b in zip(cal, cal[1:])]


def setup_seconds():
    """Median time of `import xstring` in fresh interpreters, calibrated."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout) * CALIBRATION_S / calibrate())
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# end-to-end run

def plain_api(lib):
    return SimpleNamespace(xstring=lib, decode_canonical=lib.decode,
                           **{name: getattr(lib, name) for name in API})


def prepare(lib, workload, seed, size, tally):
    api = plain_api(lib)
    docs = gate(api, inputs.generate(workload, seed, size), tally)
    if not docs:
        raise SystemExit(f"perfbench: no document of {workload} parsed")
    return docs


def end_to_end(lib, workload, seed, seconds, tally):
    setup = setup_seconds()
    docs = prepare(lib, workload, seed, inputs.SIZES[workload], tally)
    gc.collect()
    gc.freeze()
    taken, cal = rounds(plain_api(lib), docs, seconds, tally)
    mb = sum(d.nbytes for d in docs) / 1e6
    metrics = {f"{p}_MBps": (mb / statistics.median(
        t * CALIBRATION_S / c for t, c in zip(taken[p], cal)), "MB/s")
        for p in PATHS}
    metrics.update({
        "xs_ratio": (ratio(docs, "xs"), "ratio"),
        "xs_canon_ratio": (ratio(docs, "cxs"), "ratio"),
        "xsb_ratio": (ratio(docs, "blob"), "ratio"),
        "ok_share": (1 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_MB": (peak_rss_mb(), "MB"),
    })
    notes = {"samples": {p: len(v) for p, v in taken.items()},
             "raw_MBps": {p: round(mb / statistics.median(v), 6)
                          for p, v in taken.items()},
             "calibration_s": round(statistics.median(cal), 6),
             "digest": {"sibling": digest(d.xs for d in docs),
                        "canonical": digest(d.cxs for d in docs),
                        "xsb": digest(d.blob for d in docs)}}
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run

def traced_api(lib, rec):
    names = {name: rec.wrap(name, getattr(lib, name)) for name in API}
    names["encode"] = rec.wrap("encode", lib.encode,
                               lambda doc, opts=None: f"encode.{opts.mode}")
    names["decode"] = rec.wrap("decode.sibling", lib.decode)
    names["decode_canonical"] = rec.wrap("decode.canonical", lib.decode)
    return SimpleNamespace(xstring=lib, **names)


def describe(lib, docs):
    """Counts that explain the timings: tokens, markers, keys, tree shape."""
    m = Counter({f"tokens.{k.lower()}": 0 for k in TOKEN_KINDS})
    m.update({"encode.sibling.markers": 0, "encode.sibling.demoted": 0,
              "subst.keys": 0, "subst.chars_saved": 0, "xsb.bytes": 0,
              "nodes.total": 0, "tree.max_depth": 0})
    element = lib.NodeKind.ELEMENT
    for d in docs:
        stream = lib.tokenize(d.xs, d.escaping)
        for tok in stream.tokens:
            m[f"tokens.{tok.kind.name.lower()}"] += 1
            m["encode.sibling.markers"] += tok.depth is not None
        table, keyed = lib.build_substitution(stream, SUBST_THRESHOLD)
        m["subst.keys"] += len(table.names)
        m["subst.chars_saved"] += len(d.xs) - len(lib.render(keyed))
        m["xsb.bytes"] += len(d.blob)
        source = lib.parse_xml(d.text)
        later_siblings = 0
        todo = [(source.root, 1)]
        m["nodes.total"] += source.prolog is not None
        while todo:
            node, depth = todo.pop()
            m["nodes.total"] += 1
            m["tree.max_depth"] = max(m["tree.max_depth"], depth)
            seen = False
            for child in node.children:
                if child.kind is element:
                    later_siblings += seen
                    seen = True
                    todo.append((child, depth + 1))
                else:
                    m["nodes.total"] += 1
        # the plain emission writes every later element sibling as a
        # sibling token; the encoder demotes some of them to children
        m["encode.sibling.demoted"] += later_siblings - sum(
            tok.kind is lib.PrefixKind.SIBLING for tok in stream.tokens)
    return m


def round_seconds(taken):
    """Seconds of one pass of every path, per round."""
    return [sum(per) for per in zip(*taken.values())]


def layer_seconds(rec, sizes, ndocs):
    """Per size, the median over rounds of each layer's seconds per pass
    over the workload (span time over calls per document)."""
    busy, calls = {}, {}
    for sid, parent, request, name, start, end, _ in rec.spans:
        if name in LAYERS:
            key = (request, name)
            busy[key] = busy.get(key, 0) + (end - start) / 1e9
            calls[key] = calls.get(key, 0) + 1
    out = {}
    for size in set(sizes.values()):
        for name in LAYERS:
            per_round = [busy[(r, name)] / (calls[(r, name)] / ndocs[size])
                         for r, s in sizes.items() if s == size and (r, name) in busy]
            out[(size, name)] = statistics.median(per_round) if per_round else math.nan
    return out


def traced(lib, workload, seed, seconds, tally):
    n = inputs.TRACE_SIZES[workload]
    docs = {size: prepare(lib, workload, seed, size, tally) for size in (n, 2 * n)}
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    untraced = round_seconds(rounds(plain_api(lib), docs[n], seconds / 3, tally)[0])

    rec = Recorder()
    api = traced_api(lib, rec)
    restore = rec.count_calls(lib.DecodeState, "feed")
    sizes, traced_rounds = {}, []
    try:
        while not sizes or time.perf_counter() - started < seconds:
            for size in (n, 2 * n):
                rec.request += 1
                sizes[rec.request] = size
                busy = 0.0
                for p in PATHS:
                    with rec.span(f"sample.{p}"):
                        busy += sample(api, p, docs[size], tally)
                if size == n:
                    traced_rounds.append(busy)
    finally:
        restore()

    ndocs = {size: len(docs[size]) for size in docs}
    layer = layer_seconds(rec, sizes, ndocs)
    metrics = {}
    for name in LAYERS:
        t1, t2 = layer[(n, name)], layer[(2 * n, name)]
        metrics[f"{name}.s"] = (t1, "s")
        metrics[f"{name}.exp"] = (math.log2(t2 / t1) if t1 > 0 else math.nan, "log2")
    feeds = sum(s[6] for s in rec.spans
                if s[3] == "encode.sibling" and sizes[s[2]] == n)
    encodes = sum(1 for s in rec.spans
                  if s[3] == "encode.sibling" and sizes[s[2]] == n)
    counts = describe(lib, docs[n])
    tokens = sum(v for k, v in counts.items() if k.startswith("tokens."))
    metrics["encode.sibling.feeds_per_token"] = (
        feeds / (tokens * encodes / ndocs[n]), "feeds/token")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["trace.overhead"] = (statistics.median(traced_rounds)
                                 / statistics.median(untraced), "ratio")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    rec.dump(spans_file)
    notes = {"sizes": [n, 2 * n], "rounds": len(sizes), "spans": len(rec.spans),
             "spans_file": str(spans_file)}
    return metrics, notes


# ---------------------------------------------------------------------------
# command line

def run_one(workload, seed, seconds, trace):
    lib = load_xstring()
    tally = Tally()
    measure = traced if trace else end_to_end
    metrics, notes = measure(lib, workload, seed, seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{workload:7} {name:36} {value:14.6g} {unit}")
    for key, count in sorted(tally.failures.items()):
        print(f"{workload:7} failure {key} x{count}: {tally.first_error[key]}")
    print(f"{workload:7} notes {json.dumps(notes, sort_keys=True)}")
    result = {"correct": tally.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in its own fresh interpreter, one after another."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if done.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} exited with {done.returncode}")
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
