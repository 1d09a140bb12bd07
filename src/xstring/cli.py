"""Command line front end.

Commands read from a file argument or stdin and write to --output or
stdout.  Text is read and written as UTF-8 bytes whatever the locale, so
a file argument and stdin read the same, CR and CRLF included.  Encoded
text is written byte-exact, without a trailing newline, since trailing
whitespace would become part of the last payload on the way back in;
XML output gets a newline.  The packed form is refused on a terminal.

A command that reads an encoded string takes its escape mode from the
string: a sentinel-mode stream opens with NUL after any padding, and an
entity-mode stream holds no NUL.  canon, subst and expand write in the
mode they read.  --escape belongs to the commands that write a stream
from something else: encode and stats from XML, unpack from packed bytes,
which do not record the mode.  Its default is entity.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .binary import PackError, pack_envelope, unpack_envelope
from .codec import (DecodeError, EncodeMode, EncodeOptions, Unencodable,
                    decode, emit, encode)
from .errors import XStringError
from .folding import FoldError, FoldMode, fold, unfold
from .grammar import (EscapeMode, TokenizeError, XsDocument, render,
                      stream_escaping, tokenize)
from .metrics import Mismatch, measure
from .transforms import (AlreadyKeyed, NumericNameClash, build_substitution,
                         expand_substitution, to_child_depth)
from .xml_model import (WellFormednessError, XmlSyntaxError,
                        check_well_formed, parse_xml, serialize_xml)

_LABELS = [
    (XmlSyntaxError, "syntax"),
    (WellFormednessError, "wellformedness"),
    (TokenizeError, "tokenize"),
    (DecodeError, "decode"),
    (Unencodable, "encode"),
    (PackError, "pack"),
    (FoldError, "fold"),
    (Mismatch, "measure"),
    ((NumericNameClash, AlreadyKeyed), "substitution"),
]


def _label(err: XStringError) -> str:
    for cls, label in _LABELS:
        if isinstance(err, cls):
            return label
    return "error"


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _read_text(path: str) -> str:
    return _read_bytes(path).decode("utf-8")


def _read_stream(path: str) -> XsDocument:
    """Tokenize an encoded string in the escape mode it is written in."""
    text = _read_text(path)
    return tokenize(text, stream_escaping(text))


def _write(path: str, data: bytes) -> int:
    """Write data to stdout's buffer, for path "-", or to the file."""
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)
    return 0


def _write_text(path: str, text: str, exact: bool = False) -> int:
    if not exact and not text.endswith("\n"):
        text += "\n"
    return _write(path, text.encode("utf-8"))


def _write_bytes(path: str, data: bytes) -> int:
    if path == "-" and sys.stdout.isatty():
        print("refusing to write packed data to a terminal; "
              "use --output or redirect", file=sys.stderr)
        return 2
    return _write(path, data)


def _write_stream(args: argparse.Namespace, doc) -> int:
    text = render(doc)
    if (doc.escaping is EscapeMode.SENTINEL and args.output == "-"
            and sys.stdout.isatty()):
        print("note: sentinel output contains NUL bytes", file=sys.stderr)
    return _write_text(args.output, text, exact=True)


def _options(args: argparse.Namespace) -> EncodeOptions:
    """The encode options the command line asks for."""
    return EncodeOptions(
        mode=args.mode, escaping=EscapeMode(args.escape),
        drop_insignificant_whitespace=not args.keep_whitespace)


def _keyed(args: argparse.Namespace, stream: XsDocument) -> XsDocument:
    """The stream with the substitution --subst-threshold asks for."""
    if args.subst_threshold is None:
        return stream
    return build_substitution(stream, args.subst_threshold)[1]


def _threshold(text: str) -> int:
    # a ValueError would make argparse name this function in its message
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threshold must be an integer, not {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("threshold must be at least 2")
    return value


# -- commands ---------------------------------------------------------------

def cmd_encode(args: argparse.Namespace) -> int:
    doc = parse_xml(_read_text(args.input))
    return _write_stream(args, _keyed(args, encode(doc, _options(args))))


def cmd_decode(args: argparse.Namespace) -> int:
    stream = _read_stream(args.input)
    return _write_text(args.output, serialize_xml(decode(stream)))


def cmd_canon(args: argparse.Namespace) -> int:
    stream = _read_stream(args.input)
    return _write_stream(args, to_child_depth(stream))


def cmd_subst(args: argparse.Namespace) -> int:
    stream = _read_stream(args.input)
    _, out = build_substitution(stream, args.threshold)
    return _write_stream(args, out)


def cmd_expand(args: argparse.Namespace) -> int:
    stream = _read_stream(args.input)
    return _write_stream(args, expand_substitution(stream))


def cmd_pack(args: argparse.Namespace) -> int:
    stream = _read_stream(args.input)
    return _write_bytes(args.output, pack_envelope(stream))


def cmd_unpack(args: argparse.Namespace) -> int:
    stream = unpack_envelope(_read_bytes(args.input), EscapeMode(args.escape))
    return _write_stream(args, stream)


def cmd_fold(args: argparse.Namespace) -> int:
    host = parse_xml(_read_text(args.host))
    inner = parse_xml(_read_text(args.input))
    out = fold(inner, host, args.fold_mode)
    return _write_text(args.output, serialize_xml(out))


def cmd_unfold(args: argparse.Namespace) -> int:
    doc = parse_xml(_read_text(args.input))
    return _write_text(args.output, serialize_xml(unfold(doc, args.index)))


def cmd_stats(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    source = parse_xml(text)
    # measure checks the stream against source, so it is emitted unchecked
    stream = _keyed(args, emit(source, _options(args)))
    report = measure(text, stream, source)
    body = report.as_table() if args.format == "table" else report.as_kv()
    return _write_text(args.output, body)


def cmd_check(args: argparse.Namespace) -> int:
    report = check_well_formed(_read_text(args.input))
    if report.ok:
        return _write_text(args.output, "ok")
    _write_text(args.output, "\n".join(v.line() for v in report.violations))
    return 1


# -- wiring -----------------------------------------------------------------

def _add_escape(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--escape", choices=[mode.value for mode in EscapeMode],
                     default=EscapeMode.ENTITY,
                     help="how structural characters in data are protected "
                          "in the stream written (default %(default)s); "
                          "commands that read a stream take its mode from it")


def _add_encode_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=[m.value for m in EncodeMode],
                     default=EncodeMode.SAFE_SIBLING,
                     help="element emission style (default %(default)s)")
    sub.add_argument("--keep-whitespace", action="store_true",
                     help="encode whitespace-only text nodes too")
    sub.add_argument("--subst-threshold", type=_threshold, default=None,
                     metavar="N",
                     help="replace repeated names of at least N characters "
                          "with keys")
    _add_escape(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xstring",
        description="Convert between XML and its compact string encoding.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        """Register a command that reads input and writes --output, and
        return its parser for the command's own options."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", nargs="?", default="-",
                       help="input file, - for stdin (default)")
        p.add_argument("-o", "--output", default="-",
                       help="output file, - for stdout (default)")
        p.set_defaults(func=func)
        return p

    _add_encode_opts(command("encode", cmd_encode,
                             "XML in, encoded string out"))
    command("decode", cmd_decode, "encoded string in, XML out")
    command("canon", cmd_canon,
            "rewrite a stream to child tokens with depths")
    p = command("subst", cmd_subst, "replace repeated long names with keys")
    p.add_argument("--threshold", type=_threshold, default=8, metavar="N",
                   help="minimum name length to consider "
                        "(default %(default)s)")
    command("expand", cmd_expand, "resolve substitution keys back to names")
    command("pack", cmd_pack, "encoded string in, packed bytes out")
    _add_escape(command("unpack", cmd_unpack,
                        "packed bytes in, encoded string out"))
    p = command("fold", cmd_fold, "store an encoded document in a host's slot")
    p.add_argument("--host", required=True, help="host XML file with the slot")
    p.add_argument("--fold-mode", choices=[m.value for m in FoldMode],
                   default=FoldMode.NESTED,
                   help="slot layout (default %(default)s)")
    p = command("unfold", cmd_unfold, "rebuild the document a slot holds")
    p.add_argument("--index", type=int, default=None,
                   help="layer to rebuild in a multi fold "
                        "(default the outermost)")
    p = command("stats", cmd_stats, "size comparison for an XML document")
    _add_encode_opts(p)
    p.add_argument("--format", choices=["kv", "table"], default="kv",
                   help="output layout (default %(default)s)")
    command("check", cmd_check, "report well-formedness violations")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XStringError as err:
        print(f"{_label(err)}: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away; suppress the noise a closed pipe would
        # cause during interpreter shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, UnicodeDecodeError) as err:
        # a missing or unreadable file, or one that is not UTF-8
        print(f"io: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
