"""Step and node counts: measures of the package's work that do not depend
on the speed of the machine, shared by the linearity and no-tree tests."""

import sys
from pathlib import Path
from typing import Optional

import xstring
from xstring.xml_model import XmlNode


class TooManySteps(AssertionError):
    pass


def lines_run(fn, *args, limit: Optional[int] = None) -> int:
    """Line events in the package's own code while fn runs.

    With a limit, fn is stopped by TooManySteps at the first line past it,
    so a run that would take hours or all memory fails in a moment.
    """
    package = str(Path(xstring.__file__).parent)
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if not frame.f_code.co_filename.startswith(package):
            return None
        lines += event == "line"
        if limit is not None and lines > limit:
            raise TooManySteps(f"{fn.__name__} ran past {limit} lines")
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(before)
    return lines


def nodes_built(monkeypatch, fn) -> int:
    """XmlNode constructions while fn runs."""
    built = 0
    init = XmlNode.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(XmlNode, "__init__", counted)
        fn()
    return built
