"""Step counts: a measure of the package's work that does not depend on
the speed of the machine, shared by the linearity tests."""

import sys
from pathlib import Path
from typing import Optional

import xstring


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
