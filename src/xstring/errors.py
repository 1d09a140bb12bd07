"""Shared exception bases for the xstring package."""


class XStringError(Exception):
    """Base class for all typed errors raised by this package."""


class BadArgument(XStringError, ValueError):
    """A caller passed an argument the function does not accept.  It is
    also a ValueError, what Python raises for such an argument, so code
    catching either one sees it."""
