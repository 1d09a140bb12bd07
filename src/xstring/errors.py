"""Shared exception bases for the xstring package."""


class XStringError(Exception):
    """Base class for all typed errors raised by this package."""


class BadArgument(XStringError, ValueError):
    """A caller passed an argument the function does not accept.  It is
    also a ValueError, what Python raises for such an argument, so code
    catching either one sees it."""


class LocatedError(XStringError):
    """An error found at an offset of the input text: offset is that
    offset and reason the message without it."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.reason = message
