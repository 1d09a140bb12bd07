"""Shared exception bases for the xstring package."""


class XStringError(Exception):
    """Base class for all typed errors raised by this package."""


class BadArgument(XStringError, ValueError):
    """A caller passed an argument the function does not accept.  It is
    also a ValueError, what Python raises for such an argument, so code
    catching either one sees it."""


def check_int(what: str, value: object) -> None:
    """Refuse value, named what in the message, unless it is an int.
    Checked by type: a bool is an int and True equals 1, but no count."""
    if type(value) is bool or not isinstance(value, int):
        raise BadArgument(f"{what} {value!r} is not an int")


class LocatedError(XStringError):
    """An error found at an offset of the input text: offset is that
    offset and reason the message without it."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.reason = message
