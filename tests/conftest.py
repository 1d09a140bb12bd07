"""Session setup shared by the test modules.

pyproject.toml turns warnings into errors.  When a property test fails,
hypothesis's reporter imports hypothesis.extra._patching, which imports
libcst, and some libcst and mypy_extensions releases warn on import; as an
error that ends the session with INTERNALERROR before the falsifying
example prints.  Importing the module once here, with that warning
ignored, leaves the reporter nothing to import.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an install without libcst reports without it
        pass


def pytest_make_parametrize_id(config, val, argname):
    # pytest names a StrEnum member by its value ('entity'); an escape
    # mode keeps the id it had while EscapeMode was a plain Enum, so the
    # names of its parametrized tests stay stable
    from xstring import EscapeMode
    if isinstance(val, EscapeMode):
        return f"EscapeMode.{val.name}"
    return None
