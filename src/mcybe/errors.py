"""Exceptions shared across the package."""

import sys


class InputError(ValueError):
    """Malformed or non-conforming input: bad dimensions, bad JSON, bad names."""


class PreconditionError(ValueError):
    """A mathematical precondition failed; the message names a witness."""


class InternalError(RuntimeError):
    """Two independent routes disagreed or a certificate failed: a bug, not bad input."""


def certify(ok, what):
    """Raise InternalError(what) unless ok; unlike assert, it survives python -O."""
    if not ok:
        raise InternalError(what)


def too_long_to_print(exc: ValueError) -> InputError:
    """exc as an InputError when it is the int-to-string digit limit's; else raise exc."""
    if "integer string conversion" not in str(exc):
        raise exc
    return InputError(f"a number has more than {sys.get_int_max_str_digits()} digits to print")
