"""Exceptions shared across the package."""


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
