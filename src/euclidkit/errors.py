"""Exception types shared across the package, the integer and range checks
every layer validates its arguments with, and how its messages show values."""


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class ResourceLimitError(RuntimeError):
    """A configured step or sieve budget ran out before the answer was found."""


class CertificateMismatchError(ValueError):
    """A supplied certificate does not certify what it claims."""


class HypothesisFailedError(ValueError):
    """A stated arithmetic hypothesis was checked and found false."""


def _integer(value: int, name: str) -> int:
    # bool is an int subclass, but True is not a number any caller means
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def _at_least(value: int, name: str, least: int, caller: str) -> None:
    """Check that value, caller's argument name, is an integer >= least."""
    if _integer(value, name) < least:
        raise DomainError(f"{caller} needs {name} >= {least}, got {_shown(value)}")


def _shown(value) -> str:
    """str(value), or "<n-bit integer>" (signed) for an int with more digits
    than Python converts to a string (sys.get_int_max_str_digits())."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
