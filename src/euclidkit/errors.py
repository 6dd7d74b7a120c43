"""Exception types shared across the package, and the integer check every
layer validates its arguments with."""


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
