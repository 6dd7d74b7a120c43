"""Exception types shared across the package, the integer and range checks
every layer validates its arguments with, and how messages and reports show
values."""


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


def _items(values, caller: str) -> tuple:
    """values as a tuple (a tuple itself, uncopied); DomainError when it is
    not iterable at all."""
    try:
        iter(values)
    except TypeError:
        raise DomainError(f"{caller} needs a sequence, got {type(values).__name__}") from None
    return tuple(values)


def _at_least(value: int, name: str, least: int, caller: str) -> None:
    """Check that value, caller's argument name, is an integer >= least."""
    if _integer(value, name) < least:
        raise DomainError(f"{caller} needs {name} >= {least}, got {_shown(value)}")


def _budget(budget: int | None, default: int, caller: str) -> int:
    """The budget caller was given, default when it is None; anything else
    must be an integer >= 0."""
    if budget is None:
        return default
    _at_least(budget, "budget", 0, caller)
    return budget


def _within(value: int, budget: int | None, default: int, caller: str, bound: str) -> int:
    """The budget (as _budget gives it), once value, caller's limit, is
    checked not to exceed it; ResourceLimitError names the bound otherwise."""
    budget = _budget(budget, default, caller)
    if value > budget:
        raise ResourceLimitError(f"{caller}({_shown(value)}): {bound} is {budget}")
    return budget


def _shown(value) -> str:
    """str(value), or "<n-bit integer>" (signed) for an int with more digits
    than Python converts to a string (sys.get_int_max_str_digits())."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def rational_str(value) -> str:
    """A rational (a fractions.Fraction, which keeps itself reduced with a
    positive denominator) as "num/den", the denominator always explicit,
    each shown as _shown shows an int."""
    return f"{_shown(value.numerator)}/{_shown(value.denominator)}"
