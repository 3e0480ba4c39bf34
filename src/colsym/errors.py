"""Exception types shared across the package, and the check of a count argument."""


class ColsymError(Exception):
    """Base class for errors raised by this package."""


class DomainError(ColsymError):
    """An argument is outside the domain the function is defined on."""


class ResourceLimit(ColsymError):
    """A configured node or tile budget was exceeded mid-computation."""


class InternalError(ColsymError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def check_count(value, name: str, least: int) -> None:
    """Raise DomainError unless value is an int, and not a bool, of at least `least`."""
    if type(value) is not int or value < least:
        raise DomainError(f"{name} must be an integer of at least {least}")
