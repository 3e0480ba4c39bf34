"""Exception types shared across the package."""


class ColsymError(Exception):
    """Base class for errors raised by this package."""


class DomainError(ColsymError):
    """An argument is outside the domain the function is defined on."""


class ResourceLimit(ColsymError):
    """A configured node or tile budget was exceeded mid-computation."""


class MergeInconsistency(ColsymError):
    """A merged polygon received two different colours.

    Raised when a colouring is requested for a subgroup that does not
    actually contain the stabilizer words of the polygon being merged.
    """


class CacheError(ColsymError):
    """Cache directory problems (unwritable, wrong permissions, ...)."""


class ParseError(ColsymError):
    """Serialized data did not round-trip (corrupt or foreign file)."""


class InternalError(ColsymError):
    """An internal cross-check failed; indicates a bug, not bad input."""
