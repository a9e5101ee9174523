"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was called outside its stated contract."""


class InternalCheckError(AssertionError):
    """A fact that must hold by theorem failed.

    Raised when a lattice operation leaves the family it was built on.
    On validated input this indicates a bug, never a property of the
    algebra, so it is an AssertionError rather than a ValueError.
    """
