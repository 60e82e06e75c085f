"""Exception types shared across the package."""


class SpintableError(Exception):
    """Base class for errors raised by this package."""


class CapExceeded(SpintableError):
    """A configured resource cap (state count, strategy length) was exceeded."""


class UnsolvableSpec(SpintableError):
    """Synthesis was requested for a game the player cannot win."""


class SolvableSpec(SpintableError):
    """Refutation was requested for a game the player can win."""
