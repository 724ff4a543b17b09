"""Exception types shared across the package."""

__all__ = [
    "GoodsubError",
    "DimensionError",
    "RankDeficient",
    "EnumerationCapExceeded",
    "NegativeComponent",
]


class GoodsubError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(GoodsubError, ValueError):
    """An input's shape lies outside an operation's domain."""


class RankDeficient(GoodsubError, ValueError):
    """A matrix failed the numerical full-column-rank test."""


class EnumerationCapExceeded(GoodsubError, ValueError):
    """A subset enumeration or a search's tables would exceed their cap."""


class NegativeComponent(GoodsubError, ValueError):
    """A nonnegative-orthant operation received a negative input."""
