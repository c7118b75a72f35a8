"""Exception classes shared across the package.

The command line front end maps these onto its exit codes, so library code
should raise the most specific one that applies.
"""

__all__ = ["DimensionError", "DomainError", "FormatError"]


class FormatError(ValueError):
    """Input text is not valid JSON or does not match the expected schema."""


class DimensionError(ValueError):
    """Array shapes, state lengths or representation labels are inconsistent."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of the operation."""
