"""Exception classes shared across the package, and how their messages quote a value.

The command line front end maps these onto its exit codes, so library code
should raise the most specific one that applies.  A refusal that quotes a
caller's or a document's value shows it through _shown, bounded in length.
"""
import reprlib

__all__ = ["DimensionError", "DomainError", "FormatError"]


class FormatError(ValueError):
    """Input text is not valid JSON or does not match the expected schema."""


class DimensionError(ValueError):
    """Array shapes, state lengths or representation labels are inconsistent."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of the operation."""


class _Bounded(reprlib.Repr):
    """reprlib's repr, which shows an integer too long for str, at any depth, by its bit length."""

    def repr_int(self, x, level):
        if x.bit_length() > 14000:  # Python's str refuses integers past 4300 digits
            return f"an integer of {x.bit_length()} bits"
        return super().repr_int(x, level)


def _shown(value) -> str:
    """A value as a message shows it: reprlib's repr, bounded in length and nesting depth."""
    return _Bounded().repr(value)
