"""Shared exception types.

The CLI maps these onto exit codes, so the rest of the package should
raise them (or plain ValueError for malformed data) rather than ad-hoc
exceptions.
"""


class Immutable:
    """A value whose attributes, once set by object.__setattr__, stay."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class MazelabError(Exception):
    pass


class ParseError(MazelabError):
    """Malformed serialized input."""


class DomainMismatchError(MazelabError):
    """Arrows are not composable, or endpoints disagree."""


class EnumerationLimitError(MazelabError):
    """An enumeration would exceed the configured guard."""


class IntegralityError(MazelabError):
    """An internal integrality guarantee failed; indicates a bug."""


class ShapeMismatchError(MazelabError):
    """Matrix or block shapes do not line up."""
