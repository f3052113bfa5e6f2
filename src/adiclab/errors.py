"""Exception types shared across the library."""


class AdiclabError(Exception):
    """Base class for all library errors."""


class MissingBit(AdiclabError):
    """An explicit ordering table was queried beyond its stated level bound."""


class RankOutOfRange(AdiclabError):
    """Requested rank is not in [0, C(x+y, x))."""


class MaximalPrefix(AdiclabError):
    """The prefix is maximal in its column; the caller must deepen or stop."""


class MinimalPrefix(AdiclabError):
    """The prefix is minimal in its column; no predecessor at this truncation."""


class WindowEscapesColumn(AdiclabError):
    """An orbit window leaves the column of the given prefix; deepen and retry."""


class KinkPreconditionFailed(AdiclabError):
    """Path does not end in the interior kink configuration."""


class LevelBelowK(AdiclabError):
    """Requested factorization level is below the coding length k."""


class SizeCap(AdiclabError):
    """An enumeration would exceed the configured size budget."""


class CapExceeded(AdiclabError):
    """A saturation cap or deepening cap was exceeded."""


class BoundExceeded(AdiclabError):
    """A configured numeric bound was exceeded."""


class ParseError(AdiclabError):
    """Input word is not a restricted-ordering basic block.

    `position` is the character index at which parsing failed.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


class InconsistentLengths(AdiclabError):
    """A decode split boundary falls mid-token or lengths disagree."""


class BlockMemoryCap(AdiclabError):
    """The basic-block memo would exceed its memory budget."""


class MalformedInput(AdiclabError):
    """A JSON input file lacks a field its command reads, or a field has
    the wrong type or shape."""


class InvalidPeriodWord(AdiclabError):
    """Candidate period word must use both letters."""
