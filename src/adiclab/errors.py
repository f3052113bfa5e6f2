"""Exception types shared across the library."""


class AdiclabError(Exception):
    """Base class for all library errors."""


class InputError(AdiclabError):
    """An unreadable or malformed input file or field, a block below the
    coding level k, or an explicit ordering queried past its level bound."""


class ResourceCap(AdiclabError):
    """A size, memory, saturation or numeric budget would be exceeded."""


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


class ParseError(AdiclabError):
    """Input word is not a restricted-ordering basic block.

    `position` is the character index at which parsing failed, None when
    the failure is a length that disagrees with the vertex.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


class InvalidPeriodWord(AdiclabError):
    """Candidate period word must use both letters."""
