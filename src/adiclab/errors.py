"""Exception types shared across the library.

An argument outside a function's domain is a plain `ValueError`; the
classes here are one per way a caller reacts.
"""


class AdiclabError(Exception):
    """Base class for the library's own failures: a bad input, a resource
    cap, a parse failure and a path at its column's end."""


class InputError(AdiclabError):
    """An unreadable or malformed input file or field, a block below the
    coding level k, or an explicit ordering queried past its level bound."""


class ResourceCap(AdiclabError):
    """A size, memory, saturation or numeric budget would be exceeded."""


class ColumnEnd(AdiclabError):
    """A finite prefix has no successor, predecessor or orbit window in its
    column; deepen the prefix and retry."""


class ParseError(AdiclabError):
    """Input word is not a restricted-ordering basic block.

    `position` is the character index at which parsing failed, None when
    the failure is a length that disagrees with the vertex.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position
