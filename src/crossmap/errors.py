"""Exception hierarchy shared across the package.

Each class names the exit code of the ``crossmap`` command that it ends:
2 (a usage error) unless it says otherwise.
"""


class CrossmapError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DuplicateElement(CrossmapError):
    """An element appears twice among the blocks of a partition."""


class OutOfRange(CrossmapError):
    """An integer argument lies outside its documented range."""


class EmptyBlock(CrossmapError):
    """A block with no elements was supplied."""


class InvalidK(CrossmapError):
    """The crossing/nesting order k is out of range."""


class TooManyArcs(CrossmapError):
    """The brute-force oracle refuses arc sets this large."""


class NotFull(CrossmapError):
    """The reverse map requires a partition with no absent elements."""


class OutOfBudget(CrossmapError):
    """A counting job exceeds the enumeration budget or the bitmap memory cap."""

    exit_code = 3


class Overflow(CrossmapError):
    """An exact count left the signed 64-bit range."""

    exit_code = 3


class UnknownId(CrossmapError):
    """No reference sequence with this OEIS identifier."""


class NetworkError(CrossmapError):
    """A b-file download failed and no cached copy exists."""

    exit_code = 4


class ParseError(CrossmapError):
    """Text does not parse: a b-file line that does not match `index value`,
    or partition text rejected by ``parse_text``."""


class NoOverlap(CrossmapError):
    """A sequence comparison has no indices in common."""
