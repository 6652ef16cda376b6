"""Exception types shared across the package."""


class FreecommError(Exception):
    """Base class for errors raised by this package."""


class WordError(FreecommError, ValueError):
    """Malformed word: bad letter, bad text syntax, or out-of-range index."""


class RankMismatchError(FreecommError, ValueError):
    """Objects over different ambient ranks were combined."""


class NotInSubgroupError(FreecommError, ValueError):
    """A word was required to lie in a subgroup but does not."""


class InfiniteIndexError(FreecommError, ValueError):
    """An operation that needs finite index was given an infinite-index subgroup."""


class IndexCapError(FreecommError, RuntimeError):
    """A graph construction exceeded the configured vertex cap."""


class WorkLimitError(FreecommError, ValueError):
    """An operation asked for more work than its fixed limit."""


class InvalidIsoError(FreecommError, ValueError):
    """A partial isomorphism failed validation; the message names the check."""


class DocumentError(FreecommError, ValueError):
    """A serialized document is malformed; the message names the violated invariant."""
