"""Exception types shared across the package."""


class TreecubeError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphParseError(TreecubeError):
    """Malformed graph, deck, or graph6 input.

    Carries the 1-based line number (and optionally a column offset) of the
    offending input when known.
    """

    def __init__(self, message, line=None, offset=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", offset {offset}" if offset is not None else "") + ")"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.offset = offset


class DisconnectedError(TreecubeError):
    """An operation that needs mutually reachable vertices hit an unreachable pair."""


class NotATreeError(TreecubeError):
    """A graph required to satisfy the tree invariant does not."""


class NotACubeError(TreecubeError):
    """The input graph is not the third power of any tree."""


class AmbiguousStructureError(TreecubeError):
    """The cube is complete, so its clique structure does not determine a unique root."""


class OrderTooSmallError(TreecubeError):
    """Reconstruction requires decks of order at least 3."""


class EnumerationLimitError(TreecubeError):
    """Requested tree order exceeds the enumeration safety cap."""
