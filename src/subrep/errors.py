"""Exception hierarchy shared across the library."""


class SubrepError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SubrepError):
    """Malformed textual input (poset files, ordinal/pinboard syntax)."""


class UnknownElement(SubrepError):
    """An element identifier does not belong to the poset at hand."""


class CycleDetected(SubrepError):
    """The transitive closure of the given relation would not be irreflexive."""


class EmptyPoset(SubrepError):
    """The operation needs at least one element."""


class TooLarge(SubrepError):
    """Input exceeds the guard size of an exhaustive operation."""


class NotSubRepresentable(SubrepError):
    """A witnessing map was requested for a poset that has none."""


class PartialMap(SubrepError):
    """A candidate map is undefined on some nonempty subset, or sends one outside them."""


class InvalidDescriptor(SubrepError):
    """A symbolic poset descriptor violates its invariants."""


class BetaExceedsAlpha(SubrepError):
    """A segment of order type beta was requested from a shorter ordinal."""


class InvalidPinboard(SubrepError):
    """A pinboard pair list violates the pinboard invariants."""


class InfinitePinboard(SubrepError):
    """Explicit expansion was requested for a pinboard with infinite entries."""


class DoesNotFit(SubrepError):
    """A subset description does not fit inside its host pinboard."""


class HostMismatch(SubrepError):
    """Two pinboard subsets from different hosts cannot be compared."""
