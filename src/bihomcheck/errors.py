"""Exception types shared across the kernel."""


class BihomError(Exception):
    """Base class for all kernel errors."""


class FieldMismatch(BihomError):
    pass


class DimensionMismatch(BihomError):
    pass


class NotSquare(BihomError):
    pass


class RowLengthMismatch(BihomError):
    pass


class LengthMismatch(BihomError):
    pass


class ShapeMismatch(BihomError):
    pass


class SlotOutOfRange(BihomError):
    pass


class MissingEndomorphism(BihomError):
    pass


class MissingMap(BihomError):
    pass


class MixedStructures(BihomError):
    pass


class InvariantViolation(BihomError):
    pass


class NotInvertible(BihomError):
    pass


class ParseError(BihomError):
    pass


class UnknownName(BihomError):
    pass


class TooLarge(BihomError):
    """A dense map past exactlin.ENTRY_BUDGET entries was asked for."""
