"""Exception types shared across the kernel.

cli.main exits 2 on ParseError, UnknownName, TooLarge, MissingMap and
MissingEndomorphism (input errors, raised before a check decides anything),
and 1 on every other BihomError.  ShapeMismatch is the one shape fault: maps,
sequences, slots or dimensions that do not fit together.
"""


class BihomError(Exception):
    """Base class for all kernel errors."""


class FieldMismatch(BihomError):
    pass


class ShapeMismatch(BihomError):
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
