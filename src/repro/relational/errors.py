"""Exceptions raised by the relational substrate."""


class RelationalError(Exception):
    """Base class for all errors raised by the relational substrate."""


class SchemaError(RelationalError):
    """Raised when an operation references columns that do not exist or
    when column definitions are inconsistent (duplicate names, mismatched
    lengths, incompatible types)."""


class TypeMismatchError(RelationalError):
    """Raised when a value is inserted into or compared against a column
    of an incompatible type."""

