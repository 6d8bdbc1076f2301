"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`M4Error` so callers (and
the CLI) can map failures to outcomes without matching on message text.
"""


class M4Error(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(M4Error, ValueError):
    """An operation was called with arguments outside its contract."""


class SpecValidationError(M4Error, ValueError):
    """A weight specification violates non-negativity or sum-to-one."""


class DomainError(M4Error, LookupError):
    """A lattice location lies outside the specification's domain."""


class DegenerateConditioningError(M4Error, ArithmeticError):
    """The conditioning event of a tail-dependence ratio has rate 0."""


class UndefinedConditionalError(M4Error):
    """An empirical conditional was requested but no replicate qualifies."""


class ParseError(M4Error, ValueError):
    """A file (spec JSON, sample CSV, station CSV) failed to parse."""


class UnknownStationError(M4Error, KeyError):
    """A station name does not resolve against the dataset."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it
