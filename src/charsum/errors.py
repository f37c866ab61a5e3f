"""Shared exception types, and the work budget they enforce."""

# default cap on enumerated cells, summed lines and sieved integers
DEFAULT_BUDGET = 10 ** 9


class CharsumError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(CharsumError):
    """An enumeration or transform would exceed its configured work cap."""


class BadPrimeError(CharsumError):
    """Reduction modulo p is undefined (p divides a denominator or a
    required leading coefficient)."""


class ParseError(CharsumError):
    """Syntax error in a polynomial expression; carries the byte offset."""

    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position
