"""Exceptions shared across the toolkit.

The CLI maps these to distinct exit codes, so library code should raise
the most specific class that applies.
"""


class ParseError(ValueError):
    "Malformed textual input (polynomials, presentation files, points, ...)."


class PreconditionError(ValueError):
    "An operation was called outside its contract (arity, dimension, cyclicity, ...)."


class SingularMatrixError(PreconditionError):
    "A matrix required to be invertible is singular."


class BudgetExceededError(RuntimeError):
    "Work would exceed a size bound: the enumeration budget or a fixed table limit."
