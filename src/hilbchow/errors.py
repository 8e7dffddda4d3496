"""Exceptions shared across the toolkit, and the one rule for refusing work.

The CLI maps these to distinct exit codes, so library code should raise
the most specific class that applies.  `require(amount, limit, what)` is
the only place that raises BudgetExceededError (exit 4): it refuses work,
counted before it starts, above MAX_TABLE_WORDS, MAX_ROOT_SCAN or the
enumeration budget: `--budget`, else $BUDGET_ENV, else DEFAULT_BUDGET.
"""

MAX_TABLE_WORDS = 1 << 16  # words, terms, term pairs, entries or law steps built
MAX_ROOT_SCAN = 1 << 20  # elements, divisions or candidates one root search tries
BUDGET_ENV = "HILBCHOW_BUDGET"
DEFAULT_BUDGET = 2 ** 30  # candidate tuples one sweep may test


class ParseError(ValueError):
    "Malformed textual input (polynomials, presentation files, points, ...)."


class PreconditionError(ValueError):
    "An operation was called outside its contract (arity, dimension, cyclicity, ...)."


class SingularMatrixError(PreconditionError):
    "A matrix required to be invertible is singular."


class BudgetExceededError(RuntimeError):
    "Work would exceed a size bound: the enumeration budget or a fixed limit."


def require(amount, limit, what):
    """Refuse work of `amount`, counted before it starts, above `limit`;
    `what` describes it with `{}` where the amount goes."""
    if amount > limit:
        raise BudgetExceededError(
            f"{what.format(amount)}, more than the limit of {limit}")
