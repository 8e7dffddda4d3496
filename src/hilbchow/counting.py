"""Exhaustive enumeration over prime fields.

Iterates every m-tuple of n x n matrices over F_q, filters by the
relations, and counts cyclic vectors.  Tuples are plain int rows run
through `linalg`'s kernels: word products over Z, reduced mod p where a
relation entry is tested, and the breadth-first word basis on a span
that works mod p.  The group order of GL_n(F_q)
must divide the cyclic-pair count exactly (the action on cyclic pairs
is free); the quotient is the number of Hilbert-scheme points.  The
tuple space is split into contiguous index ranges ("prefix" blocks of
the entry digits), so per-range counts merge by addition and the report
is identical for any worker count.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

from ._tokens import Block, block_text
from .errors import BudgetExceededError, ParseError, PreconditionError
from .fields import PrimeField, is_prime
from .linalg import Matrix, word_basis, word_sum
from .repvariety import AlgebraPresentation

BUDGET_ENV = "HILBCHOW_BUDGET"
DEFAULT_BUDGET = 2 ** 30


def configured_budget():
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad {BUDGET_ENV} value {raw!r}") from None


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i) for prime q."""
    if not (isinstance(q, int) and is_prime(q)):
        raise PreconditionError(f"{q} is not prime (prime powers are excluded)")
    total = 1
    qn = q ** n
    for i in range(n):
        total *= qn - q ** i
    return total


# the report's `key <int>` lines, in field order
_REPORT_KEYS = ("q", "n", "m", "rep-points", "cyclic-pairs", "gl-order",
                "orbit-count", "elapsed-ms")


@dataclass(frozen=True)
class EnumerationReport:
    """Counts from one full sweep of the tuple space.

    Equality ignores the elapsed time, so reports are comparable across
    runs and worker counts.
    """

    q: int
    n: int
    m: int
    total_rep_points: int
    total_cyclic_pairs: int
    gl_order: int
    orbit_count: int
    elapsed_ms: int = field(compare=False)

    def to_text(self, include_elapsed=True):
        values = (self.q, self.n, self.m, self.total_rep_points,
                  self.total_cyclic_pairs, self.gl_order, self.orbit_count,
                  self.elapsed_ms)
        keys = _REPORT_KEYS if include_elapsed else _REPORT_KEYS[:-1]
        return block_text("enumeration-report", None, dict(zip(keys, values)), [])

    @classmethod
    def from_text(cls, text):
        block = Block(text, "enumeration-report", field=False)
        vals = [block.int_line(key) for key in _REPORT_KEYS[:-1]]
        elapsed = 0 if block.done() else block.int_line("elapsed-ms")
        return cls(*vals, elapsed)


def _decode_tuple(index, q, m, n):
    """The m matrices (tuples of rows) whose entries are the mixed-radix
    digits of index, row-major per matrix; index 0 is all zeros."""
    digits = []
    for _ in range(m * n * n):
        digits.append(index % q)
        index //= q
    digits.reverse()
    rows = zip(*[iter(digits)] * n)
    return tuple(zip(*[rows] * n))


def count_range(pres_text, n, start, stop):
    """(representation tuples, cyclic pairs) for a contiguous index range."""
    pres = AlgebraPresentation.from_text(pres_text)
    p, m = pres.field.p, pres.m
    relations = [[(w, c.v) for w, c in rel.terms.items()]
                 for rel in pres.relations if rel.terms]
    identity = Matrix.identity(n, 1).rows
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    reps = pairs = 0
    for index in range(start, stop):
        mats = _decode_tuple(index, p, m, n)
        memo = {(): identity}
        if any(a % p for terms in relations
               for row in word_sum(terms, mats, memo) for a in row):
            continue
        reps += 1
        pairs += sum(len(word_basis(mats, v, p)) == n for v in vectors)
    return reps, pairs


def enumerate_points(pres, n, budget=None, workers=1):
    """Full sweep over all m-tuples of n x n matrices over F_q.

    Requires a prime field and q^(m n^2) candidate tuples within budget.
    The divisibility of the cyclic-pair count by |GL_n| is asserted on
    every run, not assumed.
    """
    if budget is None:
        budget = configured_budget()
    if not isinstance(pres.field, PrimeField):
        raise PreconditionError("enumeration needs a prime field presentation")
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    q = pres.field.p
    m = pres.m
    candidates = q ** (m * n * n)
    if candidates > budget:
        raise BudgetExceededError(
            f"{candidates} candidate tuples exceed budget {budget}")
    started = time.monotonic_ns()
    pres_text = pres.to_text()
    if workers < 1:
        raise PreconditionError("worker count must be at least 1")
    # no more processes than ranges or CPUs: the pool starts them all at once
    workers = min(workers, candidates, os.cpu_count() or 1)
    if workers == 1:
        reps, pairs = count_range(pres_text, n, 0, candidates)
    else:
        # imported here: loading the pool adds ~40 ms to every `import hilbchow`
        from concurrent.futures import ProcessPoolExecutor
        chunks = _ranges(candidates, workers)
        reps = pairs = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(count_range, pres_text, n, a, b)
                       for a, b in chunks]
            for fut in futures:
                r, c = fut.result()
                reps += r
                pairs += c
    order = gl_order(n, q)
    if pairs % order:
        raise AssertionError(
            f"freeness violated: |GL| = {order} does not divide {pairs}")
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    return EnumerationReport(q, n, m, reps, pairs, order, pairs // order,
                             elapsed_ms)


def _ranges(total, parts):
    "Contiguous index ranges (prefix blocks of the digit encoding)."
    base, extra = divmod(total, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out
