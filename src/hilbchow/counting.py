"""Exhaustive enumeration over prime fields.

Walks the m-tuples of n x n matrices over F_q one generator at a time, one
tuple per orbit of the torus T = {diag(1, d_2, ..., d_n)}, which fixes e_1
and the relations, so an orbit counts as its size times its representative.
Entries are read generator-major, then row-major: an off-diagonal entry
that joins two components of the support read so far must be 0 or 1, and
each such 1 (a join) multiplies the weight by q - 1.  Each relation is
tested as soon as the last generator it uses is fixed (a constant
relation, or one in x1 alone, once per first matrix), and a failing prefix
skips its whole subtree.  Cyclicity is tested at e_1 only: GL_n(F_q)
preserves the relations and is transitive on nonzero vectors, so the
cyclic-pair count is q^n - 1 times the count at e_1.  Tuples are plain int
rows run through `linalg`'s kernels: word products over Z, reduced mod p
where a relation entry is tested, and the breadth-first word basis on a
span that works mod p.  |GL_n(F_q)| must divide the cyclic-pair count
exactly (the action on cyclic pairs is free); the quotient is the number
of Hilbert-scheme points.  The budget still counts all q^(m n^2) tuples.
Worker ranges split the index of the first matrix, so per-range counts
merge by addition and the report is the same for any worker count.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from operator import itemgetter

from ._tokens import Block, block_text
from .errors import ParseError, PreconditionError, require
from .fields import PrimeField, is_prime, lift
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


def _matrices(q, n, start=0, stop=None):
    """The entry digits, row-major, of the n x n matrices over F_q with
    index in [start, stop), in the order of those digits."""
    return itertools.islice(itertools.product(range(q), repeat=n * n),
                            start, stop)


def count_range(pres_text, n, start, stop):
    """(representation tuples, cyclic pairs) over the tuples whose first
    matrix has an index in [start, stop).  One tuple is walked per orbit of
    diag(1, d_2, ..., d_n) and weighs (q - 1)^joins, the orbit size.  Each
    relation is tested once the last generator it uses is fixed, and a
    failing prefix skips its subtree; the pairs are q^n - 1 times the
    tuples for which e_1 is cyclic."""
    pres = AlgebraPresentation.from_text(pres_text)
    p, m = pres.field.p, pres.m
    levels = [[] for _ in range(m)]
    for rel in pres.relations:
        if rel.terms:
            levels[max(max(w, default=0) for w in rel.terms)].append(
                list(zip(rel.terms, lift(pres.field, rel.terms.values())[0])))
    identity = Matrix.identity(n, 1).rows
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    off_digits = itemgetter(*[i * n + j for i, j in off]) if n > 1 else None
    later = list(_matrices(p, n)) if m > 1 else []
    after = {}  # components -> the representatives among `later`

    def representatives(digits, comp):
        "(matrix, weight, components after it) for the orbit representatives"
        if len(set(comp)) == 1:
            return [(tuple(zip(*[iter(d)] * n)), 1, comp) for d in digits]
        taken = {}  # off-diagonal entries -> (weight, components after)
        for entries in itertools.product(range(p), repeat=len(off)):
            labels, weight = comp, 1
            for (i, j), a in zip(off, entries):
                x, y = labels[i], labels[j]
                if a and x != y:
                    if a != 1:
                        break
                    weight *= p - 1
                    labels = tuple(min(x, y) if c in (x, y) else c for c in labels)
            else:
                taken[entries] = weight, labels
        return [(tuple(zip(*[iter(d)] * n)), *taken[key]) for d in digits
                if (key := off_digits(d)) in taken]

    def walk(mats, comp):
        memo = {(): identity}
        if mats and any(a % p for terms in levels[len(mats) - 1]
                        for row in word_sum(terms, mats, memo) for a in row):
            return 0, 0
        if len(mats) == m:
            return 1, len(word_basis(mats, identity[0], p)) == n
        if not mats:
            cands = representatives(_matrices(p, n, start, stop), comp)
        elif comp in after:
            cands = after[comp]
        else:
            cands = after[comp] = representatives(later, comp)
        reps = pairs = 0
        for mat, weight, joined in cands:
            r, c = walk(mats + (mat,), joined)
            reps += weight * r
            pairs += weight * c
        return reps, pairs

    # the torus is trivial for q = 2 or n = 1: start from one component
    reps, pairs = walk((), tuple(range(n)) if p > 2 else (0,) * n)
    return reps, pairs * (p ** n - 1)


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
    require(q ** (m * n * n), budget, "a sweep would test {} candidate tuples")
    started = time.monotonic_ns()
    pres_text = pres.to_text()
    if workers < 1:
        raise PreconditionError("worker count must be at least 1")
    # ranges split the first matrix; no more processes than ranges or CPUs,
    # since the pool starts them all at once
    firsts = q ** (n * n)
    workers = min(workers, firsts, os.cpu_count() or 1)
    if workers == 1:
        reps, pairs = count_range(pres_text, n, 0, firsts)
    else:
        # imported here: loading the pool adds ~40 ms to every `import hilbchow`
        from concurrent.futures import ProcessPoolExecutor
        chunks = _ranges(firsts, workers)
        reps = pairs = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(count_range, pres_text, n, a, b)
                       for a, b in chunks]
            for fut in futures:
                r, c = fut.result()
                reps += r
                pairs += c
    # freeness: the stabiliser of e_1, of order |GL_n| / (q^n - 1), must
    # divide the count at e_1
    order = gl_order(n, q)
    if pairs % order:
        raise AssertionError(
            f"freeness violated: |GL| = {order} does not divide {pairs}")
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    return EnumerationReport(q, n, m, reps, pairs, order, pairs // order,
                             elapsed_ms)


def _ranges(total, parts):
    "Contiguous index ranges, split as evenly as they go."
    base, extra = divmod(total, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out
