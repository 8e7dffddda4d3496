"""Exhaustive enumeration over prime fields.

Counts at e_1 only: GL_n(F_q) preserves the relations and is transitive
on nonzero vectors, so the cyclic-pair count is q^n - 1 times the count
at e_1, and every count is invariant under G_1 = Stab(e_1).  So the first
generator walks the Krylov cells N_d (d = dim span(e_1, X e_1, ...)): each
X of dimension d is g Z g^-1 for prod_{d<=i<n} (q^n - q^i) pairs (g, Z) in
G_1 x N_d, so Z stands for w_d = prod_{0<i<d} (q^n - q^i) of them.  Within
a cell, and for every later generator, one tuple is walked per orbit of
the torus diag(1_d, t_(d+1), ..., t_n), which preserves N_d: read row-major,
an off-diagonal entry joining two components of the support must be 0 or
1, and each such 1 (a join) multiplies the weight by q - 1.  Each relation
is tested once the last generator it uses is fixed, and a failing prefix
skips its subtree; one in a later generator alone filters its torus
representatives.  A test sums c (w e_j) mod p one column at a time, up to
a nonzero one, with words applied right to left by mat-vec products; a run
x_k^e is one `mat_pow` when that takes under e/n products.  A d = n cell
is cyclic at e_1, so its leaves skip the word-basis search, and with no
later relation its q^((m-1) n^2) completions count unwalked.  Asserted on
every run: the cell weights sum to q^(n^2), and |GL_n(F_q)| divides the
cyclic-pair count (a free action) with quotient the Hilbert-scheme points.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

from ._tokens import Block, block_text
from .errors import BUDGET_ENV, DEFAULT_BUDGET, ParseError, PreconditionError, require
from .fields import PrimeField, is_prime, lift, parse_int
from .linalg import mat_pow, mat_vec, word_basis


def configured_budget():
    raw = os.environ.get(BUDGET_ENV)
    try:
        return DEFAULT_BUDGET if raw is None else parse_int(raw)
    except ParseError:
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


def _representatives(p, n, choices, comp):
    """(matrix, weight, components after it), one per orbit of the torus
    that fixes the coordinates labelled 0 in `comp`: entry k (row-major) is
    drawn from choices[k], an off-diagonal entry joining two components is
    0 or 1, and each such 1 merges them and multiplies the weight by p - 1."""
    if len(set(comp)) == 1:
        return [(tuple(zip(*[iter(e)] * n)), 1, comp)
                for e in itertools.product(*choices)]
    out = []

    def fill(entries, labels, weight):
        k = len(entries)
        if k == n * n:
            out.append((tuple(zip(*[iter(entries)] * n)), weight, labels))
            return
        x, y = labels[k // n], labels[k % n]
        for a in choices[k]:
            if x == y or not a:
                fill(entries + (a,), labels, weight)
            elif a == 1:
                fill(entries + (1,), tuple(min(x, y) if c in (x, y) else c
                                           for c in labels), weight * (p - 1))

    fill((), comp, 1)
    return out


def first_cells(p, n):
    """(X_1, weight, components after it, d) for the first generator: the
    torus representatives of each Krylov cell N_d, where Z e_i = e_(i+1)
    for i < d, Z e_d lies in span(e_1..e_d) and columns d+1..n are free.
    Coordinates 1..d are pinned to e_1's component, and the weight is the
    torus weight times w_d = prod_{0<i<d} (q^n - q^i)."""
    cells, w = [], 1
    for d in range(1, n + 1):
        choices = [range(p) if c >= d or (c == d - 1 and r < d)
                   else (int(r == c + 1 < d),) for r in range(n) for c in range(n)]
        comp = (0,) * n if p == 2 else (0,) * d + tuple(range(d, n))
        cells += [(mat, w * weight, joined, d) for mat, weight, joined
                  in _representatives(p, n, choices, comp)]
        w *= p ** n - p ** d
    return cells


def _runs(word, n):
    "`word`'s runs right to left: (k, e) if `mat_pow` beats e mat-vecs, else e letters."
    for k, run in itertools.groupby(reversed(word)):
        e = len(list(run))
        whole = e > n * (e.bit_length() + e.bit_count() - 2)  # mat_pow's products
        yield from [(k, e)] if whole else [(k, 1)] * e


def count_range(pres, n, cells):
    """(representation tuples, cyclic pairs) of `pres` over the tuples whose
    first matrix is one of `cells`, a slice of first_cells(q, n), each weighed
    by its cell and torus weight, walked and tested as the module says; the
    pairs are q^n - 1 times the tuples with e_1 cyclic."""
    p, m = pres.field.p, pres.m
    levels, own = [[] for _ in range(m)], [[] for _ in range(m)]
    for rel in pres.relations:
        if rel.terms:
            top = max(max(w, default=0) for w in rel.terms)
            terms = [(list(_runs(w, n)), c) for w, c
                     in zip(rel.terms, lift(pres.field, rel.terms.values())[0])]
            keys = {r for runs, _ in terms for r in runs}
            alone = top and all(k == top for w in rel.terms for k in w)
            (own if alone else levels)[top].append((keys, terms))
    ident = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    free = [range(p)] * (n * n)
    # with X_1 cyclic and no later relation, each completion counts in both
    tail = 0 if any(levels[1:] + own) else p ** ((m - 1) * n * n)
    after = {}  # (level, components) -> the representatives of that generator

    def fails(rels, mats):
        "True when a relation in `rels` has a nonzero column on `mats`."
        for keys, terms in rels:
            power = {(k, e): mat_pow(mats[k], e, p) for k, e in keys}
            seqs = [([power[r] for r in runs] or [ident], c) for runs, c in terms]
            for j in range(n):
                total = [0] * n
                for seq, c in seqs:
                    v = [row[j] for row in seq[0]]
                    for mat in seq[1:]:
                        v = mat_vec(mat, v, p)
                    total = [t + c * a for t, a in zip(total, v)]
                if any(t % p for t in total):
                    return True
        return False

    def walk(mats, comp, cyclic):
        if levels[len(mats) - 1] and fails(levels[len(mats) - 1], mats):
            return 0, 0
        if len(mats) == m:
            return 1, cyclic or (m > 1 and len(word_basis(mats, ident[0], p)) == n)
        if cyclic and tail:
            return tail, tail
        if (len(mats), comp) not in after:
            after[len(mats), comp] = [r for r in _representatives(p, n, free, comp)
                                      if not fails(own[len(mats)], (r[0],) * m)]
        reps = pairs = 0
        for mat, weight, joined in after[len(mats), comp]:
            r, c = walk(mats + (mat,), joined, cyclic)
            reps += weight * r
            pairs += weight * c
        return reps, pairs

    reps = pairs = 0
    for mat, weight, comp, d in cells:
        r, c = walk((mat,), comp, d == n)
        reps += weight * r
        pairs += weight * c
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
    q, m = pres.field.p, pres.m
    # counted a factor q at a time and past the budget's square named as a power
    k = next((k for k in range(m * n * n) if q ** k > max(budget, 1) ** 2), m * n * n)
    shown = "{}" if k == m * n * n else f"{q}^{m * n * n}"
    require(q ** k, budget, f"a sweep would test {shown} candidate tuples")
    started = time.monotonic_ns()
    if workers < 1:
        raise PreconditionError("worker count must be at least 1")
    # the cells' weights count every first matrix once
    cells = first_cells(q, n)
    if sum(cell[1] for cell in cells) != q ** (n * n):
        raise AssertionError(f"cell weights do not sum to q^(n^2) = {q ** (n * n)}")
    # ranges split the cell list; no more processes than ranges or CPUs,
    # since the pool starts them all at once
    workers = min(workers, len(cells), os.cpu_count() or 1)
    if workers == 1:
        reps, pairs = count_range(pres, n, cells)
    else:
        # imported here: loading the pool adds ~40 ms to every `import hilbchow`
        from concurrent.futures import ProcessPoolExecutor
        chunks = _ranges(len(cells), workers)
        reps = pairs = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(count_range, pres, n, cells[a:b])
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
    cuts = [total * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))
