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
representatives.  Vectors are int codes in [0, q^n), and each walked
matrix, and the `mat_pow` of a run x_k^e that takes under e/n products,
memoises its images by code while it is walked (X_1 across its
completions, a later generator's representatives for the whole range), so
a word on e_j is a chain of lookups.  A test sums c (w e_j) one column at
a time, up to a nonzero one, on codes: s + a v is s XOR v over F_2, else a
lookup in a memo filled per (s, a, v).  A relation in x_1 alone, a
polynomial in X_1, kills span(e_1, X_1 e_1, ...) = span(e_1..e_d) on N_d
once it kills e_1, so it is tested on e_1 and e_(d+1..n) only.  A d = n
cell is cyclic at e_1, so its leaves skip the cyclicity test, and with no
later relation its q^((m-1) n^2) completions count unwalked.  Below d = n
the test is `word_basis`'s search on the set of codes in the span: from
span(e_1..e_d), the codes below q^d, it grows by s + F_p v for each new
image v, and e_1 is cyclic once it holds q^n codes.  Asserted on every run
(the cells stream): the cell weights sum to q^(n^2), and |GL_n(F_q)|
divides the cyclic-pair count (a free action) with quotient the
Hilbert-scheme points.
"""

from __future__ import annotations

import itertools
import os
import time
from functools import cache
from operator import mul

from ._tokens import Block, Record, block_text
from .errors import BUDGET_ENV, DEFAULT_BUDGET, ParseError, PreconditionError, require
from .fields import PrimeField, is_prime, lift, parse_int
from .linalg import mat_pow


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


class EnumerationReport(Record):
    """Counts from one full sweep of the tuple space.

    Equality ignores the elapsed time, so reports are comparable across
    runs and worker counts.
    """

    __slots__ = ("q", "n", "m", "total_rep_points", "total_cyclic_pairs", "gl_order",
                 "orbit_count", "elapsed_ms")
    _uncompared = 1

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
        block.end()
        return cls(*vals, elapsed)


def _representatives(p, n, choices, comp):
    """(matrix, weight, components after it), one per orbit of the torus
    that fixes the coordinates labelled 0 in `comp`: entry k (row-major) is
    drawn from choices[k], an off-diagonal entry joining two components is
    0 or 1, and each such 1 merges them and multiplies the weight by p - 1."""
    if len(set(comp)) == 1:
        rows = [itertools.product(*choices[i:i + n]) for i in range(0, n * n, n)]
        return ((mat, 1, comp) for mat in itertools.product(*rows))
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
    w = 1
    for d in range(1, n + 1):
        choices = [range(p) if c >= d or (c == d - 1 and r < d)
                   else (int(r == c + 1 < d),) for r in range(n) for c in range(n)]
        comp = (0,) * n if p == 2 else (0,) * d + tuple(range(d, n))
        for mat, weight, joined in _representatives(p, n, choices, comp):
            yield mat, w * weight, joined, d
        w *= p ** n - p ** d


def _runs(word, n):
    """`word`'s runs right to left: (k, e) if `mat_pow` beats e mat-vecs, else
    e letters.  Runs act on vectors here, so unlike `linalg.word_product`,
    which multiplies matrices, a run is not always powered."""
    for k, run in itertools.groupby(reversed(word)):
        e = len(list(run))
        whole = e > n * (e.bit_length() + e.bit_count() - 2)  # mat_pow's products
        yield from [(k, e)] if whole else [(k, 1)] * e


def _code(vec, p, digits):
    "The code of `vec`, a vector over F_p, recorded in `digits` for decoding."
    out = 0
    for a in reversed(vec):
        out = out * p + a
    digits[out] = vec
    return out


class _Images(dict):
    """Memoised images of one matrix over F_p on vector codes: code -> code
    of its image, computed on the first lookup of a code.  A vector v is the
    code sum v_i p^(i-1), and `digits`, shared by the memos of one
    `count_range` call, decodes a code to its vector."""

    __slots__ = ("mat", "p", "digits")

    def __init__(self, mat, p, digits):
        self.mat, self.p, self.digits = mat, p, digits

    def __missing__(self, code):
        v = self.digits[code]
        self[code] = out = _code([sum(map(mul, row, v)) % self.p for row in self.mat],
                                 self.p, self.digits)
        return out


def count_range(pres, n, cells):
    """(representation tuples, cyclic pairs) of `pres` over the tuples whose
    first matrix is one of `cells`, an iterable slice of first_cells(q, n),
    each weighed by its cell and torus weight, walked and tested as the
    module says; the pairs are q^n - 1 times the tuples with e_1 cyclic."""
    p, m = pres.field.p, pres.m
    levels, own = [[] for _ in range(m)], [[] for _ in range(m)]
    powers = set()  # (k, e) for the runs x_k^e taken as powers
    for rel in pres.relations:
        if rel.terms:
            top = max(max(w, default=0) for w in rel.terms)
            terms = [(list(_runs(w, n)), c) for w, c
                     in zip(rel.terms, lift(pres.field, rel.terms.values())[0])]
            powers |= {(k, e) for runs, _ in terms for k, e in runs if e > 1}
            alone = top and all(k == top for w in rel.terms for k in w)
            (own if alone else levels)[top].append(terms)
    unit, whole = [p ** j for j in range(n)], p ** n  # the codes of e_1..e_n; q^n
    # code -> vector: 0, e_1..e_n, each image and sum met, and for spans over
    # p > 2 their seeds span(e_1..e_d), the codes below q^d, d < n
    digits = {c: [c // u % p for u in unit]
              for c in itertools.chain(range(p ** (n - 1) if m > 1 and p > 2 else 1), unit)}
    free = [range(p)] * (n * n)
    # with X_1 cyclic and no later relation, each completion counts in both
    tail = 0 if any(levels[1:] + own) else p ** ((m - 1) * n * n)
    # by cell dimension d, the columns a relation in X_1 alone is tested on
    cell_cols = [unit[:1] + unit[d:] for d in range(n + 1)]
    read = levels[0] or m > 1  # whether anything reads X_1's tables
    after = {}  # (level, components) -> the representatives of that generator

    def axpy(s, a, v):
        "The code of s + a v, for codes s and v."
        return _code([(x + a * y) % p for x, y in zip(digits[s], digits[v])], p, digits)

    # over F_2 a sum of codes is their XOR; otherwise relation sums memoise
    # s + a v by (s, a, v), and spans the shifts s + a v, a = 1..p-1, by (s, v)
    sums = cache(axpy) if p > 2 and pres.relations else None
    shifts = cache(lambda s, v: [axpy(s, a, v) for a in range(1, p)]) if p > 2 and m > 1 else None

    def images(mat, k):
        "Generator k's matrix as the image tables of its runs' powers."
        tables = {1: _Images(mat, p, digits)}
        for j, e in powers:
            if j == k:
                tables[e] = _Images(mat_pow(mat, e, p), p, digits)
        return tables

    def fails(rels, mats, cols):
        "True when a relation in `rels` has a nonzero column, coded in `cols`, on `mats`."
        for terms in rels:
            for j in cols:
                total = 0
                for runs, c in terms:
                    code = j
                    for k, e in runs:
                        code = mats[k][e][code]
                    total = (total ^ code if p == 2 else code if not total and c == 1
                             else sums(total, c, code))
                if total:
                    return True
        return False

    def spans(mats, d):
        """True when e_1 is cyclic: `word_basis`'s breadth-first search on the
        set of codes in the span, from the cell's span(e_1..e_d), which X_1
        preserves, so the first level skips X_1."""
        span, level, gens = set(range(p ** d)), unit[:d], mats[1:]
        while level:
            new = []
            for imgs in gens:
                for image in map(imgs[1].__getitem__, level):
                    if image not in span:
                        span.update([s ^ image for s in span] if p == 2 else
                                    [t for s in span for t in shifts(s, image)])
                        if len(span) == whole:
                            return True
                        new.append(image)
            level, gens = new, mats
        return False

    def walk(mats, comp, d):
        rels = levels[len(mats) - 1]
        if rels and fails(rels, mats, cell_cols[d] if len(mats) == 1 else unit):
            return 0, 0
        if len(mats) == m:
            return 1, d == n or (m > 1 and spans(mats, d))
        if d == n and tail:
            return tail, tail
        if (len(mats), comp) not in after:
            candidates = [(images(mat, len(mats)), weight, joined) for mat, weight, joined
                          in _representatives(p, n, free, comp)]
            after[len(mats), comp] = [r for r in candidates
                                      if not fails(own[len(mats)], (r[0],) * m, unit)]
        reps = pairs = 0
        for imgs, weight, joined in after[len(mats), comp]:
            r, c = walk(mats + (imgs,), joined, d)
            reps += weight * r
            pairs += weight * c
        return reps, pairs

    reps = pairs = 0
    for mat, weight, comp, d in cells:
        r, c = walk((images(mat, 0) if read else None,), comp, d)
        reps += weight * r
        pairs += weight * c
    return reps, pairs * (whole - 1)


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
    cells = _weighed(first_cells(q, n), q ** (n * n))
    # ranges split the cell list; no more processes than ranges or CPUs,
    # since the pool starts them all at once
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        cells = list(cells)
        workers = min(workers, len(cells))
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


def _weighed(cells, whole):
    "`cells`, streamed, then asserted to weigh `whole` = q^(n^2) in all."
    left = whole
    for cell in cells:
        left -= cell[1]
        yield cell
    if left:
        raise AssertionError(f"cell weights do not sum to q^(n^2) = {whole}")


def _ranges(total, parts):
    "Contiguous index ranges, split as evenly as they go."
    cuts = [total * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))
