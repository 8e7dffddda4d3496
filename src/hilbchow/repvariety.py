"""Finitely presented algebras, their representation schemes, and the
conjugation action.

A presentation is a number of generators plus a list of free-algebra
relations.  Evaluating the relations at generic matrices (entries
xi_k_i_j) yields the defining ideal of the scheme of n-dimensional
representations; concrete points are m-tuples of matrices killing every
relation.  Trace-word tables give conjugation-invariant coordinates
that separate points of the quotient by GL_n at the chosen word bound;
they are read by halves from a word table to half the bound, and both they
and the relation test run on the integer lift of the tuple.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import mul

from ._tokens import Block, Record, block_text
from .commpoly import CommPoly, parse_comm_poly
from . import errors, fields
from .errors import ParseError, PreconditionError, SingularMatrixError, require
from .linalg import (IncrementalSpan, Matrix, _lifted_images, det, lift, matrix_inverse,
                     nc_eval, shared_dimension, table_len, word_matrices)
from .ncpoly import (NCPoly, generator_index, parse_nc_poly, parse_word, word_key,
                     word_str, words_up_to)


def generic_var(k, i, j):
    "Name of the (i, j) entry of the k-th generic matrix; all 1-based."
    return f"xi_{k}_{i}_{j}"


class AlgebraPresentation(Record):
    """A = k{x1..xm} / (relations)."""

    __slots__ = ("field", "m", "relations")

    def __init__(self, field, m, relations=()):
        if m < 1:
            raise PreconditionError("a presentation needs at least one generator")
        rels = tuple(relations)
        for r in rels:
            if not isinstance(r, NCPoly) or r.field != field or r.m != m:
                raise PreconditionError("relation with mismatched field or arity")
        super().__init__(field, m, rels)

    @property
    def is_commutative(self):
        """True when every generator commutator is a linear combination of
        the relations as given (a syntactic test, not ideal membership)."""
        if self.m == 1:
            return True
        rels = [r for r in self.relations if r]
        words = sorted({w for r in rels for w in r.terms}, key=word_key)
        index = {w: i for i, w in enumerate(words)}

        def vector(poly):
            vec = [self.field.zero] * len(words)
            for w, c in poly.terms.items():
                vec[index[w]] = c
            return fields.lift(self.field, vec)[0]

        span = IncrementalSpan(len(words), self.field.characteristic)
        for r in rels:
            span.add(vector(r))
        for i in range(self.m):
            for j in range(i + 1, self.m):
                xi, xj = self.generator(i), self.generator(j)
                comm = xi * xj - xj * xi
                if not comm.terms.keys() <= index.keys() or span.add(vector(comm)):
                    return False
        return True

    def generator(self, k):
        return NCPoly.generator(self.field, self.m, k)

    def to_text(self):
        gens = "gens " + " ".join(f"x{k + 1}" for k in range(self.m))
        return block_text("presentation", self.field, {},
                          [gens] + [f"rel {r}" for r in self.relations],
                          header=False)

    @classmethod
    def from_text(cls, text):
        block = Block(text, "presentation", header=False)
        names = block.line("gens").split()
        if names != [f"x{k + 1}" for k in range(len(names))]:
            raise ParseError(f"generators must be named x1..xm in order: {names}")
        m = len(names)
        rels = tuple(parse_nc_poly(rest, block.field, m)
                     for _, rest in block.body("rel"))
        return cls(block.field, m, rels)


def build_generic(pres, n):
    """The tuple of m generic n x n matrices with entries xi_k_i_j; more than
    MAX_TABLE_WORDS entries in all are refused before any is built."""
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    require(pres.m * n * n, errors.MAX_TABLE_WORDS,
            f"{pres.m} generic {n} x {n} matrices have {{}} entries")
    mats = []
    for k in range(1, pres.m + 1):
        rows = tuple(tuple(CommPoly.variable(pres.field, generic_var(k, i, j))
                           for j in range(1, n + 1))
                     for i in range(1, n + 1))
        mats.append(Matrix(rows))
    return tuple(mats)


class RepIdeal(Record):
    __slots__ = ("field", "m", "n", "gens")

    def to_text(self):
        return block_text("rep-ideal", self.field, {"m": self.m, "n": self.n},
                          [f"gen {g}" for g in self.gens])

    @classmethod
    def from_text(cls, text):
        block = Block(text, "rep-ideal")
        m, n = block.int_line("m"), block.int_line("n")
        gens = tuple(parse_comm_poly(rest, block.field)
                     for _, rest in block.body("gen"))
        return cls(block.field, m, n, gens)


def rep_ideal(pres, n):
    """Entries of every relation evaluated at the generic matrices.

    Zero polynomials are dropped and syntactic duplicates removed; the
    survivors are sorted in graded-lex term order.  A word w gives each
    entry at most min(n^(|w|-1), C(|w|+N-1, N-1)) terms, N = m n^2; more
    than MAX_TABLE_WORDS in all are refused before any is built.
    """
    mats = build_generic(pres, n)
    size = pres.m * n * n
    terms = n * n * sum(min(n ** max(len(w) - 1, 0), comb(len(w) + size - 1, size - 1))
                        for rel in pres.relations for w in rel.terms)
    require(terms, errors.MAX_TABLE_WORDS,
            f"relations at generic {n} x {n} matrices would build {{}} entry terms")
    gens = []
    seen = set()
    for rel in pres.relations:
        for p in chain.from_iterable(nc_eval(rel, mats).rows):
            if p and p not in seen:
                seen.add(p)
                gens.append(p)
    gens.sort(key=lambda p: p.sort_tuple())
    return RepIdeal(pres.field, pres.m, n, tuple(gens))


def is_representation(pres, mats):
    """True when every relation's integer image on the tuple
    (`linalg._lifted_images`) is zero, mod p over F_p as in the F_p sweep."""
    if len(mats) != pres.m:
        raise PreconditionError(
            f"arity mismatch: presentation has {pres.m} generators, got {len(mats)}")
    shared_dimension(mats)
    images = _lifted_images(pres.relations, mats)[0] if pres.relations else ()
    p = pres.field.characteristic
    return not any(a % p if p else a for M in images for r in M for a in r)


class RepPoint(Record):
    """An m-tuple of n x n matrices over the base field."""

    __slots__ = ("field", "mats")

    def __init__(self, field, mats):
        """Plain int entries are coerced into the field; a `Fraction` or
        `FpElem` of another field is a field mismatch."""
        mats = tuple(mats)
        if not mats:
            raise PreconditionError("a point needs at least one matrix")
        n = mats[0].n
        for M in mats:
            if not isinstance(M, Matrix) or M.n != n:
                raise PreconditionError("matrices must share one dimension")
        values = [a for M in mats for r in M.rows for a in r]
        fields.field_of(values + [field.one], "a representation point")
        if int in set(map(type, values)):
            mats = tuple(Matrix(tuple(tuple(field(a) for a in r) for r in M.rows))
                         for M in mats)
        super().__init__(field, mats)

    @property
    def n(self):
        return self.mats[0].n

    @property
    def m(self):
        return len(self.mats)

    def to_text(self):
        return point_text(self.field, self.mats, None)

    @classmethod
    def from_text(cls, text):
        fld, mats, vec = parse_point_body(text)
        if vec is not None:
            raise ParseError("unexpected vec line in a plain representation point")
        return cls(fld, mats)


def matrix_row_text(field, M):
    return "; ".join(" ".join(field.format(a) for a in row) for row in M.rows)


def parse_matrix_rows(field, text, n):
    rows = []
    for chunk in text.split(";"):
        rows.append(tuple(map(field.parse, chunk.split())))
        if not rows[-1]:
            raise ParseError(f"empty matrix row in {text!r}")
    if any(len(r) != len(rows) for r in rows):
        raise ParseError(f"matrix is not square: {text!r}")
    if len(rows) != n:
        raise ParseError(f"expected a {n} x {n} matrix: {text!r}")
    return Matrix(rows)


def point_text(field, mats, vec):
    body = ["mat " + matrix_row_text(field, M) for M in mats]
    if vec is not None:
        body.append("vec " + " ".join(field.format(a) for a in vec))
    return block_text("point", field, {"n": mats[0].n}, body)


def parse_point_body(text):
    block = Block(text, "point")
    fld = block.field
    n = block.int_line("n")
    mats = []
    vec = None
    for head, rest in block.body("mat", "vec"):
        if vec is not None:
            raise ParseError(f"{head} line after the vec line")
        if head == "mat":
            mats.append(parse_matrix_rows(fld, rest, n))
        else:
            vec = tuple(map(fld.parse, rest.split()))
            if len(vec) != n:
                raise ParseError(f"vector length {len(vec)} does not match n={n}")
    if not mats:
        raise ParseError("point block with no matrices")
    return fld, tuple(mats), vec


def conjugate(g, pt):
    """Simultaneous conjugation g . (M_1..M_m) = (g M_1 g^-1, ...)."""
    if g.n != pt.n:
        raise PreconditionError("conjugating matrix has the wrong dimension")
    try:
        ginv = matrix_inverse(g)
    except SingularMatrixError:
        raise SingularMatrixError("conjugation requires an invertible matrix") from None
    return RepPoint(pt.field, tuple(g * M * ginv for M in pt.mats))


class InvariantTable(Record):
    """Trace-word coordinates (plus generator determinants) of a point.

    Conjugation-invariant; equal tables identify points of the quotient
    up to the chosen word bound, never asserting orbit equality.
    """

    __slots__ = ("field", "m", "n", "max_len", "traces", "gen_dets")

    def to_text(self):
        fmt = self.field.format
        body = [f"tr {word_str(w)} = {fmt(self.traces[w])}"
                for w in sorted(self.traces, key=word_key)]
        body += [f"det x{k + 1} = {fmt(d)}" for k, d in enumerate(self.gen_dets)]
        return block_text("invariant-table", self.field,
                          {"m": self.m, "n": self.n, "max-len": self.max_len}, body)

    @classmethod
    def from_text(cls, text):
        block = Block(text, "invariant-table")
        fld = block.field
        m, n, max_len = (block.int_line(k) for k in ("m", "n", "max-len"))
        traces, dets = block.tables(tr=(lambda w: parse_word(w, fld, m), fld.parse),
                                    det=(generator_index, fld.parse))
        return cls(fld, m, n, max_len, traces, _per_generator(dets, m, "det"))


def _per_generator(table, m, kind):
    """The values of a block's `kind x<k> = value` lines, read by
    `Block.tables` keyed by `generator_index`, in generator order: every key
    must be one of x1..xm, and none missing; a gap is named by its first."""
    for k in table:
        if k >= m:
            raise ParseError(f"expected one of x1..x{m}, got 'x{k + 1}'")
    if len(table) < m:
        k = min(set(range(len(table) + 1)) - table.keys())
        raise ParseError(f"no {kind} line for x{k + 1}")
    return tuple(table[k] for k in range(m))


def invariant_table(pt, max_len=None):
    """Traces of all word images up to the bound, plus generator dets.

    Everything runs on the integer lift of the tuple, whose products are
    tabled to half the bound only: a word w splits as u v with
    |u| = ceil(|w|/2), and tr rho(w) = sum_ij rho(u)_ij rho(v)_ji is one
    dot product of rho(u) read by rows with rho(v) read by columns.  The
    table is still refused on the word count of the full bound."""
    max_len = table_len(pt.m, pt.n, max_len)
    ints, back, field = lift(pt.mats, "an invariant table")
    half = word_matrices(ints, (max_len + 1) // 2, field.characteristic)
    by_rows = {w: tuple(chain.from_iterable(M.rows)) for w, M in half.items()}
    by_cols = {w: tuple(chain.from_iterable(zip(*M.rows)))
               for w, M in half.items() if len(w) <= max_len // 2}
    traces = {}
    for w in words_up_to(pt.m, max_len, 1):
        k = (len(w) + 1) // 2
        traces[w] = back(sum(map(mul, by_rows[w[:k]], by_cols[w[k:]])), len(w))
    dets = tuple(back(det(M), pt.n) for M in ints)
    return InvariantTable(pt.field, pt.m, pt.n, max_len, traces, dets)
