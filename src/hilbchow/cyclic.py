"""Points of the non-commutative Hilbert scheme.

A pointed representation is a matrix tuple plus a marked vector; it is
cyclic when the word images of the vector span the whole space.  Cyclic
points correspond to left ideals of codimension n, presented here by a
word basis of the quotient together with the generator actions in that
basis.  Ideal membership and the equivalence of pointed representations
are exact linear algebra; stabilizers of cyclic points are trivial.
"""

from __future__ import annotations

from ._tokens import Block, Record, block_text
from . import fields
from .errors import ParseError, PreconditionError
from .linalg import Matrix, lift, mat_mul, matrix_inverse, nc_eval, word_basis
from .linalg import nullspace  # noqa: F401  bench/tracing.py rebinds it by name
from .ncpoly import NCPoly, generator_index, parse_word, word_str
from .repvariety import (RepPoint, _per_generator, matrix_row_text, parse_matrix_rows,
                         parse_point_body, point_text)


class PointedRep(Record):
    """A representation point plus a marked vector of matching length."""

    __slots__ = ("rep", "v")

    def __init__(self, rep, v):
        """Plain int entries of v are coerced into the field; a `Fraction`
        or `FpElem` of another field is a field mismatch."""
        v = tuple(v)
        if len(v) != rep.n:
            raise PreconditionError(f"vector length {len(v)} does not match n={rep.n}")
        fields.field_of(v + (rep.field.one,), "a pointed representation")
        super().__init__(rep, tuple(map(rep.field, v)))

    @property
    def field(self):
        return self.rep.field

    @property
    def n(self):
        return self.rep.n

    @property
    def m(self):
        return self.rep.m

    def to_text(self):
        return point_text(self.rep.field, self.rep.mats, self.v)

    @classmethod
    def from_text(cls, text):
        fld, mats, vec = parse_point_body(text)
        if vec is None:
            raise ParseError("pointed representation needs a vec line")
        return cls(RepPoint(fld, mats), vec)


def cyclic_word_basis(pt):
    """Graded-lex-first words whose images of v are linearly independent, and
    those images, from one lift of the entries and v: w.v has degree |w| + 1."""
    ints, v, back, field = lift(pt.rep.mats, "a cyclic word basis", pt.v)
    basis = word_basis([M.rows for M in ints], v, field.characteristic)
    return [w for w, _ in basis], [tuple(back(c, len(w) + 1) for c in u)
                                   for w, u in basis]


def require_cyclic(pt):
    """`cyclic_word_basis(pt)` when v is cyclic: the one check that turns
    away a point whose word images of v do not span the space."""
    words, images = cyclic_word_basis(pt)
    if len(words) < pt.n:
        raise PreconditionError(
            f"not cyclic: word span has dimension {len(words)} < {pt.n}")
    return words, images


def span_dimension(pt):
    return len(cyclic_word_basis(pt)[0])


def is_cyclic(pt):
    """True when the word images of v span the full space."""
    return span_dimension(pt) == pt.n


class IdealPresentation(Record):
    """A codimension-n left ideal, given by its cyclic quotient data:
    a word basis of the quotient, the generator actions in that basis,
    and the position of the class of 1."""

    __slots__ = ("field", "m", "n", "basis_words", "action_mats", "cyclic_index")

    def to_text(self):
        body = ["basis " + ", ".join(word_str(w) for w in self.basis_words),
                f"cyclic-index {self.cyclic_index}"]
        body += [f"act x{k + 1} = " + matrix_row_text(self.field, M)
                 for k, M in enumerate(self.action_mats)]
        return block_text("ideal-presentation", self.field,
                          {"m": self.m, "n": self.n}, body)

    @classmethod
    def from_text(cls, text):
        block = Block(text, "ideal-presentation")
        fld = block.field
        m, n = block.int_line("m"), block.int_line("n")
        words = tuple(parse_word(tok.strip(), fld, m)
                      for tok in block.line("basis").split(","))
        idx = block.int_line("cyclic-index")
        acts, = block.tables(act=(generator_index,
                                  lambda rows: parse_matrix_rows(fld, rows, n)))
        return cls(fld, m, n, words, _per_generator(acts, m, "act"), idx)


def triple_to_ideal(pt):
    """Left-ideal presentation of a cyclic pointed representation.

    The quotient basis is the graded-lex-first independent word set; the
    action matrices are the original generators rewritten in that basis.
    """
    words, images = require_cyclic(pt)
    B = Matrix.from_columns(images)
    Binv = matrix_inverse(B)
    action = tuple(Binv * M * B for M in pt.rep.mats)
    return IdealPresentation(pt.field, pt.m, pt.n, tuple(words), action,
                             words.index(()))


def _unit_vector(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def _word_image(mats, word, vec):
    for k in reversed(word):
        vec = mats[k].apply(vec)
    return vec


def ideal_membership(ip, a, pt=None):
    """Whether a free-algebra element lies in the presented left ideal.

    Membership means the element annihilates the marked vector; when the
    originating pointed representation is supplied it is used directly,
    otherwise the action matrices stand in for it.
    """
    if not isinstance(a, NCPoly) or a.m != ip.m:
        raise PreconditionError("arity mismatch with the presentation")
    if pt is None:
        mats = ip.action_mats
        vec = _unit_vector(ip.field, ip.n, ip.cyclic_index)
    else:
        if pt.m != ip.m or pt.n != ip.n:
            raise PreconditionError("point does not match the presentation")
        mats, vec = pt.rep.mats, pt.v
    image = nc_eval(a, mats).apply(vec)
    return not any(image)


def ideal_to_triple(ip):
    """Pointed representation carried by an ideal presentation.

    The module is the quotient itself: generators act by the stored
    matrices and the marked vector is the class of 1.  The stored data
    must reproduce its own word basis (basis word w applied to the class
    of 1 must give the w-th basis vector); inconsistent matrices are
    rejected.
    """
    if not (0 <= ip.cyclic_index < ip.n):
        raise PreconditionError("cyclic index out of range")
    if len(ip.basis_words) != ip.n or len(ip.action_mats) != ip.m:
        raise PreconditionError("basis or action data of the wrong size")
    if ip.basis_words[ip.cyclic_index] != ():
        raise PreconditionError("the class of 1 must be a basis element")
    cyc = _unit_vector(ip.field, ip.n, ip.cyclic_index)
    for j, w in enumerate(ip.basis_words):
        if _word_image(ip.action_mats, w, cyc) != _unit_vector(ip.field, ip.n, j):
            raise PreconditionError(
                f"inconsistent action matrices: word {word_str(w)} does not "
                f"reproduce basis vector {j}")
    pt = PointedRep(RepPoint(ip.field, ip.action_mats), cyc)
    return pt


def triples_equivalent(p1, p2):
    """The unique change of basis carrying p1 to p2, or None.

    An equivalence g sends w.v1 to w.v2 for every word w, so it keeps the
    graded-lex-first word basis, and on cyclic points it is pinned down by
    the two bases: g = B2 B1^-1, which sends v1 to v2 as () is the first
    basis word.  That g is returned only if it intertwines every generator
    (so bases of other words fail), tested by 2m products on one integer
    lift of B2, B1^-1 and both tuples.
    """
    if p1.field != p2.field or p1.m != p2.m or p1.n != p2.n:
        raise PreconditionError("points live on different spaces")
    images1, images2 = require_cyclic(p1)[1], require_cyclic(p2)[1]
    mats = (Matrix.from_columns(images2), matrix_inverse(Matrix.from_columns(images1)),
            *p1.rep.mats, *p2.rep.mats)
    (b2, b1inv, *xs), back, field = lift(mats, "an equivalence")
    p = field.characteristic
    g = mat_mul(b2.rows, b1inv.rows, p)
    if all(mat_mul(g, x1.rows, p) == mat_mul(x2.rows, g, p)
           for x1, x2 in zip(xs[:p1.m], xs[p1.m:])):
        return Matrix._wrap(tuple(tuple(back(a, 2) for a in r) for r in g))
    return None


def stabilizer_is_trivial(pt):
    """Whether only the identity fixes (rep, v) under g . (rep, v); raises
    unless v is cyclic.

    GL_n acts freely on cyclic points: g v = v and g X_k = X_k g give
    g(w.v) = w.v for every word w, and these vectors span the space, so
    g = I.
    """
    require_cyclic(pt)
    return True
