"""Square matrices over a field or over a commutative polynomial ring.

Entries only need `+`, `-`, `*` and `** 0`, so the same Matrix class
carries concrete field points and generic matrices of indeterminates.
Characteristic polynomials and determinants of polynomial entries, such
as det(sum_s t_s M_s) with packed monomials, use the Berkowitz scheme: no
divisions occur, so it stays valid over F_2 and F_3.  Scalar matrices run
on plain ints: `lift` reshapes `fields.lift` of all the entries, on the
field `fields.field_of` names from them, into integer matrices, and their
determinants are fraction-free (Bareiss) eliminations, exact over Z and
so on unreduced F_p representatives.  Word tables grow by one block
product per generator and level; free-algebra elements evaluate through
one integer core, `_lifted_images`, that `nc_eval`, law tables and
relation tests share.  Gaussian elimination runs on ints as well: `rref`
lifts its rows once, and `IncrementalSpan` takes int vectors only,
representatives mod p or fraction-free primitive rows over Q, each
divided by its pivot only when `rref` hands it back.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, groupby, islice
from math import gcd
from operator import add, index, mul

from .commpoly import CommPoly, SparseElement, var_key
from . import errors, fields
from .errors import PreconditionError, SingularMatrixError, require
from .fields import FpElem
from .ncpoly import NCPoly


class Matrix:
    "A square matrix as a value: products, action on vectors, equality, hash."
    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PreconditionError("matrix must be square and nonempty")
        self.n = n
        self.rows = rows

    @classmethod
    def _wrap(cls, rows):
        "A Matrix on `rows`, a square tuple of tuples, taken as they are."
        mat = object.__new__(cls)
        mat.n, mat.rows = len(rows), rows
        return mat

    @classmethod
    def identity(cls, n, one):
        zero = one * 0
        return cls(tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    @classmethod
    def zeros(cls, n, zero):
        return cls(tuple((zero,) * n for _ in range(n)))

    @classmethod
    def from_columns(cls, cols):
        n = len(cols)
        return cls(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise PreconditionError(f"dimension mismatch: {self.n} vs {other.n}")
        return Matrix(mat_mul(self.rows, other.rows))

    def apply(self, vec):
        if len(vec) != self.n:
            raise PreconditionError("vector length does not match matrix size")
        return mat_vec(self.rows, vec)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "; ".join(" ".join(str(a) for a in r) for r in self.rows)

    def __repr__(self):
        return f"Matrix([{self}])"


# -- kernels on tuples of rows, shared by Matrix and the F_p sweep ------------
#
# Entries need only + and *, and 0 + a for `sum`: field elements, polynomials,
# or plain ints that the caller reduces mod p when it reads them (exact,
# since Z -> F_p is a ring map).

def mat_mul(a, b, p=0):
    "Product of two square matrices given as tuples of rows, mod p if p."
    cols = tuple(zip(*b))
    if p:
        return tuple([tuple([sum(map(mul, row, col)) % p for col in cols])
                      for row in a])
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_pow(a, e, p=0):
    "a^e for e >= 1 by repeated squaring, mod p if p."
    if e == 1:
        return a
    half = mat_pow(mat_mul(a, a, p), e // 2, p)
    return mat_mul(a, half, p) if e & 1 else half


def word_product(word, mats, memo, p=0):
    """mats[w_0] * mats[w_1] * ... along `word`, reduced mod p if p, and
    memoised in `memo`, which must map the empty word to the identity.
    Built leftwards from word[1:] if `memo` has it, one power per run of a
    letter; only `word` is stored."""
    got = memo.get(word)
    if got is None:
        got = memo.get(word[1:]) if len(word) > 2 else None
        for letter, run in groupby(reversed(word if got is None else word[:1])):
            power = mat_pow(mats[letter], sum(1 for _ in run), p)
            got = power if got is None else mat_mul(power, got, p)
        memo[word] = got
    return got


def word_sum(terms, mats, memo, p=0):
    "Sum of c * word_product(w) over the (w, c) pairs of nonempty `terms`."
    total = None
    for word, c in terms:
        scaled = tuple(tuple(a * c for a in r)
                       for r in word_product(word, mats, memo, p))
        total = scaled if total is None else tuple(
            tuple(map(add, t, s)) for t, s in zip(total, scaled))
    return total


# -- division-free characteristic polynomial --------------------------------

def lift(mats, what):
    """`fields.lift` of scalar matrices of one size over the field that
    `fields.field_of` names from all their entries (plain ints are their own
    lift): the integer matrices, `back(c, k)` for a degree-k result, the field."""
    values = [a for M in mats for r in M.rows for a in r]
    field = fields.field_of(values, what)
    if set(map(type, values)) == _INT:
        return mats, lambda c, k: Fraction(c), field
    ints, back = fields.lift(field, values)
    rows = zip(*[iter(ints)] * mats[0].n)
    return tuple(Matrix._wrap(tuple(islice(rows, M.n))) for M in mats), back, field


_INT, _SCALARS = {int}, {int, Fraction, FpElem}


def berkowitz_coeffs(mat):
    """Coefficients of det(t*I - M), leading one first, via Berkowitz.

    Works over any commutative ring: only +, * and negation are used.
    Matrices of exact scalars with a `Fraction` or `FpElem` among them run
    on their integer lift, on the field that all their entries name.
    """
    kinds = set(map(type, chain.from_iterable(mat.rows)))
    if kinds != _INT and kinds <= _SCALARS:
        (ints,), back, _ = lift((mat,), "characteristic polynomial")
        return [back(c, k) for k, c in enumerate(berkowitz_coeffs(ints))]
    n = mat.n
    one = mat.rows[0][0] ** 0
    zero = one * 0
    poly = [one, -mat.rows[0][0]]
    for k in range(1, n):
        a = mat.rows[k][k]
        row = mat.rows[k][:k]
        col = tuple(mat.rows[j][k] for j in range(k))
        sub = tuple(r[:k] for r in mat.rows[:k])
        # first column of the Toeplitz factor:
        # 1, -a, -(row.col), -(row.sub.col), ..., -(row.sub^{k-1}.col)
        s = [one, -a]
        u = col
        for _ in range(k):
            s.append(-sum(map(mul, row, u)))
            u = mat_vec(sub, u)
        new = [zero] * (k + 2)
        for i, si in enumerate(s):
            if not si:
                continue
            for j, pj in enumerate(poly):
                if i + j < k + 2 and pj:
                    new[i + j] = new[i + j] + si * pj
        poly = new
    return poly


def charpoly(mat):
    """det(t*I - M) as a polynomial in t; entries must be scalars."""
    (ints,), back, field = lift((mat,), "characteristic polynomial")
    n = mat.n
    return CommPoly(field, {(("t", n - i),) if i < n else (): back(c, i)
                            for i, c in enumerate(berkowitz_coeffs(ints))})


def det(mat):
    """Determinant over any commutative ring: fraction-free elimination on the
    integer lift for exact scalars, Berkowitz for polynomial entries."""
    kinds = set(map(type, chain.from_iterable(mat.rows)))
    if kinds == _INT:
        return _bareiss(mat.rows)
    if kinds <= _SCALARS:
        (ints,), back, _ = lift((mat,), "determinant")
        return back(_bareiss(ints.rows), mat.n)
    c = berkowitz_coeffs(mat)[-1]
    return -c if mat.n % 2 else c


def _bareiss(rows):
    """Determinant of an integer matrix by fraction-free elimination (Bareiss):
    what step k leaves are (k+1)-minors, so dividing by the last pivot is
    exact.  A zero pivot swaps in a lower row and flips the sign."""
    n, sign, prev = len(rows), 1, 1
    rows = [list(r) for r in rows]
    for k in range(n - 1):
        top = rows[k]
        if not top[k]:
            i = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if i is None:
                return 0
            rows[k], rows[i] = rows[i], top
            top, sign = rows[k], -sign
        piv = top[k]
        for r in rows[k + 1:]:
            f = r[k]
            for j in range(k + 1, n):
                r[j] = (piv * r[j] - f * top[j]) // prev
        prev = piv
    return sign * rows[-1][-1]


def shared_dimension(mats):
    "The size n of the n x n matrices `mats`, of which there is at least one."
    if not mats:
        raise PreconditionError("need at least one matrix")
    if any(M.n != mats[0].n for M in mats):
        raise PreconditionError("matrices must share one dimension")
    return mats[0].n


class _Z:
    "The integers as a coefficient ring for `_PackedPoly`: scalars are ints."
    zero, one = 0, 1
    __call__ = staticmethod(index)


class _PackedPoly(SparseElement):
    """Integer polynomial of degree <= n in t_0..t_{k-1}; the monomial t^xi
    is the key sum_s xi_s * (n+1)**s, so keys add as monomials multiply."""
    __slots__ = ()
    _UNIT = 0
    _key_mul = staticmethod(add)


def det_linear_combination(mats, var_names):
    """det(sum_s t_s * M_s) for scalar M_s, as a polynomial in the given
    indeterminates, homogeneous of degree n.  Berkowitz runs on the integer
    lift with packed monomials, whose exponents are at most n, so no digit
    of a key ever carries.
    """
    n = shared_dimension(mats)
    if len(mats) != len(var_names):
        raise PreconditionError("one variable is required per matrix")
    if len(set(var_names)) != len(var_names):
        raise PreconditionError("variable names must be distinct")
    names, mats = zip(*sorted(zip(var_names, mats), key=lambda nm: var_key(nm[0])))
    ints, back, field = lift(mats, "determinant of a linear combination")
    powers = [(n + 1) ** s for s in range(len(mats))]
    ring = _Z()
    entries = Matrix((_PackedPoly(ring, dict(zip(powers, cell))) for cell in zip(*rows))
                     for rows in zip(*(M.rows for M in ints)))

    def mono(key):  # the base-(n+1) digits of key, read off from the top one
        s = bisect_right(powers, key) - 1
        return mono(key % powers[s]) + ((names[s], key // powers[s]),) if key else ()

    return CommPoly(field, {mono(key): back(c, n)
                            for key, c in det(entries).terms.items()})


# -- evaluation of free-algebra elements on matrix tuples ---------------------

def nc_eval(poly, mats):
    """Substitute matrices for the generators of a free-algebra element.

    The empty word contributes coeff * identity.  Exact scalars run on
    `_lifted_images`, read back at degree K+1; polynomial entries (generic
    matrices) are summed as they are.
    """
    if not isinstance(poly, NCPoly):
        raise PreconditionError("nc_eval needs a free-algebra element")
    if len(mats) != poly.m:
        raise PreconditionError(
            f"arity mismatch: <{poly.m}> generators vs {len(mats)} matrices")
    n = shared_dimension(mats)
    if set(type(a) for M in mats for r in M.rows for a in r) <= _SCALARS:
        (image,), back, top = _lifted_images((poly,), mats)
        return Matrix._wrap(tuple(tuple(back(a, top + 1) for a in r) for r in image))
    memo = {(): Matrix.identity(n, mats[0].rows[0][0] ** 0).rows}
    terms = poly.sorted_terms()[::-1] or [((), 0)]
    return Matrix._wrap(word_sum(terms, tuple(M.rows for M in mats), memo))


def _lifted_images(polys, mats):
    """The one evaluation core: integer images of free-algebra elements on
    one `fields.lift` of the scalar entries, every coefficient and 1 (d, the
    common denominator over Q).  Each term c w is scaled by d^(K-|w|), K the
    longest word of all `polys`, so an image is d^(K+1) times the value;
    products are shared, mod p over F_p.  Returns (row tuples, back, K)."""
    terms = [a.sorted_terms()[::-1] or [((), 0)] for a in polys]
    scalars = [1] + [c for ts in terms for _, c in ts]
    scalars += [a for M in mats for r in M.rows for a in r]
    field = fields.field_of(scalars, "evaluation of a free-algebra element")
    ints, back = fields.lift(field, scalars)
    lifted, d, n = iter(ints[1:]), ints[0], mats[0].n
    top = max((len(ts[-1][0]) for ts in terms), default=0)
    scaled = [[(w, next(lifted) * d ** (top - len(w))) for w, _ in ts] for ts in terms]
    rows = tuple(tuple(tuple(islice(lifted, n)) for _ in range(n)) for _ in mats)
    memo = {(): Matrix.identity(n, 1).rows}
    return [word_sum(s, rows, memo, field.characteristic) for s in scaled], back, top


def require_word_table(m, max_len):
    """Refuse a table of the words of length <= max_len on m letters that
    has more than MAX_TABLE_WORDS of them; the count stops past the limit."""
    what = f"a word table to length {max_len} on {m} matrices has at least {{}} words"
    words = 0
    for length in range(max_len + 1):
        words += m ** length
        require(words, errors.MAX_TABLE_WORDS, what)


def word_matrices(mats, max_len):
    """Products along all words of length <= max_len, in graded-lex order:
    level L+1 is X_k [rho(w_1) | rho(w_2) | ...] over level L, one block
    product per generator (the identity's columns are its rows), cut into
    n x n blocks.  Tables of more than MAX_TABLE_WORDS words are refused."""
    n = shared_dimension(mats)
    require_word_table(len(mats), max_len)
    ident = Matrix.identity(n, mats[0].rows[0][0] ** 0)
    table, words, cols = {(): ident}, [()], ident.rows
    for _ in range(max_len):
        wide = [[sum(map(mul, row, c)) for c in cols] for X in mats for row in X.rows]
        cols = [c for k in range(len(mats)) for c in zip(*wide[k * n:(k + 1) * n])]
        words = [(k,) + w for k in range(len(mats)) for w in words]
        for j, w in enumerate(words):
            table[w] = Matrix._wrap(tuple(zip(*cols[j * n:(j + 1) * n])))
    return table


# -- exact Gaussian elimination over a field -----------------------------------

def rref(rows):
    "Reduced row echelon form over a field: (nonzero rows, pivot columns)."
    return _rref(rows)[:2]


def _rref(rows):
    """`rref` and the field of the rows, which are lifted together (scaling
    leaves the form unchanged), spanned, sorted by pivot and cleared upwards,
    last pivot first; each row is then divided by its pivot."""
    values = [a for r in rows for a in r]
    field = fields.field_of(values, "elimination")
    ints, _ = fields.lift(field, values)
    p = field.characteristic
    span = IncrementalSpan(len(rows[0]) if rows else 0, p)
    for row in zip(*[iter(ints)] * span.dim):
        span.add(row)
    order = sorted(range(span.rank), key=span.pivots.__getitem__)
    pivots = [span.pivots[i] for i in order]
    red = [span.rows[i] for i in order]
    for i in reversed(range(len(red))):
        row, c = red[i], pivots[i]
        if not p:  # primitive again, so the rows above grow linearly
            g = gcd(*row)
            row = red[i] = [a // g for a in row]
        piv = row[c]
        for j in range(i):
            f = red[j][c]
            if f:
                red[j] = ([(a - f * b) % p for a, b in zip(red[j], row)] if p
                          else [a * piv - f * b for a, b in zip(red[j], row)])
    return [[FpElem(p, a) if p else Fraction(a, r[c]) for a in r]
            for r, c in zip(red, pivots)], pivots, field


def nullspace(rows, ncols):
    """Basis of the right kernel, deterministic (free columns ascending)."""
    if not rows:
        raise PreconditionError("a kernel needs at least one equation")
    red, pivots, field = _rref(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def matrix_inverse(mat):
    n = mat.n
    unit = Matrix.identity(n, 1).rows
    red, pivots = rref([r + e for r, e in zip(mat.rows, unit)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(tuple(tuple(red[i][n:]) for i in range(n)))


def solve_columns(basis, targets):
    """Coordinates of each target in the span of the given column vectors.

    The columns must be linearly independent; raises when some target
    falls outside their span.
    """
    if not basis:
        if any(any(x for x in t) for t in targets):
            raise PreconditionError("target outside span")
        return [tuple() for _ in targets]
    n = len(basis[0])
    r = len(basis)
    aug = [[basis[j][i] for j in range(r)] + [t[i] for t in targets]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:r] != list(range(r)) or len(pivots) > r:
        raise PreconditionError("columns dependent or target outside span")
    return [tuple(red[i][r + k] for i in range(r)) for k in range(len(targets))]


class IncrementalSpan:
    """Growing echelonized span of int vectors (callers lift field elements
    once, `fields.lift`), stored as integer rows that are 0 at the pivots
    stored before them.  With a prime p a row holds representatives and is
    1 at its pivot; with p = 0 it is primitive and eliminated fraction-free.
    """

    __slots__ = ("dim", "p", "rows", "pivots")

    def __init__(self, dim, p=0):
        self.dim = dim
        self.p = p
        self.rows = []
        self.pivots = []

    def add(self, vec, keep=True):
        """True when vec enlarges the span; vec then joins it unless
        `keep` is false."""
        rows = self.rows
        if len(rows) == self.dim:
            return False
        p = self.p
        if p:
            vec = [a % p for a in vec]
        for row, c in zip(rows, self.pivots):
            f = vec[c]
            if f:
                g = row[c]
                vec = ([(a - f * b) % p for a, b in zip(vec, row)] if p
                       else [a * g - f * b for a, b in zip(vec, row)])
        for c, piv in enumerate(vec):
            if piv:
                if keep:
                    g = pow(piv, -1, p) if p else gcd(*vec)
                    rows.append([a * g % p for a in vec] if p
                                else [a // g for a in vec])
                    self.pivots.append(c)
                return True
        return False

    def contains(self, vec):
        return not self.add(vec, keep=False)

    @property
    def rank(self):
        return len(self.rows)


def word_basis(mats, v, p=0):
    """(word, image) pairs for the graded-lex-first words w whose images
    w.v are linearly independent; `mats` are integer row tuples and v an
    integer vector, and p is as for IncrementalSpan.

    Breadth-first: level L+1 candidates are x_k * w over selected level-L
    words w, scanned in lexicographic order.  Prepending a generator to a
    word whose image is already dependent can never produce a new
    independent image, so the scan visits exactly the words it needs and
    still returns the lexicographically first independent set.
    """
    n = len(v)
    grow = IncrementalSpan(n, p).add
    basis = level = [((), v)] if grow(v) else []
    while level and len(basis) < n:
        nxt = []
        for k, mat in enumerate(mats):
            for w, u in level:
                image = mat_vec(mat, u)
                if grow(image):
                    nxt.append(((k,) + w, image))
        basis = basis + nxt
        level = nxt
    return basis
