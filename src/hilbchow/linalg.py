"""Square matrices over a field or over a commutative polynomial ring.

Entries only need `+`, `-`, `*` and `** 0`, so the same Matrix class
carries concrete field points and generic matrices of indeterminates.
Characteristic polynomials use the Berkowitz scheme: no divisions occur,
hence the results stay valid over F_2 and F_3 where fraction-based
elimination would divide by the characteristic.  Inversion and kernels
are only offered over fields, where Gaussian elimination is exact.
"""

from __future__ import annotations

from .commpoly import CommPoly
from .errors import PreconditionError, SingularMatrixError
from .ncpoly import NCPoly


class Matrix:
    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PreconditionError("matrix must be square and nonempty")
        self.n = n
        self.rows = rows

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

    def __getitem__(self, i):
        return self.rows[i]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def _check(self, other):
        if self.n != other.n:
            raise PreconditionError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return Matrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            cols = tuple(zip(*other.rows))
            return Matrix(tuple(
                tuple(_dot(row, col) for col in cols) for row in self.rows))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return Matrix(tuple(tuple(a * c for a in r) for r in self.rows))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("matrix power needs a nonnegative integer")
        result = Matrix.identity(self.n, self.rows[0][0] ** 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def apply(self, vec):
        if len(vec) != self.n:
            raise PreconditionError("vector length does not match matrix size")
        return tuple(_dot(row, vec) for row in self.rows)

    def trace(self):
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def transpose(self):
        return Matrix(tuple(zip(*self.rows)))

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

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


def _dot(u, v):
    it = iter(a * b for a, b in zip(u, v))
    total = next(it)
    for x in it:
        total = total + x
    return total


# -- division-free characteristic polynomial --------------------------------

def berkowitz_coeffs(mat):
    """Coefficients of det(t*I - M), leading one first, via Berkowitz.

    Works over any commutative ring: only +, * and negation are used.
    """
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
            s.append(-_dot(row, u))
            u = tuple(_dot(r, u) for r in sub)
        new = [zero] * (k + 2)
        for i, si in enumerate(s):
            if not si:
                continue
            for j, pj in enumerate(poly):
                if i + j < k + 2 and pj:
                    new[i + j] = new[i + j] + si * pj
        poly = new
    return poly


def charpoly(mat, var="t"):
    """det(t*I - M) as a univariate polynomial; entries must be scalars."""
    if isinstance(mat.rows[0][0], (CommPoly, NCPoly)):
        raise PreconditionError("characteristic polynomial needs scalar entries")
    field = _entry_field(mat)
    coeffs = berkowitz_coeffs(mat)
    n = mat.n
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = n - i
            terms[((var, e),) if e else ()] = c
    return CommPoly(field, terms)


def det(mat):
    """Determinant over any commutative ring, via the Berkowitz scheme."""
    c = berkowitz_coeffs(mat)[-1]
    return -c if mat.n % 2 else c


def _entry_field(mat):
    entry = mat.rows[0][0]
    if isinstance(entry, CommPoly):
        return entry.field
    from fractions import Fraction

    from .fields import GF, QQ, FpElem
    if isinstance(entry, FpElem):
        return GF(entry.p)
    if isinstance(entry, (Fraction, int)):
        return QQ
    raise TypeError(f"unsupported entry type {type(entry).__name__}")


def det_linear_combination(mats, var_names):
    """det(sum_s t_s * M_s) as a polynomial in the given indeterminates.

    Homogeneous of total degree n; evaluating the variables at scalars
    agrees with the determinant of the corresponding linear combination.
    """
    if not mats:
        raise PreconditionError("need at least one matrix")
    if len(mats) != len(var_names):
        raise PreconditionError("one variable is required per matrix")
    if len(set(var_names)) != len(var_names):
        raise PreconditionError("variable names must be distinct")
    n = mats[0].n
    field = _entry_field(mats[0])
    for M in mats:
        if M.n != n:
            raise PreconditionError("matrices must share one dimension")
    gens = [CommPoly.variable(field, name) for name in var_names]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = CommPoly.zero(field)
            for t, M in zip(gens, mats):
                entry = entry + t * M.rows[i][j]
            row.append(entry)
        rows.append(tuple(row))
    return det(Matrix(rows))


# -- evaluation of free-algebra elements on matrix tuples ---------------------

def nc_eval(poly, mats):
    """Substitute matrices for the generators of a free-algebra element.

    The empty word contributes coeff * identity.
    """
    if not isinstance(poly, NCPoly):
        raise PreconditionError("nc_eval needs a free-algebra element")
    if len(mats) != poly.m:
        raise PreconditionError(
            f"arity mismatch: <{poly.m}> generators vs {len(mats)} matrices")
    if not mats:
        raise PreconditionError("need at least one matrix to fix the dimension")
    n = mats[0].n
    for M in mats:
        if M.n != n:
            raise PreconditionError("matrices must share one dimension")
    one = mats[0].rows[0][0] ** 0
    total = Matrix.zeros(n, one * 0)
    cache = {(): Matrix.identity(n, one)}
    for word, c in sorted(poly.terms.items(), key=lambda wc: (len(wc[0]), wc[0])):
        total = total + _word_matrix(word, mats, cache).scale(c)
    return total


def _word_matrix(word, mats, cache):
    M = cache.get(word)
    if M is None:
        M = mats[word[0]] * _word_matrix(word[1:], mats, cache)
        cache[word] = M
    return M


def word_matrices(mats, max_len):
    """Products along all words of length <= max_len, in graded-lex order."""
    if not mats:
        raise PreconditionError("need at least one matrix")
    one = mats[0].rows[0][0] ** 0
    table = {(): Matrix.identity(mats[0].n, one)}
    level = [()]
    for _ in range(max_len):
        nxt = []
        for k in range(len(mats)):
            for w in level:
                w2 = (k,) + w
                table[w2] = mats[k] * table[w]
                nxt.append(w2)
        # restore lexicographic order within the new length
        nxt.sort()
        level = nxt
    return table


# -- exact Gaussian elimination over a field -----------------------------------

def rref(rows):
    """Reduced row echelon form (in place on a copied list); returns pivots."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        piv = rows[r][col]
        rows[r] = [a / piv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of the right kernel, deterministic (free columns ascending)."""
    if not rows:
        return [tuple()] * 0
    red, pivots = rref(rows)
    zero = rows[0][0] * 0
    one = rows[0][0] ** 0
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def matrix_inverse(mat):
    n = mat.n
    one = mat.rows[0][0] ** 0
    zero = one * 0
    aug = [list(mat.rows[i]) + [one if j == i else zero for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
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
    """Growing echelonized span of vectors over a field."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []
        self.pivots = []

    def residual(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec):
        "Returns True when vec enlarges the span."
        res = self.residual(vec)
        for p in range(self.dim):
            if res[p]:
                piv = res[p]
                res = [a / piv for a in res]
                self.rows.append(res)
                self.pivots.append(p)
                return True
        return False

    def contains(self, vec):
        return not any(self.residual(vec))

    @property
    def rank(self):
        return len(self.rows)
