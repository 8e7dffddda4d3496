"""Independent reference implementations and random data helpers.

Everything here deliberately avoids the code paths it is used to check:
determinants come from the permutation expansion, tensor computations
from a dense expansion in the full tensor power with shuffle products.
"""

import itertools
import random
import re
from fractions import Fraction
from functools import reduce
from operator import add

from hilbchow import (GF, QQ, CommPoly, FpElem, Matrix, NCPoly, ParseError, PointedRep,
                      RepPoint, is_cyclic)


def leibniz_det(mat):
    "Permutation-expansion determinant; works for polynomial entries too."
    n = mat.n
    total = None
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = mat.rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * mat.rows[i][perm[i]]
        if sign < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def mat_add(a, b):
    "Entrywise sum of two matrices of one size; `Matrix` only multiplies."
    return Matrix(tuple(map(add, r, s)) for r, s in zip(a.rows, b.rows))


def mat_scale(a, c):
    "The matrix c * a, entry by entry."
    return Matrix(tuple(x * c for x in r) for r in a.rows)


def letter_product(mats, word):
    """The product of `mats` along `word`, one letter at a time, each entry
    an explicit sum; the identity for ().  `Matrix` products are not used."""
    n = mats[0].n
    one = mats[0].rows[0][0] ** 0
    prod = [[one if i == j else one * 0 for j in range(n)] for i in range(n)]
    for k in word:
        X = mats[k].rows
        prod = [[reduce(add, (prod[i][l] * X[l][j] for l in range(n)))
                 for j in range(n)] for i in range(n)]
    return Matrix(prod)


def eval_by_letters(poly, mats):
    "A free-algebra element at `mats`: its terms' letter products, scaled and summed."
    total = Matrix.zeros(mats[0].n, poly.field.zero)
    for word, c in poly.terms.items():
        total = mat_add(total, mat_scale(letter_product(mats, word), c))
    return total


def mat_trace(a):
    "Sum of the diagonal entries."
    return reduce(add, (a.rows[i][i] for i in range(a.n)))


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- brute-force point count over F_p ------------------------------------------

def naive_count(pres, n):
    """(representation tuples, cyclic pairs) of an F_p presentation.

    Its own arithmetic on ints mod p: a tuple is a representation when
    every relation vanishes entrywise, and a pair (tuple, v) is cyclic
    when the images of v under all words of length <= n - 1 have rank n.
    """
    p, m = pres.field.p, pres.m
    relations = [[(w, c.v) for w, c in rel.terms.items()]
                 for rel in pres.relations]
    words = [w for length in range(n)
             for w in itertools.product(range(m), repeat=length)]
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    reps = pairs = 0
    for entries in itertools.product(range(p), repeat=m * n * n):
        mats = [[entries[k * n * n + i * n:k * n * n + (i + 1) * n]
                 for i in range(n)] for k in range(m)]
        if any(_mod_combination(rel, mats, n, p) for rel in relations):
            continue
        reps += 1
        products = [_mod_word(mats, w, n, p) for w in words]
        for v in vectors:
            images = [[sum(a * b for a, b in zip(row, v)) % p for row in prod]
                      for prod in products]
            if _mod_rank(images, p) == n:
                pairs += 1
    return reps, pairs


def _mod_word(mats, word, n, p):
    "Product of the matrices along the word, mod p; the identity for ()."
    prod = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in word:
        prod = [[sum(prod[i][l] * mats[k][l][j] for l in range(n)) % p
                 for j in range(n)] for i in range(n)]
    return prod


def _mod_combination(terms, mats, n, p):
    "True when sum c * (word product) over the (word, c) terms is nonzero mod p."
    total = [[0] * n for _ in range(n)]
    for word, c in terms:
        prod = _mod_word(mats, word, n, p)
        total = [[(t + c * a) % p for t, a in zip(r1, r2)]
                 for r1, r2 in zip(total, prod)]
    return any(any(r) for r in total)


def _mod_rank(rows, p):
    "Rank mod p by Gauss-Jordan elimination."
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [a * inv % p for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def krylov_dimension(mat, p):
    "dim span(e_1, X e_1, ..., X^(n-1) e_1) mod p, by its own products and rank."
    n = len(mat)
    vecs, v = [], [int(i == 0) for i in range(n)]
    for _ in range(n):
        vecs.append(v)
        v = [sum(a * b for a, b in zip(row, v)) % p for row in mat]
    return _mod_rank(vecs, p)


def in_krylov_cell(mat, d):
    """True when X e_i = e_(i+1) for i < d and X e_d lies in span(e_1..e_d)
    (coordinates from 1): the normal forms of Krylov dimension d at e_1."""
    n = len(mat)
    return (all(mat[i][j] == int(i == j + 1) for j in range(d - 1) for i in range(n))
            and not any(mat[i][d - 1] for i in range(d, n)))


def torus_orbit(mat, d, p):
    "The conjugates of X by diag(1, ..., 1, t_(d+1), ..., t_n) over F_p^*."
    n = len(mat)
    orbit = set()
    for ts in itertools.product(range(1, p), repeat=n - d):
        t = (1,) * d + ts
        orbit.add(tuple(tuple(mat[i][j] * t[i] * pow(t[j], -1, p) % p
                              for j in range(n)) for i in range(n)))
    return orbit


def word_traces(field, mats, max_len):
    """Trace of the full product along every nonempty word of length <=
    max_len: each word's product is its longest proper prefix's product times
    its last letter, multiplied out in field elements by its own loops."""
    n = mats[0].n
    level = {(): [[field.one if i == j else field.zero for j in range(n)]
                  for i in range(n)]}
    traces = {}
    for _ in range(max_len):
        level = {word + (k,): [[sum((row[l] * M.rows[l][j] for l in range(n)),
                                    field.zero) for j in range(n)] for row in prod]
                 for word, prod in level.items() for k, M in enumerate(mats)}
        for word, prod in level.items():
            traces[word] = sum((prod[i][i] for i in range(n)), field.zero)
    return traces


# -- closed forms for the point counts over F_q -------------------------------

def gl_count(q, n):
    "|GL_n(F_q)|: the ordered bases of F_q^n."
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def commuting_pairs(q, n):
    """Commuting pairs in M_n(F_q), from the Feit-Fine series
    sum_n |C_n|/|GL_n| x^n = prod_{i>=1} prod_{j>=0} (1 - q^(1-j) x^i)^(-1)
    (Duke Math. J. 27 (1960)).  By the q-binomial theorem the j-product is
    sum_k q^k y^k / prod_{l<=k} (1 - q^(-l)) with y = x^i."""
    euler = [Fraction(1)]
    for k in range(1, n + 1):
        euler.append(euler[-1] * q / (1 - Fraction(1, q ** k)))
    series = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        series = [sum(euler[k] * series[d - i * k] for k in range(d // i + 1))
                  for d in range(n + 1)]
    count = series[n] * gl_count(q, n)
    assert count.denominator == 1
    return int(count)


def partitions(n, most=None):
    "The partitions of n into parts of at most `most`, largest part first."
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def plane_hilbert_points(q, n):
    """|Hilb^n(A^2)(F_q)| = sum over partitions lambda of n of q^(n + len
    lambda), from the cell decomposition of Ellingsrud and Stromme
    (Invent. Math. 87 (1987))."""
    return sum(q ** (n + len(lam)) for lam in partitions(n))


def nilpotent_count(q, n):
    "Nilpotent n x n matrices over F_q: q^(n^2 - n) (Fine and Herstein, 1958)."
    return q ** (n * n - n)


def curve_hilbert_points(q, n):
    "|Hilb^n(A^1)(F_q)|: the monic polynomials of degree n."
    return q ** n


def q_binomial(n, d, q):
    "The Gaussian binomial [n choose d]_q: the d-dimensional subspaces of F_q^n."
    return gl_count(q, n) // (gl_count(q, d) * gl_count(q, n - d) * q ** (d * (n - d)))


def free_hilbert_points(q, m, n):
    """|Hilb^n| of the free algebra on m generators over F_q, by recursion in
    n.  A pair (X, v) of M_n(F_q)^m x F_q^n splits by d = dim of the
    submodule spanned by the word images of v: its [n choose d]_q choices,
    the |GL_d| H_d cyclic pairs on it, and the m n (n - d) entries of the
    X_k outside it are free (Reineke, Algebr. Represent. Theory 8 (2005)):
    q^(m n^2 + n) = sum_{d <= n} [n choose d]_q |GL_d| H_d q^(m n (n - d)),
    with H_0 = 1."""
    counts = [1]
    for top in range(1, n + 1):
        rest = sum(q_binomial(top, d, q) * gl_count(q, d) * counts[d]
                   * q ** (m * top * (top - d)) for d in range(top))
        points, r = divmod(q ** (m * top * top + top) - rest, gl_count(q, top))
        assert r == 0
        counts.append(points)
    return counts[n]


# -- dense tensor-power model of divided powers -------------------------------

def tensor_power(a, k):
    "Expansion of the k-fold tensor power of a free-algebra element."
    out = {}
    for arrangement in itertools.product(sorted(a.terms), repeat=k):
        coeff = a.field.one
        for w in arrangement:
            coeff = coeff * a.terms[w]
        out[arrangement] = out.get(arrangement, a.field.zero) + coeff
    return {k_: v for k_, v in out.items() if v}


def shuffle_mul(d1, d2, field):
    "Graded product of symmetric tensors: sum over slot interleavings."
    out = {}
    for arr1, c1 in d1.items():
        for arr2, c2 in d2.items():
            total = len(arr1) + len(arr2)
            for spots in itertools.combinations(range(total), len(arr1)):
                spot_set = set(spots)
                merged = []
                i1 = iter(arr1)
                i2 = iter(arr2)
                for pos in range(total):
                    merged.append(next(i1) if pos in spot_set else next(i2))
                key = tuple(merged)
                s = out.get(key, field.zero) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def tensor_scale(d, c, field):
    out = {}
    for k_, v in d.items():
        s = v * c
        if s:
            out[k_] = s
    return out


def tensor_add(d1, d2, field):
    out = dict(d1)
    for k_, v in d2.items():
        s = out.get(k_, field.zero) + v
        if s:
            out[k_] = s
        else:
            out.pop(k_, None)
    return out


def symtensor_dense(st):
    "A SymTensor as a dense tensor-power dict, for comparisons."
    return st.arrangements()


def chi(mats, tensor):
    """det∘rho on a symmetric tensor of degree n, for rho given by the n x n
    matrices `mats`.  gamma_n(sum_w t_w w) is the sum over word multisets K
    of prod_w t_w^(mult_w) times the orbit sum of K, so the orbit sum of K
    goes to the coefficient of that monomial in det(sum_w t_w rho(w)), w
    over the distinct words of the tensor.  That determinant is expanded by
    `leibniz_det` over CommPoly entries, rho(w) by `letter_product`: no
    divided-power code and no library determinant is used."""
    field = tensor.field
    words = sorted({w for key in tensor.terms for w in key})
    if not words:
        return field.zero
    names = {w: f"t{i}" for i, w in enumerate(words)}
    images = [(CommPoly.variable(field, names[w]), letter_product(mats, w).rows)
              for w in words]
    n = mats[0].n
    law = leibniz_det(Matrix(tuple(tuple(
        reduce(add, (t * rows[i][j] for t, rows in images)) for j in range(n))
        for i in range(n))))
    total = field.zero
    for key, c in tensor.terms.items():
        mono = tuple((names[w], key.count(w)) for w in sorted(set(key)))
        total += c * law.terms.get(mono, field.zero)
    return total


# -- the regex scalar reader ----------------------------------------------------

_REGEX_NUMBER = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def regex_scalar(field, tok):
    """A block scalar read as `field.parse` once did: the whole token must
    match the `[+|-]a[/b]` regex, `Fraction(str)` reads it, and over F_p the
    reduced Fraction's denominator is inverted mod p.  Refusals are the
    ParseErrors that reader raised, with the same text."""
    try:
        if not _REGEX_NUMBER.fullmatch(tok):
            raise ValueError("expected [+|-]a[/b]")
        x = Fraction(tok)
        if field is QQ:
            return x
        p = field.p
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator {x.denominator} not invertible mod {p}")
        return FpElem(p, x.numerator * pow(x.denominator, -1, p))
    except (ValueError, ZeroDivisionError) as exc:
        what = "rational" if field is QQ else f"F_{field.p} scalar"
        raise ParseError(f"bad {what} {tok!r}: {exc}") from None


# -- random data ----------------------------------------------------------------

FIELDS = (QQ, GF(2), GF(3))


def rand_scalar(field, rng, span=4):
    if field is QQ:
        num = rng.randint(-span, span)
        den = rng.choice((1, 1, 1, 2, 3))
        return Fraction(num, den)
    return field(rng.randrange(field.p))


def rand_int_scalar(field, rng, span=4):
    "Integer-valued scalar (used by base-change tests)."
    return field(rng.randint(-span, span))


def rand_matrix(field, n, rng, span=3, integer=False):
    pick = rand_int_scalar if integer else rand_scalar
    return Matrix(tuple(tuple(pick(field, rng, span) for _ in range(n))
                        for _ in range(n)))


def rand_invertible(field, n, rng, span=3):
    from hilbchow import det
    while True:
        g = rand_matrix(field, n, rng, span)
        if det(g):
            return g


def rand_vector(field, n, rng, span=3):
    return tuple(rand_scalar(field, rng, span) for _ in range(n))


def rand_ncpoly(field, m, rng, max_terms=3, max_len=2, span=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_len)
        word = tuple(rng.randrange(m) for _ in range(length))
        terms[word] = rand_scalar(field, rng, span)
    return NCPoly(field, m, terms)


def rand_symtensor(field, m, n, rng, max_terms=3, max_len=2, span=3):
    "Random degree-n symmetric tensor, its keys n random words each."
    from hilbchow import SymTensor
    return SymTensor(field, m, n, {
        tuple(tuple(rng.randrange(m) for _ in range(rng.randint(0, max_len)))
              for _ in range(n)): rand_scalar(field, rng, span)
        for _ in range(rng.randint(1, max_terms))})


def rand_free_cyclic_point(field, m, n, rng, span=3, tries=200):
    "Random cyclic point for the free algebra on m generators."
    for _ in range(tries):
        mats = tuple(rand_matrix(field, n, rng, span) for _ in range(m))
        v = rand_vector(field, n, rng, span)
        pt = PointedRep(RepPoint(field, mats), v)
        if is_cyclic(pt):
            return pt
    raise AssertionError("failed to sample a cyclic point")


def rand_commuting_split_mats(field, m, n, rng, span=2):
    """Commuting matrices that split over the field, with known cycle.

    Built as g (block_k) g^-1 where each block is a scalar plus a
    polynomial in one fixed nilpotent ladder; returns (mats, expected
    multiset of eigenvalue tuples).
    """
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    block_eigs = [[rand_scalar(field, rng, span) for _ in range(m)]
                  for _ in sizes]
    g = rand_invertible(field, n, rng)
    from hilbchow import matrix_inverse
    ginv = matrix_inverse(g)
    mats = []
    for k in range(m):
        rows = [[field.zero] * n for _ in range(n)]
        offset = 0
        for b, size in enumerate(sizes):
            lam = block_eigs[b][k]
            nil = [rand_scalar(field, rng, span) for _ in range(size - 1)]
            for i in range(size):
                rows[offset + i][offset + i] = lam
                for j in range(i + 1, size):
                    rows[offset + i][offset + j] = nil[j - i - 1] \
                        if j - i - 1 < len(nil) else field.zero
            offset += size
        mats.append(g * Matrix(tuple(tuple(r) for r in rows)) * ginv)
    expected = {}
    for b, size in enumerate(sizes):
        tup = tuple(block_eigs[b])
        expected[tup] = expected.get(tup, 0) + size
    return tuple(mats), expected


def stabilizer_rows(field, mats, v):
    """The homogeneous system g X = X g (X in mats), g v = 0 in the n*n
    entries of g, row-major: its kernel is the stabilizer of (mats, v)
    minus the identity, so it is zero exactly when the stabilizer is
    trivial, as `cyclic.stabilizer_is_trivial` asserts on cyclic points
    without solving anything."""
    n = len(v)
    rows = []
    for X in mats:
        for i in range(n):
            for j in range(n):
                row = [field.zero] * (n * n)
                for b in range(n):
                    row[i * n + b] = row[i * n + b] + X.rows[b][j]
                for a in range(n):
                    row[a * n + j] = row[a * n + j] - X.rows[i][a]
                rows.append(row)
    for i in range(n):
        row = [field.zero] * (n * n)
        for b in range(n):
            row[i * n + b] = v[b]
        rows.append(row)
    return rows


def seeded(name, extra=0):
    import zlib
    return random.Random(zlib.crc32(name.encode()) + extra)
