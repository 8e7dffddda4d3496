"""The benchmark's own exact arithmetic and text handling.

Output checks must not reuse the code they check, so this module
re-implements, with nothing but `fractions.Fraction` and plain ints, the
little that the checks need: scalars over Q and F_p, square-matrix
products, the permutation-sum (Leibniz) determinant, Gauss-Jordan
inversion and rank, and readers for the words and matrix rows that
appear in `hilbchow` output blocks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Field:
    """Q when `p` is None, else F_p with elements kept as ints in [0, p)."""

    def __init__(self, p=None):
        self.p = p
        self.zero = self.red(0)
        self.one = self.red(1)

    def red(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def parse(self, tok):
        x = Fraction(tok)
        if self.p is None:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)

    def header(self):
        return "field Q" if self.p is None else f"field F {self.p}"

    def label(self):
        "The `--field` argument of the CLI."
        return "Q" if self.p is None else f"F{self.p}"

    def rand(self, rng, lo, hi):
        return self.red(rng.randint(lo, hi))


def identity(f, n):
    return tuple(tuple(f.one if i == j else f.zero for j in range(n))
                 for i in range(n))


def mat_mul(f, a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(f.red(sum(x * y for x, y in zip(row, col)))
                       for col in cols) for row in a)


def mat_vec(f, a, v):
    return tuple(f.red(sum(x * y for x, y in zip(row, v))) for row in a)


def mat_poly(f, coeffs, a):
    "c0 + c1 a + c2 a^2 + ... for a square matrix a."
    n = len(a)
    total = tuple(tuple(f.zero for _ in range(n)) for _ in range(n))
    power = identity(f, n)
    for c in coeffs:
        total = tuple(tuple(f.red(x + c * y) for x, y in zip(r1, r2))
                      for r1, r2 in zip(total, power))
        power = mat_mul(f, power, a)
    return total


def leibniz_det(f, a):
    "Sum over permutations; independent of any elimination or Berkowitz code."
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod *= a[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return f.red(total)


def mat_inv(f, a):
    "Gauss-Jordan inverse; raises ZeroDivisionError when singular."
    n = len(a)
    rows = [list(r) + [f.one if i == j else f.zero for j in range(n)]
            for i, r in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        s = f.inv(rows[col][col])
        rows[col] = [f.red(x * s) for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                c = rows[i][col]
                rows[i] = [f.red(x - c * y) for x, y in zip(rows[i], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def rank(f, vectors):
    rows = [list(v) for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = f.inv(rows[r][col])
        rows[r] = [f.red(x * s) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [f.red(x - c * y) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def word_image(f, mats, word, v):
    "Image of v under the word's matrix product; the first letter acts last."
    for k in reversed(word):
        v = mat_vec(f, mats[k], v)
    return v


def words_up_to(m, max_len):
    "Graded-lex order: by length, then lexicographically."
    for length in range(max_len + 1):
        yield from itertools.product(range(m), repeat=length)


def word_sort_key(w):
    return (len(w), w)


# -- text ----------------------------------------------------------------------

def word_text(w):
    return "*".join(f"x{k + 1}" for k in w) if w else "1"


def canonical_word(w):
    "hilbchow's printed word form: adjacent repeats become powers."
    if not w:
        return "1"
    groups = [(k, len(list(g))) for k, g in itertools.groupby(w)]
    return "*".join(f"x{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in groups)


def parse_word(text):
    "Inverse of hilbchow's canonical word form: '1', 'x1^2*x2', ..."
    text = text.strip()
    if text == "1":
        return ()
    out = []
    for piece in text.split("*"):
        name, _, exp = piece.partition("^")
        if not name.startswith("x"):
            raise ValueError(f"bad word {text!r}")
        out.extend([int(name[1:]) - 1] * (int(exp) if exp else 1))
    return tuple(out)


def rows_text(a):
    return "; ".join(" ".join(str(x) for x in row) for row in a)


def parse_rows(f, text):
    return tuple(tuple(f.parse(tok) for tok in chunk.split())
                 for chunk in text.split(";"))


def point_text(f, mats, vec=None):
    lines = ["point", f.header(), f"n {len(mats[0])}"]
    lines += ["mat " + rows_text(a) for a in mats]
    if vec is not None:
        lines.append("vec " + " ".join(str(x) for x in vec))
    return "\n".join(lines) + "\n"


def presentation_text(f, m, relations=()):
    lines = [f.header(), "gens " + " ".join(f"x{k + 1}" for k in range(m))]
    lines += [f"rel {r}" for r in relations]
    return "\n".join(lines) + "\n"


def expect_head(lines, head):
    "Raise unless the block starts with exactly these lines."
    if lines[:len(head)] != head:
        raise ValueError(f"block head {lines[:len(head)]!r} != {head!r}")
    return lines[len(head):]


def split_eq(line, prefix):
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r} line, got {line!r}")
    lhs, rhs = line[len(prefix):].rsplit(" = ", 1)
    return lhs, rhs
