"""The determinant law of a representation and the Hilbert-Chow image.

Composing a representation with the determinant is a multiplicative
polynomial map homogeneous of degree n; it is pinned down by finitely
many coefficients, read off the determinant of a generic linear
combination of argument images.  A norm point packages what the toolkit
records of that map: the characteristic polynomials of the generator
images, the mixed coefficient table on the generators, and per-word
determinants up to a length bound.  The pointed version first checks
cyclicity and then forgets the vector, so it factors through the plain
representation point.  For commuting split tuples, the joint
generalized eigenvalues with multiplicities recover the classical
0-cycle of the subscheme, each multiplicity the dimension of a common
kernel of powers (X_k - lam_k)^mult_k, which run on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt

from ._tokens import Block, Record, block_text, parse_tuple
from .commpoly import CommPoly, parse_comm_poly
from .cyclic import require_cyclic
from . import errors, fields
from .errors import PreconditionError, require
from .fields import FpElem, parse_int
from .linalg import (Matrix, _lifted_images, charpoly, det, det_linear_combination,
                     lift, mat_mul, mat_pow, nullspace, table_len, word_matrices)
from .linalg import nc_eval  # noqa: F401  bench/tracing.py rebinds it by name
from .linalg import solve_columns  # noqa: F401  bench/tracing.py rebinds it by name
from .ncpoly import (NCPoly, generator_index, parse_nc_poly, parse_word, word_key,
                     word_str)
from .repvariety import _per_generator


class LawCoefficientTable(Record):
    """Coefficients of det∘rho on a finite argument list.

    Keys are exponent vectors over the arguments; homogeneity forces
    every stored vector to have weight n, which the constructor checks.
    """

    __slots__ = ("field", "n", "args", "coeffs")

    def __init__(self, field, n, args, coeffs):
        for xi in coeffs:
            if len(xi) != len(args) or sum(xi) != n:
                raise PreconditionError(
                    f"exponent vector {xi} is not homogeneous of weight {n}")
        super().__init__(field, n, args, coeffs)

    def sorted_coeffs(self):
        return sorted(self.coeffs.items())

    def coeff_lines(self, prefix):
        "One `prefix (e1,...,ek) = c` line per coefficient, in key order."
        return [f"{prefix} ({','.join(map(str, xi))}) = {self.field.format(c)}"
                for xi, c in self.sorted_coeffs()]

    def to_text(self):
        args = "args " + "; ".join(str(a) for a in self.args)
        return block_text("law-table", self.field, {"n": self.n},
                          [args] + self.coeff_lines("coeff"))

    @classmethod
    def from_text(cls, text):
        block = Block(text, "law-table")
        fld = block.field
        n = block.int_line("n")
        args = tuple(parse_nc_poly(tok.strip(), fld)
                     for tok in block.line("args").split(";"))
        arity = max((a.m for a in args), default=0)
        args = tuple(NCPoly(fld, arity, a.terms) for a in args)
        coeffs, = block.tables(coeff=(lambda xi: parse_tuple(xi, parse_int), fld.parse))
        return cls(fld, n, args, coeffs)


def law_coefficients(rep, args):
    """Coefficient table of det∘rho on the given free-algebra arguments.

    Computed from det(sum_s t_s * rho(a_s)) by reading off monomials in
    the t_s; only weight-n exponent vectors can occur.  The rho(a_s) stay
    integer (`linalg._lifted_images`), so each coefficient is read back
    once, at degree n (K+1).  It is interpolated from one determinant of
    about n^3 steps per coefficient; over MAX_TABLE_WORDS in all are refused.
    """
    args = tuple(args)
    if not args:
        raise PreconditionError("need at least one argument")
    for a in args:
        if not isinstance(a, NCPoly) or a.m != rep.m or a.field != rep.field:
            raise PreconditionError("argument with mismatched field or arity")
    n, k = rep.n, len(args)
    require(n ** 3 * comb(n + k - 1, n), errors.MAX_TABLE_WORDS,
            f"a law table of {k} arguments on {n} x {n} matrices takes {{}} steps")
    images, back, top = _lifted_images(args, rep.mats)
    names = [f"t{s + 1}" for s in range(k)]
    poly = det_linear_combination([Matrix._wrap(M) for M in images], names)
    coeffs = {}
    for mono, c in poly.terms.items():
        c = back(c.numerator, n * (top + 1))
        if c:
            coeffs[tuple(dict(mono).get(t, 0) for t in names)] = c
    return LawCoefficientTable(rep.field, rep.n, args, coeffs)


class NormPoint(Record):
    """The recorded image of a representation point under det∘rho."""

    __slots__ = ("field", "m", "n", "max_len", "gen_charpolys", "mixed_table",
                 "word_dets")

    def to_text(self):
        body = [f"charpoly x{k + 1} = {cp}"
                for k, cp in enumerate(self.gen_charpolys)]
        body += self.mixed_table.coeff_lines("law")
        body += [f"det {word_str(w)} = {self.field.format(self.word_dets[w])}"
                 for w in sorted(self.word_dets, key=word_key)]
        return block_text("norm-point", self.field,
                          {"m": self.m, "n": self.n, "max-len": self.max_len}, body)

    @classmethod
    def from_text(cls, text):
        block = Block(text, "norm-point")
        fld = block.field
        m, n, max_len = (block.int_line(k) for k in ("m", "n", "max-len"))
        charpolys, law, dets = block.tables(
            charpoly=(generator_index, lambda cp: parse_comm_poly(cp, fld)),
            law=(lambda xi: parse_tuple(xi, parse_int), fld.parse),
            det=(lambda w: parse_word(w, fld, m), fld.parse))
        cps = _per_generator(charpolys, m, "charpoly")
        gens = tuple(NCPoly.generator(fld, m, k) for k in range(m))
        table = LawCoefficientTable(fld, n, gens, law)
        return cls(fld, m, n, max_len, cps, table, dets)


def det_point(rep, max_len=None):
    """Norm point of a plain representation point (no cyclicity needed).

    The word products and their determinants run on the integer lift of
    the tuple; a word w's determinant has degree n*|w| in the entries."""
    max_len = table_len(rep.m, rep.n, max_len)
    gen_charpolys = tuple(charpoly(M) for M in rep.mats)
    gens = tuple(NCPoly.generator(rep.field, rep.m, k) for k in range(rep.m))
    mixed = law_coefficients(rep, gens)
    ints, back, field = lift(rep.mats, "a norm point")
    word_dets = {w: back(det(M), rep.n * len(w))
                 for w, M in word_matrices(ints, max_len, field.characteristic).items()}
    return NormPoint(rep.field, rep.m, rep.n, max_len, gen_charpolys, mixed,
                     word_dets)


def hc_point(pt, max_len=None):
    """Norm point of a Hilbert-scheme point: check cyclicity, then forget
    the vector.  Always equal to det_point of the underlying tuple."""
    require_cyclic(pt)
    return det_point(pt.rep, max_len)


# -- 0-cycles of commuting split tuples ----------------------------------------

class Cycle(Record):
    """Joint eigenvalue tuples with multiplicities summing to n."""

    __slots__ = ("field", "m", "n", "points")

    def __init__(self, field, m, n, points):
        if any(len(tup) != m for tup in points):
            raise PreconditionError(f"cycle points must have m = {m} coordinates")
        if sum(points.values()) != n:
            raise PreconditionError("cycle multiplicities must sum to n")
        if any(mult < 1 for mult in points.values()):
            raise PreconditionError("cycle multiplicities must be positive")
        super().__init__(field, m, n, points)

    def sorted_points(self):
        return sorted(self.points.items())

    def to_text(self):
        body = [f"point ({', '.join(map(self.field.format, tup))}) * {mult}"
                for tup, mult in self.sorted_points()]
        return block_text("cycle", self.field, {"m": self.m, "n": self.n}, body)

    @classmethod
    def from_text(cls, text):
        block = Block(text, "cycle")
        fld = block.field
        m, n = block.int_line("m"), block.int_line("n")
        points, = block.tables("*", point=(lambda tup: parse_tuple(tup, fld.parse),
                                           parse_int))
        return cls(fld, m, n, points)


class SplitFailure(Record):
    """A characteristic polynomial without a full set of roots in the
    base field; a normal outcome of cycle extraction, not an error."""

    __slots__ = ("field", "charpoly")

    def to_text(self):
        return block_text("split-failure", self.field, {},
                          [f"charpoly {self.charpoly}"])

    @classmethod
    def from_text(cls, text):
        block = Block(text, "split-failure")
        charpoly = parse_comm_poly(block.line("charpoly"), block.field)
        block.end()
        return cls(block.field, charpoly)


def _divisors(n):
    n = abs(n)
    require(isqrt(n), errors.MAX_ROOT_SCAN,
            "a root search would try {} trial divisions")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _candidates(ints, p):
    """Candidate roots a/b, as int pairs (a, b), of the int coefficients
    `ints`, lowest first: over F_p the residues where a Horner scan vanishes
    mod p; over Q (p = 0), 0 and +-a/b in lowest terms, a dividing the lowest
    nonzero coefficient and b the leading one."""
    if p:
        require(p, errors.MAX_ROOT_SCAN, "a root search would try {} field elements")
        top = ints[::-1]
        for r in range(p):
            acc = 0
            for c in top:
                acc = acc * r + c
            if not acc % p:
                yield r, 1
        return
    nums, dens = _divisors(next(c for c in ints if c)), _divisors(ints[-1])
    require(2 * len(nums) * len(dens), errors.MAX_ROOT_SCAN,
            "a root search would try {} rational candidates")
    yield 0, 1
    for a in nums:
        for b in dens:
            if gcd(a, b) == 1:
                yield a, b
                yield -a, b


def _deflate(ints, a, b, p):
    """Divide b*t - a out of the int coefficients `ints`, lowest first, for
    as long as it divides: exactly over Z (p = 0), else mod p (b = 1).
    Returns the quotient and the number of divisions."""
    mult = 0
    while len(ints) > 1:
        quot, acc = [], 0
        for c in reversed(ints):
            acc, rem = divmod(c + a * acc, b)
            if rem:
                break
            quot.append(acc % p if p else acc)
        if rem or quot[-1]:  # quot[-1] is the remainder, divided by b
            break
        ints, mult = quot[-2::-1], mult + 1
    return ints, mult


def field_roots(poly):
    """Roots in the base field, with multiplicities, of a polynomial in t.

    Returns (sorted list of (root, multiplicity), fully_split flag).  The
    coefficients are lifted to ints once, and each `_candidates` root is
    divided out of them by `_deflate`, whose count is its multiplicity.
    No algebraic extensions are considered.  A search of more than
    MAX_ROOT_SCAN steps is refused up front.
    """
    field = poly.field
    coeffs = poly.univar_coeffs("t")
    if len(coeffs) <= 1:
        raise PreconditionError("root finding needs positive degree")
    p = field.characteristic
    ints, roots = fields.lift(field, coeffs)[0], []
    for a, b in _candidates(ints, p):
        ints, mult = _deflate(ints, a, b, p)
        if mult:
            roots.append((FpElem(p, a) if p else Fraction(a, b), mult))
            if len(ints) == 1:
                break
    roots.sort(key=lambda rm: rm[0])
    return roots, len(ints) == 1


def cycle_extract(rep):
    """Joint generalized eigenvalue tuples of a commuting matrix tuple.

    Commuting matrices share their generalized eigenspaces, so the
    multiplicity of (lam_1..lam_m) is the dimension of the common kernel
    of the (X_k - lam_k)^mult_k, mult_k being lam_k's multiplicity in the
    charpoly of X_k; prefixes grow a generator at a time, and one whose
    common kernel is 0 is dropped.  Returns a Cycle, or a SplitFailure
    carrying the first generator charpoly with too few roots in the base
    field.  The matrices must commute pairwise, tested first on their
    integer lift (mod p over F_p); the entries and the roots are then
    lifted together, so each power runs on ints and is read back once.
    """
    field, n = rep.field, rep.n
    ints, _, _ = lift(rep.mats, "a 0-cycle")
    p = field.characteristic
    for i in range(len(ints)):
        for j in range(i + 1, len(ints)):
            a, b = ints[i].rows, ints[j].rows
            if mat_mul(a, b, p) != mat_mul(b, a, p):
                raise PreconditionError(
                    f"matrices {i + 1} and {j + 1} do not commute")
    roots = []
    for M in rep.mats:
        cp = charpoly(M)
        found, split = field_roots(cp)
        if not split:
            return SplitFailure(field, cp)
        roots.append(found)
    ints, *shifts, back, _ = lift(rep.mats, "a 0-cycle",
                                  *[[lam for lam, _ in found] for found in roots])
    joint = {(): ([], n)}
    for X, found, lifted in zip(ints, roots, shifts):
        powers = []
        for (lam, mult), shift in zip(found, lifted):
            shifted = tuple(tuple(a - shift if i == j else a for j, a in enumerate(r))
                            for i, r in enumerate(X.rows))
            powers.append((lam, [[back(c, mult) for c in r]
                                 for r in mat_pow(shifted, mult, p)]))
        grown = {}
        for prefix, (stacked, _) in joint.items():
            for lam, power in powers:
                dim = len(nullspace(stacked + power, n))
                if dim:
                    grown[prefix + (lam,)] = stacked + power, dim
        joint = grown
    return Cycle(field, rep.m, n, {tup: dim for tup, (_, dim) in joint.items()})


def cycle_product_poly(cycle, var_names):
    """prod_P (t0 + sum_k t_k P_k)^mult as an exact polynomial.

    var_names lists m+1 indeterminates, the affine coordinate t0 first.
    Matches det(t0 I + sum t_k X_k) whenever the cycle was extracted
    from (X_1..X_m).
    """
    if len(var_names) != cycle.m + 1:
        raise PreconditionError("need one variable per generator plus one")
    field = cycle.field
    total = CommPoly.const(field, 1)
    t0 = CommPoly.variable(field, var_names[0])
    for tup, mult in cycle.sorted_points():
        factor = t0
        for name, a in zip(var_names[1:], tup):
            factor = factor + CommPoly.variable(field, name) * a
        total = total * factor ** mult
    return total
