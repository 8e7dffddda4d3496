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

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from ._tokens import Block, block_text, parse_int, parse_tuple
from .commpoly import CommPoly, parse_comm_poly
from .cyclic import require_cyclic
from . import errors, fields
from .errors import PreconditionError, require
from .fields import QQ, FpElem, PrimeField
from .linalg import (Matrix, _lifted_images, charpoly, det, det_linear_combination,
                     lift, mat_mul, mat_pow, nullspace, word_matrices)
from .linalg import nc_eval  # noqa: F401  bench/tracing.py rebinds it by name
from .linalg import solve_columns  # noqa: F401  bench/tracing.py rebinds it by name
from .ncpoly import NCPoly, parse_nc_poly, parse_word, word_key, word_str
from .repvariety import _generator, _per_generator, default_table_len


@dataclass(frozen=True)
class LawCoefficientTable:
    """Coefficients of det∘rho on a finite argument list.

    Keys are exponent vectors over the arguments; homogeneity forces
    every stored vector to have weight n, which the constructor checks.
    """

    field: object
    n: int
    args: tuple
    coeffs: dict

    def __post_init__(self):
        for xi in self.coeffs:
            if len(xi) != len(self.args) or sum(xi) != self.n:
                raise PreconditionError(
                    f"exponent vector {xi} is not homogeneous of weight {self.n}")

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
        coeffs = {parse_tuple(lhs, parse_int): fld.parse(rhs)
                  for _, lhs, rhs in block.pairs("coeff")}
        return cls(fld, n, args, coeffs)


def law_coefficients(rep, args):
    """Coefficient table of det∘rho on the given free-algebra arguments.

    Computed from det(sum_s t_s * rho(a_s)) by reading off monomials in
    the t_s; only weight-n exponent vectors can occur.  The rho(a_s) stay
    integer (`linalg._lifted_images`), so each coefficient is read back
    once, at degree n (K+1).  The det takes about n^3 steps per
    coefficient; over MAX_TABLE_WORDS in all are refused.
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


@dataclass(frozen=True)
class NormPoint:
    """The recorded image of a representation point under det∘rho."""

    field: object
    m: int
    n: int
    max_len: int
    gen_charpolys: tuple
    mixed_table: LawCoefficientTable
    word_dets: dict

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
        charpolys = {}
        law = {}
        dets = {}
        for head, lhs, rhs in block.pairs("charpoly", "law", "det"):
            if head == "charpoly":
                charpolys[_generator(lhs, m)] = parse_comm_poly(rhs, fld)
            elif head == "law":
                law[parse_tuple(lhs, parse_int)] = fld.parse(rhs)
            else:
                dets[parse_word(lhs, fld, m)] = fld.parse(rhs)
        cps = _per_generator(charpolys, m, "charpoly")
        gens = tuple(NCPoly.generator(fld, m, k) for k in range(m))
        table = LawCoefficientTable(fld, n, gens, law)
        return cls(fld, m, n, max_len, cps, table, dets)


def det_point(rep, max_len=None):
    """Norm point of a plain representation point (no cyclicity needed).

    The word products and their determinants run on the integer lift of
    the tuple; a word w's determinant has degree n*|w| in the entries."""
    if max_len is None:
        max_len = default_table_len(rep.n)
    if max_len < 1:
        raise PreconditionError("max_len must be at least 1")
    gen_charpolys = tuple(charpoly(M) for M in rep.mats)
    gens = tuple(NCPoly.generator(rep.field, rep.m, k) for k in range(rep.m))
    mixed = law_coefficients(rep, gens)
    ints, back, _ = lift(rep.mats, "a norm point")
    word_dets = {w: back(det(M), rep.n * len(w))
                 for w, M in word_matrices(ints, max_len).items()}
    return NormPoint(rep.field, rep.m, rep.n, max_len, gen_charpolys, mixed,
                     word_dets)


def hc_point(pt, max_len=None):
    """Norm point of a Hilbert-scheme point: check cyclicity, then forget
    the vector.  Always equal to det_point of the underlying tuple."""
    require_cyclic(pt)
    return det_point(pt.rep, max_len)


# -- 0-cycles of commuting split tuples ----------------------------------------

@dataclass(frozen=True)
class Cycle:
    """Joint eigenvalue tuples with multiplicities summing to n."""

    field: object
    m: int
    n: int
    points: dict

    def __post_init__(self):
        if sum(self.points.values()) != self.n:
            raise PreconditionError("cycle multiplicities must sum to n")
        if any(mult < 1 for mult in self.points.values()):
            raise PreconditionError("cycle multiplicities must be positive")

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
        points = {parse_tuple(body, fld.parse): parse_int(mult)
                  for _, body, mult in block.pairs("point", sep="*")}
        return cls(fld, m, n, points)


@dataclass(frozen=True)
class SplitFailure:
    """A characteristic polynomial without a full set of roots in the
    base field; a normal outcome of cycle extraction, not an error."""

    field: object
    charpoly: CommPoly

    def to_text(self):
        return block_text("split-failure", self.field, {},
                          [f"charpoly {self.charpoly}"])

    @classmethod
    def from_text(cls, text):
        block = Block(text, "split-failure")
        return cls(block.field, parse_comm_poly(block.line("charpoly"), block.field))


def _synthetic_divide(coeffs, r):
    """Divide by (t - r); returns (quotient coeffs, remainder)."""
    out = [None] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * r
    return out, acc


def _divisors(n):
    n = abs(n)
    require(isqrt(n), errors.MAX_ROOT_SCAN,
            "a root search would try {} trial divisions")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_root_candidates(coeffs):
    """Possible rational roots of an exact-coefficient polynomial."""
    ints, _ = fields.lift(QQ, coeffs)
    lead = ints[-1]
    lowest = next(c for c in ints if c != 0)
    nums, dens = _divisors(lowest), _divisors(lead)
    require(2 * len(nums) * len(dens), errors.MAX_ROOT_SCAN,
            "a root search would try {} rational candidates")
    cands = {Fraction(0)}
    for p in nums:
        for q in dens:
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)


def _roots_mod_p(ints, p):
    """Roots in F_p of the integer coefficients `ints`, lowest first, up to the
    degree in number: Horner on ints, reduced mod p once per candidate."""
    top, roots = ints[::-1], []
    for r in range(p):
        acc = 0
        for c in top:
            acc = acc * r + c
        if not acc % p:
            roots.append(FpElem(p, r))
            if len(roots) == len(top) - 1:
                break
    return roots


def field_roots(poly):
    """Roots in the base field, with multiplicities, of a polynomial in t.

    Returns (sorted list of (root, multiplicity), fully_split flag).
    Over F_p the candidates are the roots an integer scan of all p elements
    finds; over Q they come from the rational root bound.  No algebraic
    extensions are considered.
    A search of more than MAX_ROOT_SCAN steps is refused up front.
    """
    field = poly.field
    coeffs = poly.univar_coeffs("t")
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) <= 1:
        raise PreconditionError("root finding needs positive degree")
    degree = len(coeffs) - 1
    if isinstance(field, PrimeField):
        require(field.p, errors.MAX_ROOT_SCAN,
                "a root search would try {} field elements")
        candidates = _roots_mod_p(fields.lift(field, coeffs)[0], field.p)
    else:
        candidates = [field(c) for c in _rational_root_candidates(coeffs)]
    roots = []
    for cand in candidates:
        mult = 0
        while len(coeffs) > 1:
            quot, rem = _synthetic_divide(coeffs, cand)
            if rem:
                break
            coeffs = quot
            mult += 1
        if mult:
            roots.append((cand, mult))
    found = sum(mult for _, mult in roots)
    roots.sort(key=lambda rm: rm[0])
    return roots, found == degree


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
    entries = [a for M in rep.mats for r in M.rows for a in r]
    values, back = fields.lift(field, entries + [lam for fd in roots for lam, _ in fd])
    cut = len(entries)
    rows, shifts = list(zip(*[iter(values[:cut])] * n)), iter(values[cut:])
    joint = {(): ([], n)}
    for k, found in enumerate(roots):
        powers = []
        for (lam, mult), shift in zip(found, shifts):
            shifted = tuple(tuple(a - shift if i == j else a for j, a in enumerate(r))
                            for i, r in enumerate(rows[k * n:(k + 1) * n]))
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
