"""Divided powers of the free algebra and their symmetric-tensor model.

A divided-power monomial is a product of symbols w^[a] over distinct
words w.  Arbitrary inputs m^[k] (m any free-algebra element) normalize
through the defining rules: negative exponents vanish, m^[0] = 1,
scalars come out as alpha^k, sums expand as sum over exponent splittings,
and same-base products merge with binomial coefficients.  Over a field
the degree-n part is isomorphic to the symmetric tensors of degree n,
realized here on the orbit-sum basis indexed by word multisets; that
basis needs no divisions, so everything stays valid over F_p.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

from ._tokens import Block, block_text, fold, number, parse_expr
from .commpoly import SparseElement
from .errors import ParseError, PreconditionError
from .ncpoly import (NCPoly, arity, free_leaf, parse_word, short_words, word_key,
                     word_str)
from .ncpoly import parse_nc_poly  # noqa: F401  bench/tracing.py rebinds it by name


@dataclass(frozen=True)
class DividedMonomial:
    """Product of w^[a] factors over distinct words, exponents >= 1."""

    factors: tuple

    def __post_init__(self):
        factors = tuple((tuple(w), int(a)) for w, a in self.factors)
        if any(a < 1 for _, a in factors):
            raise PreconditionError("divided-power exponents must be >= 1")
        words = [w for w, _ in factors]
        if len(set(words)) != len(words):
            raise PreconditionError("divided-power monomial with repeated word")
        if sorted(words, key=word_key) != words:
            factors = tuple(sorted(factors, key=lambda fa: word_key(fa[0])))
        object.__setattr__(self, "factors", factors)

    @property
    def degree(self):
        return sum(a for _, a in self.factors)

    def sort_key(self):
        return tuple((word_key(w), a) for w, a in self.factors)

    def __str__(self):
        if not self.factors:
            return "(1)^[0]"
        return "*".join(f"({word_str(w)})^[{a}]" for w, a in self.factors)


def _merge_monomials(m1, m2):
    """Product of two monomials: shared words merge with binomials.

    Returns (monomial, integer coefficient).
    """
    exps = dict(m1.factors)
    mult = 1
    for w, a in m2.factors:
        if w in exps:
            mult *= comb(exps[w] + a, a)
            exps[w] += a
        else:
            exps[w] = a
    mono = DividedMonomial(tuple(sorted(exps.items(), key=lambda fa: word_key(fa[0]))))
    return mono, mult


class DPElement(SparseElement):
    """Normalized linear combination of divided-power monomials."""

    __slots__ = ("m",)
    _META = ("m",)
    _order = staticmethod(DividedMonomial.sort_key)
    _key_str = staticmethod(str)

    def __init__(self, field, m, terms=None):
        self.m = m
        super().__init__(field, terms)

    @classmethod
    def one(cls, field, m):
        return cls(field, m, {DividedMonomial(()): field.one})

    def degrees(self):
        return sorted({mono.degree for mono in self.terms})

    def _check(self, other):
        if not self._same_field(other) or other.m != self.m:
            raise ValueError("mixing divided powers over different algebras")

    def _times(self, other):
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, mult = _merge_monomials(m1, m2)
                c = c1 * c2 * self.field(mult)
                s = acc.get(mono)
                s = c if s is None else s + c
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        return self._like(acc)

    def to_text(self):
        return block_text("divided-power", self.field, {"m": self.m},
                          [f"term {mono} = {self.field.format(c)}"
                           for mono, c in self.sorted_terms()])

    @classmethod
    def from_text(cls, text):
        block = Block(text, "divided-power")
        fld = block.field
        m = block.int_line("m")
        out = DPElement.zero(fld, m)
        for _, lhs, rhs in block.pairs("term"):
            out = out + parse_dp_expr(lhs, fld, m) * fld.parse(rhs)
        return out


def _compositions(total, parts):
    "All tuples of `parts` nonnegative integers summing to `total`."
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)


def dp_power(a, k):
    """The divided power a^[k] of a free-algebra element, normalized.

    Expands over the word support of a: scalars factor out with power k
    and the sum rule distributes the exponent over the words.
    """
    if not isinstance(a, NCPoly):
        raise PreconditionError("dp_power needs a free-algebra element")
    field, m = a.field, a.m
    if k < 0:
        return DPElement.zero(field, m)
    if k == 0:
        return DPElement.one(field, m)
    support = sorted(a.terms.items(), key=lambda wc: word_key(wc[0]))
    acc = {}
    for alpha in _compositions(k, len(support)):
        coeff = field.one
        factors = []
        for (w, c), e in zip(support, alpha):
            if e == 0:
                continue
            coeff = coeff * c ** e
            factors.append((w, e))
        if not coeff:
            continue
        mono = DividedMonomial(tuple(factors))
        s = acc.get(mono, field.zero) + coeff
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
    return DPElement(field, m, acc)


def parse_dp_expr(text, field, m=None):
    """Parse sums and products of scalars and divided powers `base^[k]` of
    free-algebra elements; m defaults to the largest index used."""
    tree = parse_expr(text)
    m = arity(tree, text, m)
    free = free_leaf(field, m)
    one = DPElement.one(field, m)

    def leaf(node):
        if node[0] == "name":
            raise ParseError(f"a bare word needs a ^[k] exponent in {text!r}")
        return one * number(node, field)

    return fold(tree, leaf, lambda base, k:
                dp_power(fold(short_words(base, text), free), k))


# -- symmetric tensors on the orbit-sum basis ---------------------------------

class SymTensor(SparseElement):
    """Degree-n symmetric tensor over the free algebra.

    Keys are sorted word multisets of size n; the basis element of a
    multiset is the sum over its distinct slot arrangements.
    """

    __slots__ = ("m", "degree")
    _META = ("m", "degree")

    def __init__(self, field, m, degree, terms=None):
        if degree < 0:
            raise PreconditionError("tensor degree must be >= 0")
        self.m = m
        self.degree = degree
        merged = {}
        for key, c in (terms or {}).items():
            if len(key) != degree:
                raise PreconditionError(
                    f"multiset size {len(key)} does not match degree {degree}")
            key = tuple(sorted((tuple(w) for w in key), key=word_key))
            c = field(c)
            s = merged.get(key)
            merged[key] = c if s is None else s + c
        super().__init__(field, merged)

    @staticmethod
    def _order(key):
        return tuple(word_key(w) for w in key)

    @staticmethod
    def _key_str(key):
        return "{" + ", ".join(word_str(w) for w in key) + "}"

    def _check(self, other):
        if not self._same_field(other) or other.m != self.m:
            raise ValueError("mixing tensors over different algebras")
        if other.degree != self.degree:
            raise PreconditionError(
                f"degree mismatch: {self.degree} vs {other.degree}")

    def _times(self, other):
        return ts_mul(self, other)

    def arrangements(self):
        """Expansion into the full tensor power: tuple-of-words -> coeff."""
        full = {}
        for key, c in self.terms.items():
            for arr in set(itertools.permutations(key)):
                full[arr] = c
        return full

    def to_text(self):
        return block_text("symtensor", self.field,
                          {"m": self.m, "degree": self.degree},
                          [f"term {self._key_str(key)} = {self.field.format(c)}"
                           for key, c in self.sorted_terms()])

    @classmethod
    def from_text(cls, text):
        block = Block(text, "symtensor")
        fld = block.field
        m = block.int_line("m")
        degree = block.int_line("degree")
        terms = {}
        for _, lhs, rhs in block.pairs("term"):
            if not (lhs.startswith("{") and lhs.endswith("}")):
                raise ParseError(f"expected word multiset in braces: {lhs!r}")
            inner = lhs[1:-1].strip()
            words = tuple(parse_word(tok.strip(), fld, m)
                          for tok in inner.split(",")) if inner else ()
            terms[words] = fld.parse(rhs)
        return cls(fld, m, degree, terms)


def tau(x, n, field=None, m=None):
    """Orbit-sum image of divided-power data in degree n.

    A monomial prod_w w^[a_w] maps to the orbit sum of the multiset with
    each word repeated a_w times; extended linearly over a DPElement.
    Degrees must match.  For a bare monomial the field is required and
    the arity defaults to the largest generator appearing.
    """
    if isinstance(x, DividedMonomial):
        if field is None:
            raise PreconditionError("tau on a bare monomial needs the field")
        if m is None:
            m = max((k + 1 for w, _ in x.factors for k in w), default=0)
        x = DPElement(field, m, {x: field.one})
    if not isinstance(x, DPElement):
        raise PreconditionError("tau expects a DividedMonomial or DPElement")
    out = SymTensor.zero(x.field, x.m, n)
    acc = {}
    for mono, c in x.terms.items():
        if mono.degree != n:
            raise PreconditionError(
                f"degree mismatch: monomial {mono} has degree {mono.degree}, not {n}")
        key = []
        for w, a in mono.factors:
            key.extend([w] * a)
        key = tuple(sorted(key, key=word_key))
        acc[key] = acc.get(key, x.field.zero) + c
    out.terms = {k: c for k, c in acc.items() if c}
    return out


def gamma_n(a, n):
    """The n-th divided power of a free-algebra element, as a tensor.

    Coefficient of a multiset is the product of the coefficients of its
    words; this is the expansion of the n-fold tensor power of `a`
    collected on orbit sums.
    """
    if not isinstance(a, NCPoly):
        raise PreconditionError("gamma_n needs a free-algebra element")
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    field = a.field
    support = sorted(a.terms.items(), key=lambda wc: word_key(wc[0]))
    terms = {}
    for combo in itertools.combinations_with_replacement(range(len(support)), n):
        coeff = field.one
        key = []
        for idx in combo:
            w, c = support[idx]
            coeff = coeff * c
            key.append(w)
        if coeff:
            terms[tuple(key)] = coeff
    return SymTensor(field, a.m, n, terms)


def _orbit_size(key):
    "Number of distinct slot arrangements of a word multiset."
    size = factorial(len(key))
    for mult in Counter(key).values():
        size //= factorial(mult)
    return size


def ts_mul(s, t):
    """Product in the ambient tensor power, computed on orbit sums.

    The arrangements of the first key multiply slotwise by word
    concatenation with those of the second; by symmetry it is enough to
    fix the sorted first key.  If a result orbit C is then hit N times,
    the product of the two orbit sums has coefficient N·|orb(key1)|/|orb(C)|
    on C, an exact integer, so no divisions occur.
    """
    if not isinstance(s, SymTensor) or not isinstance(t, SymTensor):
        raise PreconditionError("ts_mul expects two symmetric tensors")
    s._check(t)
    field = s.field
    arrangements = [(set(itertools.permutations(key2)), c2)
                    for key2, c2 in t.terms.items()]
    terms = {}
    for key1, c1 in s.terms.items():
        orbit1 = _orbit_size(key1)
        for arrs, c2 in arrangements:
            hits = Counter(tuple(sorted(map(tuple.__add__, key1, arr), key=word_key))
                           for arr in arrs)
            c = c1 * c2
            for key, hit in hits.items():
                terms[key] = (terms.get(key, field.zero)
                              + c * field(hit * orbit1 // _orbit_size(key)))
    return SymTensor(field, s.m, s.degree, terms)
