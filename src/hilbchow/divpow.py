"""Divided powers of the free algebra and their symmetric-tensor model.

A divided-power monomial is a product of symbols w^[a] over distinct
words w.  Arbitrary inputs m^[k] (m any free-algebra element) normalize
through the defining rules: negative exponents vanish, m^[0] = 1,
scalars come out as alpha^k, sums expand as sum over exponent splittings,
and same-base products merge with binomial coefficients.  Over a field
the degree-n part is isomorphic to the symmetric tensors of degree n,
realized here on the orbit-sum basis indexed by word multisets.  Its
product `ts_mul` ranks the concatenated words once and runs on the
integer lift of the coefficients: |supp s|·sum over keys K2 of t of
|orb(K2)| sorted n-tuples of ranks, then one exact division per result
orbit, so it stays valid over F_p.  Both normal forms of a^[n], the
divided-power monomials and the orbit sums, are read off one enumeration
of the splits of n into exponents over the support of a, whose products
run on the integer lift as well; `_words` is the one place a monomial key
becomes its multiset.
"""

from __future__ import annotations

from math import comb

from ._tokens import Block, block_text, fold, number, parse_expr, parse_tuple
from .commpoly import SparseElement
from . import errors
from .errors import ParseError, PreconditionError, require
from .fields import lift
from .ncpoly import (MAX_WORD_LENGTH, NCPoly, arity, free_leaf, parse_word,
                     short_words, word_key, word_str)
from .ncpoly import parse_nc_poly  # noqa: F401  bench/tracing.py rebinds it by name


def _merge_monomials(k1, k2):
    "Product of two monomial keys and its integer coefficient (binomials)."
    exps = dict(k1)
    mult = 1
    for w, a in k2:
        if w in exps:
            mult *= comb(exps[w] + a, a)
            exps[w] += a
        else:
            exps[w] = a
    return tuple(sorted(exps.items(), key=lambda fa: word_key(fa[0]))), mult


def _words(key):
    "The word-sorted multiset of a monomial key, each word w repeated a_w times."
    return tuple(w for w, a in key for _ in range(a))


class DPElement(SparseElement):
    """Normalized linear combination of divided-power monomials.

    The key of a monomial prod_w w^[a_w] is its factor tuple ((w, a_w), ...):
    distinct words in `word_key` order, every a_w >= 1; () is the unit.
    """

    __slots__ = ("m",)
    _META = ("m",)

    def __init__(self, field, m, terms=None):
        self.m = m
        super().__init__(field, terms)

    @classmethod
    def one(cls, field, m):
        return cls(field, m, {(): field.one})

    @staticmethod
    def _order(key, rank=word_key):
        return [(rank(w), a) for w, a in key]

    @staticmethod
    def _key_str(key, name=word_str):
        if not key:
            return "(1)^[0]"
        return "*".join(f"({name(w)})^[{a}]" for w, a in key)

    def _check(self, other):
        if not self._same_field(other) or other.m != self.m:
            raise ValueError("mixing divided powers over different algebras")

    def _times(self, other):
        require(len(self.terms) * len(other.terms), errors.MAX_TABLE_WORDS,
                f"a divided-power product of {len(self.terms)} by "
                f"{len(other.terms)} terms has {{}} term pairs")
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key, mult = _merge_monomials(k1, k2)
                c = c1 * c2 * self.field(mult)
                s = acc.get(key)
                s = c if s is None else s + c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return self._like(acc)

    def to_text(self):
        return block_text("divided-power", self.field, {"m": self.m},
                          _term_lines(self, (w for key in self.terms for w, _ in key)))

    @classmethod
    def from_text(cls, text):
        block = Block(text, "divided-power")
        fld = block.field
        m = block.int_line("m")
        out = DPElement(fld, m)
        for _, lhs, rhs in block.pairs("term"):
            out = out + parse_dp_expr(lhs, fld, m) * fld.parse(rhs)
        return out


def _check_size(a, k, width):
    "Refuse, before enumerating, an a^[k] whose terms list over MAX_TABLE_WORDS words."
    s = len(a.terms)
    splits = comb(k + s - 1, k) if s else 1
    require(splits * width, errors.MAX_TABLE_WORDS, f"a divided power of degree {k} "
            f"lists {{}} words in {splits} terms of {width}")


def _tensor_power(a, k):
    """The k-fold tensor power of a free-algebra element collected on word
    multisets, k >= 0: (key of prod w^[e_w], prod c_w^e_w) for each split of k
    into exponents e_w over the words w of the support, c_w their
    coefficients.  A split costs O(|supp a|) however large k is; distinct
    splits give distinct monomials and the products are never zero.  The
    products run on the integer lift of the c_w (powers reduced mod p over
    F_p), and each has degree k in them, so it is read back as back(., k)."""
    support = sorted(a.terms.items(), key=lambda wc: word_key(wc[0]))
    if k and not support:  # 0^[k] = 0 for k > 0
        return
    ints, back = lift(a.field, [c for _, c in support])
    p = a.field.characteristic or None
    exps = [k] + [0] * (len(support) - 1)
    while True:
        factors, coeff = [], 1
        for (w, _), c, e in zip(support, ints, exps):
            if e:
                factors.append((w, e))
                coeff *= c if e == 1 else pow(c, e, p)
        yield tuple(factors), back(coeff, k)
        # next split in reverse lexicographic order: the last nonzero
        # exponent before the final one moves 1 and the final one right
        tail, exps[-1] = exps[-1], 0
        i = len(exps) - 2
        while i >= 0 and not exps[i]:
            i -= 1
        if i < 0:
            return
        exps[i] -= 1
        exps[i + 1] = tail + 1


def dp_power(a, k):
    """The divided power a^[k] of a free-algebra element, normalized: by
    the scalar and sum rules, the terms of the tensor power."""
    if not isinstance(a, NCPoly):
        raise PreconditionError("dp_power needs a free-algebra element")
    terms = ()
    if k >= 0:
        _check_size(a, k, len(a.terms))
        terms = _tensor_power(a, k)
    return DPElement(a.field, a.m)._like(dict(terms))


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
    def _order(key, rank=word_key):
        return [rank(w) for w in key]

    @staticmethod
    def _key_str(key, name=word_str):
        return "{" + ", ".join(map(name, key)) + "}"

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
        return {arr: c for key, c in self.terms.items() for arr in _arrangements(key)}

    def to_text(self):
        return block_text("symtensor", self.field,
                          {"m": self.m, "degree": self.degree},
                          _term_lines(self, (w for key in self.terms for w in key)))

    @classmethod
    def from_text(cls, text):
        block = Block(text, "symtensor")
        fld = block.field
        m = block.int_line("m")
        degree = block.int_line("degree")

        def multiset(text):
            words = parse_tuple(text, lambda w: parse_word(w, fld, m), "{}")
            return tuple(sorted(words, key=word_key))
        terms, = block.tables(term=(multiset, fld.parse))
        return cls(fld, m, degree, terms)


def tau(x, n):
    """Orbit-sum image of a divided-power element in degree n.

    A monomial prod_w w^[a_w] maps to the orbit sum of its multiset, each
    word repeated a_w times; distinct monomials have distinct multisets,
    so the terms are relabelled one to one.  Degrees must match.
    """
    if not isinstance(x, DPElement):
        raise PreconditionError("tau expects a DPElement")
    for key in x.terms:
        degree = sum(a for _, a in key)
        if degree != n:
            raise PreconditionError(f"degree mismatch: monomial {x._key_str(key)} "
                                    f"has degree {degree}, not {n}")
    return SymTensor(x.field, x.m, n)._like(
        {_words(key): c for key, c in x.terms.items()})


def gamma_n(a, n):
    """The n-th divided power of a free-algebra element, as a tensor: the
    n-fold tensor power of `a` collected on orbit sums.  Each key lists n
    words, so n is capped at MAX_WORD_LENGTH."""
    if not isinstance(a, NCPoly):
        raise PreconditionError("gamma_n needs a free-algebra element")
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    if n > MAX_WORD_LENGTH:
        raise ParseError(f"degree {n} exceeds the limit of {MAX_WORD_LENGTH}")
    _check_size(a, n, n)
    return SymTensor(a.field, a.m, n)._like(
        {_words(key): c for key, c in _tensor_power(a, n)})


def _orbit_size(key):
    """Number of distinct slot arrangements of a sorted multiset: the
    multinomial of its runs, built up one slot at a time."""
    size = run = 1
    for i in range(1, len(key)):
        run = run + 1 if key[i] == key[i - 1] else 1
        size = size * (i + 1) // run
    return size


def _arrangements(key):
    """The |orb(key)| distinct slot orders of a multiset, each built once: an
    item goes into each slot up to its first placed copy, so no |key|! walk."""
    arrs = [()]
    for x in key:
        arrs = [a[:i] + (x,) + a[i:] for a in arrs
                for i in range((a.index(x) if x in a else len(a)) + 1)]
    return arrs


def _ranked(words):
    "Each distinct word's rank in `word_key` order, listed in that order."
    return {w: i for i, w in enumerate(sorted(set(words), key=word_key))}


def _term_lines(elem, words):
    """The `term` lines of a block in key order; each distinct word of the
    keys is ranked and named once, and keys compare by the ranks."""
    rank = _ranked(words)
    name, by_rank = {w: word_str(w) for w in rank}.__getitem__, rank.__getitem__
    return [f"term {elem._key_str(key, name)} = {elem.field.format(c)}" for key, c in
            sorted(elem.terms.items(), key=lambda kc: elem._order(kc[0], by_rank))]


def ts_mul(s, t):
    """Product in the ambient tensor power, computed on orbit sums.

    The arrangements of the second key multiply slotwise by word
    concatenation with the sorted first key.  If a result orbit C is hit N
    times, the product of the two orbit sums has coefficient
    N·|orb(key1)|/|orb(C)| on C: each hit adds c1·c2·|orb(key1)|, and each
    C's sum is divided, exactly, once by |orb(C)|."""
    if not isinstance(s, SymTensor) or not isinstance(t, SymTensor):
        raise PreconditionError("ts_mul expects two symmetric tensors")
    s._check(t)
    require(len(s.terms) * sum(map(_orbit_size, t.terms)), errors.MAX_TABLE_WORDS,
            f"a tensor product of {len(s.terms)} by {len(t.terms)} keys "
            "has {} arrangement pairs")
    ints, back = lift(s.field, [*s.terms.values(), *t.terms.values()])
    words1 = {w for key in s.terms for w in key}
    index2 = {v: j for j, v in enumerate({w for key in t.terms for w in key})}
    rank = _ranked(u + v for u in words1 for v in index2)
    table, concat = {u: [rank[u + v] for v in index2] for u in words1}, list(rank)
    arrangements = [(_arrangements([index2[v] for v in key2]), c2)
                    for key2, c2 in zip(t.terms, ints[len(s.terms):])]
    acc, get = {}, list.__getitem__
    for key1, c1 in zip(s.terms, ints):
        rows = [table[u] for u in key1]
        c1 *= _orbit_size(key1)
        for arrs, c2 in arrangements:
            c = c1 * c2
            for arr in arrs:
                key = tuple(sorted(map(get, rows, arr)))
                acc[key] = acc.get(key, 0) + c
    terms = {}
    for key, total in acc.items():
        c, r = divmod(total, _orbit_size(key))
        if r:
            raise AssertionError(f"an orbit's size does not divide its sum {total}")
        c = back(c, 2)
        if c:
            terms[tuple(concat[i] for i in key)] = c
    return s._like(terms)
