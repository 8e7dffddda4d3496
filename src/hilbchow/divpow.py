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
from dataclasses import dataclass
from math import comb

from ._tokens import Block, TokenStream, block_text
from .commpoly import SparseElement
from .errors import ParseError, PreconditionError
from .ncpoly import (NCPoly, generator_index, parse_nc_poly, parse_word, word_key,
                     word_str)


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
    """Parse sums/products of `(<poly>)^[k]` atoms and scalars."""
    ts = TokenStream(text)
    node = _parse_dp_sum(ts)
    ts.require_done()
    used = _dp_max_gen(node)
    if m is None:
        m = used
    elif used > m:
        raise ParseError(f"generator x{used} exceeds arity {m} in {text!r}")
    return _dp_eval(node, field, m)


def _parse_dp_sum(ts):
    sign = -1 if ts.accept_op("-") else 1
    if sign == 1:
        ts.accept_op("+")
    total = ("scale", sign, _parse_dp_product(ts))
    while True:
        op = ts.accept_op("+", "-")
        if op is None:
            return total
        term = _parse_dp_product(ts)
        if op == "-":
            term = ("scale", -1, term)
        total = ("add", total, term)


def _parse_dp_product(ts):
    total = _parse_dp_factor(ts)
    while ts.accept_op("*"):
        total = ("mul", total, _parse_dp_factor(ts))
    return total


def _parse_dp_factor(ts):
    kind, val = ts.peek()
    if kind == "int":
        ts.next()
        num = int(val)
        if ts.accept_op("/"):
            den = ts.expect_int()
            if den == 0:
                raise ParseError("zero denominator")
            return ("frac", num, den)
        return _maybe_power(ts, ("poly-int", num))
    if kind == "name":
        ts.next()
        idx = generator_index(val)
        if idx is None:
            raise ParseError(f"unknown generator {val!r}")
        return _maybe_power(ts, ("poly-gen", idx))
    if kind == "op" and val == "(":
        ts.next()
        inner = _parse_nc_inside(ts)
        ts.expect_op(")")
        return _maybe_power(ts, inner)
    raise ParseError(f"unexpected token in divided-power expression {ts.text!r}")


def _maybe_power(ts, base):
    if ts.accept_op("^"):
        ts.expect_op("[")
        neg = bool(ts.accept_op("-"))
        k = ts.expect_int()
        ts.expect_op("]")
        return ("dp", base, -k if neg else k)
    if base[0] == "poly-int":
        # a bare integer without ^[k] is a scalar factor
        return ("frac", base[1], 1)
    raise ParseError(f"expected ^[k] after a word in {ts.text!r}")


def _parse_nc_inside(ts):
    # capture the token span of a parenthesized free-algebra sub-expression
    depth = 1
    start = ts.i
    while True:
        kind, val = ts.tokens[ts.i] if ts.i < len(ts.tokens) else (None, None)
        if kind is None:
            raise ParseError(f"unbalanced parentheses in {ts.text!r}")
        if kind == "op" and val == "(":
            depth += 1
        elif kind == "op" and val == ")":
            depth -= 1
            if depth == 0:
                break
        ts.i += 1
    toks = ts.tokens[start:ts.i]
    return ("poly-toks", tuple(toks))


def _dp_max_gen(node):
    tag = node[0]
    if tag == "poly-gen":
        return node[1] + 1
    if tag in ("frac", "poly-int"):
        return 0
    if tag == "poly-toks":
        best = 0
        for kind, val in node[1]:
            if kind == "name":
                idx = generator_index(val)
                if idx is not None:
                    best = max(best, idx + 1)
        return best
    if tag == "scale":
        return _dp_max_gen(node[2])
    if tag == "dp":
        return _dp_max_gen(node[1])
    return max(_dp_max_gen(node[1]), _dp_max_gen(node[2]))


def _dp_eval(node, field, m):
    tag = node[0]
    if tag == "frac":
        return DPElement.one(field, m) * (field(node[1]) / field(node[2]))
    if tag == "scale":
        return _dp_eval(node[2], field, m) * node[1]
    if tag == "add":
        return _dp_eval(node[1], field, m) + _dp_eval(node[2], field, m)
    if tag == "mul":
        return _dp_eval(node[1], field, m) * _dp_eval(node[2], field, m)
    if tag == "dp":
        return dp_power(_dp_poly(node[1], field, m), node[2])
    raise ParseError("a bare word needs a ^[k] exponent")


def _dp_poly(node, field, m):
    tag = node[0]
    if tag == "poly-gen":
        return NCPoly.generator(field, m, node[1])
    if tag == "poly-int":
        return NCPoly.const(field, m, node[1])
    if tag == "poly-toks":
        text = _untokenize(node[1])
        return parse_nc_poly(text, field, m)
    raise ParseError("expected a free-algebra element under ^[k]")


def _untokenize(tokens):
    return " ".join(val for _, val in tokens)


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


def ts_mul(s, t):
    """Product in the ambient tensor power, re-collected on orbit sums.

    Arrangements multiply slotwise by word concatenation; the result is
    symmetric, so its orbit-basis coefficients are read off on sorted
    representatives.  No divisions occur.
    """
    if not isinstance(s, SymTensor) or not isinstance(t, SymTensor):
        raise PreconditionError("ts_mul expects two symmetric tensors")
    s._check(t)
    field = s.field
    full = {}
    for arr1, c1 in s.arrangements().items():
        for arr2, c2 in t.arrangements().items():
            arr = tuple(w1 + w2 for w1, w2 in zip(arr1, arr2))
            c = c1 * c2
            prev = full.get(arr)
            prev = c if prev is None else prev + c
            if prev:
                full[arr] = prev
            else:
                full.pop(arr, None)
    terms = {}
    for arr, c in full.items():
        key = tuple(sorted(arr, key=word_key))
        if arr == key:
            terms[key] = c
    return SymTensor(field, s.m, s.degree, terms)
