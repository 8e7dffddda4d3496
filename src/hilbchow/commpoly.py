"""Sparse multivariate polynomials with exact coefficients.

A monomial is a tuple of (variable, exponent) pairs with positive
exponents, sorted by a natural-order key on variable names (digit runs
compare by value, then as text: xi_2_1_1 precedes xi_10_1_1, and t01
and t1 differ).  Terms are held in a dict keyed by monomials; zero
coefficients are never stored.  The term order used for printing and
canonical keys is graded, then lexicographic, which keeps every
serialization stable across runs.

`SparseElement`, the base of `CommPoly`, also carries the free-algebra,
divided-power and symmetric-tensor classes: everything they share
(sums, negation, scalar multiples, equality, hashing, printing) lives
there once.
"""

from __future__ import annotations

import re
from functools import lru_cache

from ._tokens import fold, number, parse_expr

_DIGIT_RUN = re.compile(r"(\d+)")


@lru_cache(maxsize=None)
def var_key(name):
    return tuple((int(s), s) if s.isdigit() else s for s in _DIGIT_RUN.split(name))


def mono_mul(a, b):
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda ve: var_key(ve[0])))


def mono_degree(mono):
    return sum(e for _, e in mono)


def mono_key(mono):
    # graded first, then lexicographic; negated so that ascending sort
    # puts the leading monomial first
    return (-mono_degree(mono), tuple((var_key(v), -e) for v, e in mono))


def mono_str(mono):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


class SparseElement:
    """A sparse dict `key -> nonzero coefficient` over a field, plus the
    arithmetic every such element shares.

    A subclass names its extra metadata slots in `_META` (copied onto
    results and compared by `==`), its unit key in `_UNIT` (None when
    scalars do not coerce to elements and `**` is not offered), its key
    order `_order` and key printer `_key_str`, and either its key product
    `_key_mul` or its own term-by-term product `_times`.  Results are
    built by `_like`, which skips `__init__`: sums and scalar multiples
    sit in the Berkowitz inner loop.
    """

    __slots__ = ("field", "terms")
    _META = ()
    _UNIT = None

    def __init__(self, field, terms=None):
        self.field = field
        clean = {}
        if terms:
            for key, c in terms.items():
                c = field(c)
                if c:
                    clean[key] = c
        self.terms = clean

    def _like(self, terms):
        out = object.__new__(type(self))
        out.field = self.field
        for name in self._META:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _meta(self):
        return tuple(getattr(self, name) for name in self._META)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        order = self._order
        return sorted(self.terms.items(), key=lambda kc: order(kc[0]))

    def _same_field(self, other):
        # nearly always the same object, and comparing fields is a Python call
        return other.field is self.field or other.field == self.field

    def _check(self, other):
        if not self._same_field(other):
            raise ValueError("coefficient field mismatch")

    def _coerce(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return other
        if self._UNIT is None:
            return None
        try:
            c = self.field(other)
        except (TypeError, ValueError):
            return None
        return self._like({self._UNIT: c} if c else {})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        zero = self.field.zero
        for k, c in other.terms.items():
            s = terms.get(k, zero) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return self._like(terms)

    def __radd__(self, other):
        if type(other) is int and not other:  # `sum`'s start: no copy
            return self
        return self.__add__(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._times(other)
        try:
            c = self.field(other)
        except (TypeError, ValueError):
            return NotImplemented
        if not c:
            return self._like({})
        return self._like({k: cc * c for k, cc in self.terms.items()})

    # scalars only: a same-type left operand never reaches here
    __rmul__ = __mul__

    def _times(self, other):
        key_mul = self._key_mul
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                s = acc.get(k)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        return self._like(acc)

    def __pow__(self, e):
        if self._UNIT is None:
            return NotImplemented
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._like({self._UNIT: self.field.one})
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.terms == other.terms and self._same_field(other)
                and self._meta() == other._meta())

    def __hash__(self):
        return hash((self.field, self._meta(), frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        fmt = self.field.format
        one = self.field.one
        signed = self.field.characteristic == 0
        unit = self._UNIT
        text = ""
        for key, c in self.sorted_terms():
            if unit is not None and key == unit:
                piece = fmt(c)
            elif c == one:
                piece = self._key_str(key)
            elif signed and c == -one:
                piece = "-" + self._key_str(key)
            else:
                piece = f"{fmt(c)}*{self._key_str(key)}"
            if not text:
                text = piece
            elif piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class CommPoly(SparseElement):
    __slots__ = ()
    _UNIT = ()
    _order = staticmethod(mono_key)
    _key_str = staticmethod(mono_str)
    _key_mul = staticmethod(mono_mul)

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, field, c):
        return cls(field, {(): field(c)})

    @classmethod
    def variable(cls, field, name):
        return cls(field, {((name, 1),): field.one})

    # -- basic queries -----------------------------------------------

    def variables(self):
        seen = {v for mono in self.terms for v, _ in mono}
        return sorted(seen, key=var_key)

    def sort_tuple(self):
        "Total-order key; used when lists of polynomials are serialized."
        return tuple((mono_key(m), str(c)) for m, c in self.sorted_terms())

    # -- evaluation ----------------------------------------------------

    def evaluate(self, values):
        """Substitute a scalar for every variable; exact throughout."""
        power = {}  # (variable, exponent) -> the field element it takes
        total = self.field.zero
        for mono, c in self.terms.items():
            for ve in mono:
                if ve not in power:
                    if ve[0] not in values:
                        raise ValueError(f"unassigned variable {ve[0]!r}")
                    power[ve] = self.field(values[ve[0]]) ** ve[1]
                c = c * power[ve]
            total = total + c
        return total

    def univar_coeffs(self, name):
        """Coefficients [c0, c1, ...] of a univariate polynomial in `name`."""
        deg = 0
        for mono in self.terms:
            for v, e in mono:
                if v != name:
                    raise ValueError(f"not univariate in {name!r}: found {v!r}")
                deg = max(deg, e)
        out = [self.field.zero] * (deg + 1)
        for mono, c in self.terms.items():
            e = mono[0][1] if mono else 0
            out[e] = c
        return out


def parse_comm_poly(text, field):
    """Parse the expression grammar of `_tokens`; any name is a variable."""
    def leaf(node):
        if node[0] == "name":
            return CommPoly.variable(field, node[1])
        return CommPoly.const(field, number(node, field))
    return fold(parse_expr(text), leaf)
