"""Exact scalar arithmetic: the rationals Q and prime fields F_p.

Elements are plain ``fractions.Fraction`` values over Q and small
``FpElem`` wrappers over F_p, with the ordinary arithmetic operators
(and transparent ``int`` coercion).  The integer kernels reach them
through this module only: `field_of` names the field from all the
values and `lift` turns them into ints.  Floats are rejected everywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ParseError, PreconditionError, require

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_decimal(text, signed=True):
    """Whether `text` is [+|-]digits (no sign unless `signed`) in ASCII 0-9: the
    one rule for integers in text, which refuses the `1_000`, ` 3` and `٣` of `int`."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    return digits.isdigit() and digits.isascii()


def parse_int(text):
    "The int `text` reads when `is_decimal(text)`; anything else is a ParseError."
    try:
        if is_decimal(text):
            return int(text)
    except ValueError:  # more digits than `int` converts
        pass
    raise ParseError(f"expected an integer, got {text!r}")


def _number(tok):
    """A block scalar `[+|-]a[/b]` as the int a or the reduced `Fraction` a/b;
    any other text is a ValueError, raised before any digits are converted."""
    a, slash, b = tok.partition("/")
    if not (is_decimal(a) and (not slash or is_decimal(b, signed=False))):
        raise ValueError("expected [+|-]a[/b]")
    return Fraction(int(a), int(b)) if slash else int(a)


def is_prime(n):
    """Deterministic Miller-Rabin (exact for n below 3.3e24)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElem:
    """An element of F_p, kept as its canonical representative in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        # returns an int representative, or None when other is foreign
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError(f"field mismatch: F_{self.p} vs F_{other.p}")
            return other.v
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, w - self.v)

    def __mul__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElem(self.p, self.v * pow(w, -1, self.p))

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElem(self.p, w * pow(self.v, -1, self.p))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return FpElem(self.p, 1)
        if e < 0 and self.v == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return FpElem(self.p, pow(self.v, e, self.p))

    def __neg__(self):
        return FpElem(self.p, -self.v)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, FpElem):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __lt__(self, other):
        # ordering of canonical representatives; only used for stable sorting
        w = self._lift(other)
        if w is None:
            raise TypeError(f"cannot order FpElem against {type(other).__name__}")
        return self.v < w % self.p

    def __hash__(self):
        # hash-compatible with the small int it represents
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"FpElem({self.p}, {self.v})"


class PrimeField:
    """The field F_p for a prime p; a callable element factory."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"not a prime: {p!r}")
        self.p = p
        self.zero = FpElem(p, 0)
        self.one = FpElem(p, 1)

    @property
    def characteristic(self):
        return self.p

    def __call__(self, x):
        if isinstance(x, FpElem):
            if x.p != self.p:
                raise ValueError(f"field mismatch: F_{self.p} vs F_{x.p}")
            return x
        if isinstance(x, int):
            return FpElem(self.p, x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {x.denominator} not invertible mod {self.p}")
            return FpElem(self.p, x.numerator * pow(x.denominator, -1, self.p))
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into F_{self.p}")

    def parse(self, tok):
        try:
            return self(_number(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad F_{self.p} scalar {tok!r}: {exc}") from None

    def format(self, x):
        return str(self(x).v)

    def elements(self):
        return (FpElem(self.p, i) for i in range(self.p))

    def header(self):
        return f"field F {self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rationals, with `fractions.Fraction` as the element type."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    @property
    def characteristic(self):
        return 0

    def __call__(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q")

    def parse(self, tok):
        try:
            x = _number(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {tok!r}: {exc}") from None
        return Fraction(x) if type(x) is int else x

    def format(self, x):
        x = self(x)
        try:
            return str(x)
        except ValueError:  # Python prints no int of more digits than its limit
            from decimal import Decimal
            digits = Decimal(max(abs(x.numerator), x.denominator)).adjusted() + 1
            require(digits, sys.get_int_max_str_digits(), "a rational of {} digits")
            raise

    def elements(self):
        raise TypeError("Q is infinite")

    def header(self):
        return "field Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p):
    return PrimeField(p)


def field_of(values, what):
    """The field of exact scalars, named from all of them: F_p when any is an
    `FpElem` (plain ints coerce into it), else Q; a `Fraction` beside an
    `FpElem`, or two primes, is a field mismatch."""
    kinds = set(map(type, values))
    if not kinds <= {int, Fraction, FpElem}:
        raise PreconditionError(f"{what} needs scalar entries")
    primes = {a.p for a in values if type(a) is FpElem} if FpElem in kinds else set()
    if len(primes) + (Fraction in kinds) > 1:
        raise PreconditionError("field mismatch: " + " vs ".join(
            [f"F_{p}" for p in sorted(primes)] + ["Q"] * (Fraction in kinds)))
    return GF(primes.pop()) if primes else QQ


def lift(field, values):
    """Integers with the ring arithmetic of `values` in `field`, and
    `back(c, k)`, which reads an integer result of degree k in them back in
    the field.  Over F_p they are representatives (ints pass as they are)
    and back reduces mod p.  Over Q they are multiplied by the common
    denominator d, so back divides a degree-k result by d**k."""
    if isinstance(field, PrimeField):
        p = field.p
        return ([a.v if isinstance(a, FpElem) else a for a in values],
                lambda c, k: FpElem(p, c))
    d = lcm(*(a.denominator for a in values))
    return ([a.numerator * (d // a.denominator) for a in values],
            (lambda c, k: Fraction(c)) if d == 1 else lambda c, k: Fraction(c, d ** k))


def field_from_header(line):
    """Parse a `field Q` / `field F <p>` header line."""
    parts = line.split()
    if parts[:1] != ["field"]:
        raise ParseError(f"expected field header, got {line!r}")
    if parts[1:] == ["Q"]:
        return QQ
    if len(parts) == 3 and parts[1] == "F":
        try:
            p = parse_int(parts[2])
        except ParseError:
            raise ParseError(f"bad prime in field header {line!r}") from None
        try:
            return GF(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unrecognized field header {line!r}")
