"""Free noncommutative polynomials: finite linear combinations of words.

Words in the generators x1..xm are tuples of 0-based generator indices;
the empty tuple is the unit.  Word order is graded-lexicographic with
x1 < x2 < ... < xm, which fixes both printing and every derived
serialization.
"""

from __future__ import annotations

import itertools

from ._tokens import fold, names, number, parse_expr
from .commpoly import CommPoly, SparseElement, var_key
from .errors import ParseError
from .fields import is_decimal, parse_int

# A word is a tuple with one 8-byte slot per letter, and `^k` squares it
# repeatedly, so an expression of a few dozen characters could otherwise ask
# for a word of 2^30 letters.  10^4 letters keep a word under 80 KB, and the
# relations and word tables (length 2n - 1) of this toolkit stay far shorter.
MAX_WORD_LENGTH = 10_000


def word_key(word):
    return (len(word), word)


def word_str(word):
    "Canonical form with adjacent repeats collapsed: (0,0,1) -> 'x1^2*x2'."
    if not word:
        return "1"
    pieces, last, e = [], word[0], 0
    for k in (*word, None):  # one run-length pass; None closes the last run
        if k == last:
            e += 1
        else:
            pieces.append(f"x{last + 1}^{e}" if e > 1 else f"x{last + 1}")
            last, e = k, 1
    return "*".join(pieces)


def words_up_to(m, max_len, start_len=0):
    "All words of length start_len..max_len, in graded-lex order."
    for length in range(start_len, max_len + 1):
        yield from itertools.product(range(m), repeat=length)


class NCPoly(SparseElement):
    __slots__ = ("m",)
    _META = ("m",)
    _UNIT = ()
    _key_str = staticmethod(word_str)
    _key_mul = staticmethod(tuple.__add__)

    def __init__(self, field, m, terms=None):
        self.m = m
        for word in terms or ():
            if any(k < 0 or k >= m for k in word):
                raise ValueError(f"word {word} has generators outside 1..{m}")
        super().__init__(field, terms)

    @staticmethod
    def _order(word):
        # leading (highest-degree) words first, lexicographic within a degree
        return (-len(word), word)

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, field, m, c):
        return cls(field, m, {(): field(c)})

    @classmethod
    def one(cls, field, m):
        return cls.const(field, m, 1)

    @classmethod
    def generator(cls, field, m, k):
        if not 0 <= k < m:
            raise ValueError(f"generator index {k} outside 0..{m - 1}")
        return cls(field, m, {(k,): field.one})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not self._same_field(other) or other.m != self.m:
            raise ValueError("mixing free algebras with different field or arity")

    # -- maps ---------------------------------------------------------------

    def abelianize(self):
        """Image in k[x1..xm]: each word collapses to its exponent monomial."""
        acc = {}
        for word, c in self.terms.items():
            counts = {}
            for k in word:
                counts[k] = counts.get(k, 0) + 1
            mono = tuple(sorted(((f"x{k + 1}", e) for k, e in counts.items()),
                                key=lambda ve: var_key(ve[0])))
            s = acc.get(mono, self.field.zero) + c
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        return CommPoly(self.field, acc)


def generator_index(name):
    "x7 -> 6; a name that is not a generator is a ParseError."
    k = name[1:]
    if name[:1] != "x" or k[:1] == "0" or not is_decimal(k, signed=False):
        raise ParseError(f"unknown generator {name!r} (expected x1, x2, ...)")
    return parse_int(k) - 1


def arity(tree, text, m=None):
    """m, or the largest generator index `tree` names when m is None;
    a name that is no generator, or one above m, is a ParseError."""
    used = 0
    for name in names(tree):
        used = max(used, generator_index(name) + 1)
    if m is None:
        return used
    if used > m:
        raise ParseError(f"generator x{used} exceeds arity {m} in {text!r}")
    return m


def free_leaf(field, m):
    """The `fold` leaf of the free algebra on x1..xm; it builds each
    generator once, on its first occurrence, and lives for one parse."""
    gens = {}

    def leaf(node):
        if node[0] == "num":
            return NCPoly.const(field, m, number(node, field))
        g = gens.get(node[1])
        if g is None:
            g = gens[node[1]] = NCPoly.generator(field, m, generator_index(node[1]))
        return g
    return leaf


def parse_nc_poly(text, field, m=None):
    """Parse a free-algebra element; m defaults to the largest index used."""
    tree = short_words(parse_expr(text), text)
    return fold(tree, free_leaf(field, arity(tree, text, m)))


def short_words(tree, text):
    """`tree`, once the words it evaluates to are known to be at most
    MAX_WORD_LENGTH letters long; longer ones are a ParseError."""
    if _length_bound(tree) > MAX_WORD_LENGTH:
        raise ParseError(
            f"words longer than {MAX_WORD_LENGTH} letters in {text!r}")
    return tree


def _length_bound(tree):
    """Upper bound on the length of the words `tree` evaluates to: 0 for a
    number, 1 for a name, the max over a sum, the sum over a product, and
    k * d for base^k or base^[k] when d bounds the base.  One frame per
    node, as in `fold`."""
    kind = tree[0]
    if kind == "sum":
        return max(map(_length_bound, [term for _, term in tree[1]]))
    if kind == "prod":
        return sum(map(_length_bound, tree[1]))
    if kind in ("pow", "dp"):
        return max(tree[2], 0) * _length_bound(tree[1])
    return int(kind == "name")


def parse_word(text, field, m):
    "A single word with coefficient 1, such as `x1^2*x2` or `1`."
    p = parse_nc_poly(text, field, m)
    if len(p.terms) != 1:
        raise ParseError(f"expected a single word, got {text!r}")
    (w, c), = p.terms.items()
    if c != field.one:
        raise ParseError(f"expected a bare word, got {text!r}")
    return w
