"""The one expression grammar, shared by the commutative, free-algebra and
divided-power parsers, the block reader shared by every `from_text`, and
`Record`, the base of the records that those blocks print.

    sum   := [+|-] prod ((+|-) prod)*
    prod  := power (* power)*
    power := atom [^int | ^[ [-]int ]]
    atom  := int [/int] | name | ( sum )

`parse_expr` turns text into a syntax tree of tuples:

    ("num", a, b)                    the number a/b (b = 1 without a slash)
    ("name", text)                   a name
    ("sum", ((negated, term), ...))  a signed sum of two or more terms, or of
                                     one negated term
    ("prod", (factor, ...))          a product of two or more factors
    ("pow", base, k)                 base^k
    ("dp", base, k)                  the divided power base^[k]

Sums and products are flat, so the tree is only as deep as the
parentheses, and `fold` evaluates it with the leaves an algebra supplies.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import field_from_header, parse_int

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],]))")

# parsing takes two frames per level of parentheses and folding at most
# three, so 250 levels stay inside Python's default limit of 1000 frames
MAX_DEPTH = 250


def tokenize(text):
    """Split into (kind, value) pairs; kind is 'int', 'name' or 'op'."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {text!r}")
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return out


class TokenStream:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0
        self.text = text

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def accept_op(self, *ops):
        kind, val = self.peek()
        if kind == "op" and val in ops:
            self.i += 1
            return val
        return None

    def expect_op(self, op):
        if not self.accept_op(op):
            raise ParseError(f"expected {op!r} at token {self.i} in {self.text!r}")

    def expect_int(self):
        kind, val = self.next()
        if kind != "int":
            raise ParseError(f"expected integer in {self.text!r}")
        return parse_int(val)

    def require_done(self):
        if self.i < len(self.tokens):
            raise ParseError(f"trailing input at token {self.i} in {self.text!r}")


def parse_expr(text):
    "The syntax tree of `text` in the expression grammar."
    ts = TokenStream(text)
    tree = _sum(ts, 0)
    ts.require_done()
    return tree


def _sum(ts, depth):
    negated = ts.accept_op("-", "+") == "-"
    terms = []
    while True:
        factors = [_power(ts, depth)]
        while ts.accept_op("*"):
            factors.append(_power(ts, depth))
        terms.append((negated, factors[0] if len(factors) == 1
                      else ("prod", tuple(factors))))
        op = ts.accept_op("+", "-")
        if op is None:
            break
        negated = op == "-"
    if len(terms) == 1 and not negated:
        return terms[0][1]
    return ("sum", tuple(terms))


def _power(ts, depth):
    kind, val = ts.next()
    if kind == "int":
        atom = ("num", parse_int(val), ts.expect_int() if ts.accept_op("/") else 1)
    elif kind == "name":
        atom = ("name", val)
    elif val == "(":
        if depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}")
        atom = _sum(ts, depth + 1)
        ts.expect_op(")")
    else:
        raise ParseError(f"unexpected {val or 'end of input'} in {ts.text!r}")
    if not ts.accept_op("^"):
        return atom
    if not ts.accept_op("["):
        return ("pow", atom, ts.expect_int())
    k = -ts.expect_int() if ts.accept_op("-") else ts.expect_int()
    ts.expect_op("]")
    return ("dp", atom, k)


def names(tree):
    "The text of every name node of `tree`."
    stack = [tree]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "name":
            yield node[1]
        elif kind == "sum":
            stack.extend(term for _, term in node[1])
        elif kind == "prod":
            stack.extend(node[1])
        elif kind != "num":
            stack.append(node[1])


def number(node, field):
    """The value in `field` of a num node; a denominator that is zero in
    `field` is a ParseError."""
    _, a, b = node
    if b == 1:
        return field(a)
    try:
        return field(a) / field(b)
    except ZeroDivisionError:
        raise ParseError(f"denominator {b} is zero in {field.header()}") from None


def fold(tree, leaf, dp=None):
    """The value of `tree` under + - * **, with `leaf(node)` the value of
    each num and name node.  Without `dp`, `^[k]` is a ParseError; with it,
    `dp(base, k)` is the value of each `base^[k]` node and `^k` is a
    ParseError."""
    kind = tree[0]
    if kind == "sum":
        total = None
        for negated, term in tree[1]:
            value = fold(term, leaf, dp)
            if negated:
                value = -value
            total = value if total is None else total + value
        return total
    if kind == "prod":
        total = fold(tree[1][0], leaf, dp)
        for factor in tree[1][1:]:
            total = total * fold(factor, leaf, dp)
        return total
    if kind == "pow":
        if dp is not None:
            raise ParseError(f"^{tree[2]} where a divided power ^[k] is expected")
        return fold(tree[1], leaf) ** tree[2]
    if kind == "dp":
        if dp is None:
            raise ParseError(f"divided power ^[{tree[2]}] in a polynomial")
        return dp(tree[1], tree[2])
    return leaf(tree)


def parse_tuple(text, parse, brackets="()"):
    "`(a, b, ...)` -> (parse(a), parse(b), ...); `brackets` may be `{}` instead."
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise ParseError(f"expected {brackets[0]}a, b, ...{brackets[1]}, got {text!r}")
    inner = text[1:-1]
    if not inner.strip():
        return ()
    return tuple(parse(tok.strip()) for tok in inner.split(","))


def block_text(kind, field, ints, body, header=True):
    """The text of a block, as `Block` reads it back: the `kind` header
    (unless `header` is false), the field line (unless `field` is None),
    one `key <int>` line per item of `ints`, then the body lines."""
    lines = [kind] if header else []
    if field is not None:
        lines.append(field.header())
    lines.extend(f"{key} {value}" for key, value in ints.items())
    lines.extend(body)
    return "\n".join(lines) + "\n"


class Block:
    """Reader for the text blocks every printed object uses.

    A block is a `kind` header line (unless `header` is false), a
    `field ...` line (unless `field` is false), then lines read in order:
    `key <int>` lines, `prefix <rest>` lines, and finally body lines
    `prefix <rest>` or `prefix lhs = rhs`.  Blank lines and surrounding
    whitespace are ignored; anything malformed is a ParseError.
    """

    def __init__(self, text, kind, header=True, field=True):
        self.lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        self.kind = kind
        self.pos = 0
        if header and self.next_line() != kind:
            raise ParseError(f"expected {kind} block")
        self.field = field_from_header(self.next_line()) if field else None

    def done(self):
        return self.pos >= len(self.lines)

    def end(self):
        "Refuse any line left unread."
        next(self.body(), None)

    def next_line(self):
        if self.done():
            raise ParseError(f"truncated {self.kind} block")
        self.pos += 1
        return self.lines[self.pos - 1]

    def line(self, prefix):
        "The rest of the next line, which must read `prefix <rest>`."
        head, *rest = self.next_line().split(None, 1)
        if head != prefix or not rest:
            raise ParseError(f"expected `{prefix} ...` line in {self.kind} block")
        return rest[0]

    def int_line(self, key):
        "The value of the next line, which must read `key <int>`."
        parts = self.line(key).split()
        if len(parts) != 1:
            raise ParseError(f"expected `{key} <int>` in {self.kind} block")
        return parse_int(parts[0])

    def body(self, *prefixes):
        "(prefix, rest) for every remaining line, each `prefix <rest>`."
        for ln in self.lines[self.pos:]:
            head, *rest = ln.split(None, 1)
            if head not in prefixes or not rest:
                raise ParseError(f"unrecognized {self.kind} line {ln!r}")
            yield head, rest[0]

    def pairs(self, *prefixes, sep="="):
        "(prefix, lhs, rhs) for every remaining line, each `prefix lhs = rhs`."
        for head, rest in self.body(*prefixes):
            lhs, found, rhs = rest.partition(sep)
            if not found:
                raise ParseError(f"expected `{head} lhs {sep} rhs`, got {rest!r}")
            yield head, lhs.strip(), rhs.strip()

    def tables(self, sep="=", **readers):
        """One dict per reader, in the order given: `prefix=(key, value)`
        reads every remaining `prefix lhs sep rhs` line, in any order, as
        key(lhs) -> value(rhs).  Keys are compared after parsing, so a key
        read twice under one prefix is a ParseError naming the lhs."""
        tables = {prefix: {} for prefix in readers}
        for head, lhs, rhs in self.pairs(*readers, sep=sep):
            key, value = readers[head]
            k = key(lhs)
            if k in tables[head]:
                raise ParseError(f"repeated {head} line for {lhs}")
            tables[head][k] = value(rhs)
        return tuple(tables.values())


class Record:
    """Base of the printed records.  A record class names its fields in
    `__slots__`, and a record stores its positional arguments in that order.
    Records refuse assignment, compare and hash by class and fields but the
    last `_uncompared`, print as `Name(field=value, ...)` and pickle by
    their fields."""

    __slots__ = ()
    _uncompared = 0

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def _compared(self):
        return self._values()[:len(self.__slots__) - self._uncompared]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
