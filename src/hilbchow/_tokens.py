"""Tiny tokenizer shared by the polynomial and divided-power parsers, and
the block reader shared by every `from_text`."""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import field_from_header

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()\[\],]))")


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
        if m.group(1) is not None:
            out.append(("int", m.group(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
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
        return int(val)

    def done(self):
        return self.i >= len(self.tokens)

    def require_done(self):
        if not self.done():
            raise ParseError(f"trailing input at token {self.i} in {self.text!r}")



def parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def parse_tuple(text, parse):
    "`(a, b, ...)` -> (parse(a), parse(b), ...)."
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected a parenthesized tuple, got {text!r}")
    return tuple(parse(tok.strip()) for tok in text[1:-1].split(",") if tok.strip())


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
