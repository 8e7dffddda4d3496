"""Tiny tokenizer shared by the polynomial and divided-power parsers, and
the line reader shared by the block parsers."""

from __future__ import annotations

import re

from .errors import ParseError

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


def block_lines(text, kind, required):
    """Non-empty stripped lines of a `kind` block that has at least
    `required` lines, the `kind` header included."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != kind:
        raise ParseError(f"expected {kind} block")
    if len(lines) < required:
        raise ParseError(f"truncated {kind} block")
    return lines
