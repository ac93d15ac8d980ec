"""Text form of engine expressions.

Grammar (whitespace insignificant, one expression per string)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, integer exponent
    atom   := NUMBER | 'i' | IDENT | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'sqrt' | 'conj'

Numbers are decimal (``0.5`` is exact: 1/2) or integer; rationals are
spelled with '/'.  ``i`` is the imaginary unit.  Identifiers must be
registered symbols; unknown names raise :class:`ParseError` with a column.
The printer in :mod:`kk6.expr` emits this grammar, so
``parse_expression(to_text(e)) is e``.  A function is looked up in the
kernel's one table of function nodes, by the name the printer prints, so
the two cannot disagree on a name.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .expr import _FUNCTIONS, Expr, I, add, mul, num, power, sym
from .symbols import UnknownSymbolError

__all__ = ["ParseError", "parse_expression"]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # NUM | IDENT | OP | END
    text: str
    pos: int


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        if m.group("num") is not None:
            out.append(Token("NUM", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            out.append(Token("IDENT", m.group("ident"), m.start("ident")))
        else:
            out.append(Token("OP", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(Token("END", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.take()
        if tok.kind != "OP" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)

    def expr(self) -> Expr:
        t = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            t = add(t, rhs) if op == "+" else add(t, -rhs)
        return t

    def term(self) -> Expr:
        f = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.unary()
            f = mul(f, rhs) if op == "*" else mul(f, power(rhs, -1))
        return f

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.take()
            at = self.peek()
            e = self.unary()
            return power(base, self._as_int(e, at.pos))
        return base

    @staticmethod
    def _as_int(e: Expr, pos: int) -> int:
        from .expr import Num
        if isinstance(e, Num) and e.im == 0 and e.re.denominator == 1:
            return e.re.numerator
        raise ParseError("exponent must be an integer", pos)

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "NUM":
            return num(Fraction(tok.text))
        if tok.kind == "IDENT":
            if tok.text == "i":
                return I
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                fn = _FUNCTIONS.get(tok.text)
                if fn is None:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos)
                self.take()
                inner = self.expr()
                self.expect_op(")")
                return fn(inner)
            try:
                return sym(tok.text)
            except UnknownSymbolError:
                raise ParseError(f"unknown symbol {tok.text!r}", tok.pos) from None
        if tok.kind == "OP" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, symbol or '('", tok.pos)


def parse_expression(text: str) -> Expr:
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return result
