"""Text form of engine expressions.

Grammar (whitespace insignificant, one expression per string)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, integer exponent
    atom   := NUMBER | 'i' | IDENT | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'sqrt' | 'conj'

Numbers are decimal (``0.5`` is exact: 1/2) or integer; rationals are
spelled with '/'.  A number whose numerator or denominator would have
more than 4300 digits, the most Python prints by default and so the most
a report could, is refused with a :class:`ParseError`: a literal before
it is read, a power before it is computed (estimated from the exponent
and the base's bit length), a sum or product once formed.  ``i`` is the
imaginary unit.  Identifiers must be declared symbols; unknown names
raise :class:`ParseError` with a column.  The printer in :mod:`kk6.expr`
emits this grammar, so
``parse_expression(to_text(e)) is e``.  A function is looked up in the
kernel's one table of function nodes, by the name the printer prints, so
the two cannot disagree on a name.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    _FUNCTIONS, Expr, I, MINUS_ONE, ONE, ZERO, Mul, Num, Pow, Sqrt, _kids, add,
    mul, num, power, sym,
)
from .symbols import UnknownSymbolError

__all__ = ["ParseError", "parse_expression"]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# The most decimal digits of a numerator or denominator, and the least
# integer with more (and its bit length).
_MOST_DIGITS = 4300
_TOO_LONG = 10 ** _MOST_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()
_TOO_LONG_TEXT = f"a number with more than {_MOST_DIGITS} digits"
_UNITS = (ZERO, ONE, MINUS_ONE, I, -I)


def _ints(node: Expr) -> tuple:
    """The integers ``node`` itself holds: a number's numerators and
    denominators, a power's exponent."""
    if isinstance(node, Num):
        return (node.re.numerator, node.re.denominator, node.im.numerator,
                node.im.denominator)
    if isinstance(node, Pow):
        return (node.n,)
    return ()


def _raised(e: Expr, n: int):
    """``(c, k)`` for each number c that ``power(e, n)`` raises to the k-th
    power."""
    if isinstance(e, Num):
        yield e, n
    elif isinstance(e, Mul):
        for f in e.factors:
            yield from _raised(f, n)
    elif isinstance(e, Sqrt):
        yield from _raised(e.arg, n // 2)


def _power_too_long(c: Num, n: int) -> bool:
    """Whether c^n is estimated to have too long a part: ``|n| (b - 1)``
    bits, b the largest bit length of c's numerators and denominators.
    For a real c this is a lower bound of the larger part of c^n, so the
    refusal is exact; ``b - 1`` is at least 1 for any c but 0, +-1, +-i,
    whose powers stay short."""
    if c in _UNITS:
        return False
    b = max(abs(v).bit_length() for v in _ints(c))
    return abs(n) * max(b - 1, 1) >= _TOO_LONG_BITS


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
        self.checked: set[Expr] = set()     # nodes with no number too long

    def sized(self, e: Expr, pos: int) -> Expr:
        """``e``, refused if a number or exponent in it is too long."""
        todo = [e]
        while todo:
            node = todo.pop()
            if node in self.checked:
                continue
            self.checked.add(node)
            if any(abs(v) >= _TOO_LONG for v in _ints(node)):
                raise ParseError(_TOO_LONG_TEXT, pos)
            todo.extend(_kids(node))
        return e

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
            op = self.take()
            rhs = self.term()
            t = self.sized(add(t, rhs) if op.text == "+" else add(t, -rhs),
                           op.pos)
        return t

    def term(self) -> Expr:
        f = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.take()
            rhs = self.unary()
            f = self.sized(mul(f, rhs) if op.text == "*"
                           else mul(f, power(rhs, -1)), op.pos)
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
            n = self._as_int(self.unary(), at.pos)
            if any(_power_too_long(c, k) for c, k in _raised(base, n)):
                raise ParseError(_TOO_LONG_TEXT, tok.pos)
            return self.sized(power(base, n), tok.pos)
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
            if len(tok.text.replace(".", "")) > _MOST_DIGITS:
                raise ParseError(_TOO_LONG_TEXT, tok.pos)
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
