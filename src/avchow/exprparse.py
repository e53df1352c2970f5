"""Recursive-descent parser for ring-element expressions.

Grammar (LL(1), whitespace insignificant, ASCII only):

    expr   := sign? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' exponent)?
    atom   := rational | identifier | '(' expr ')'

A rational literal is an integer optionally followed by '/' and a positive
integer; the slash is part of the literal, there is no division operator.
Juxtaposition is not multiplication.  Exponents are non-negative integers,
optionally parenthesized, and a negative exponent is reported as such.
Identifiers resolve to generators first, then to an optional table of
named classes whose polynomials are substituted in place.  Parentheses
nest at most MAX_NESTING deep.  All errors carry a character position.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import ParseError
from .poly import GeneratorSet, Polynomial


class _Token(NamedTuple):
    kind: str  # INT IDENT + - * ^ / ( ) END
    text: str
    position: int


_SINGLE = {"+", "-", "*", "^", "/", "(", ")"}

# Each open parenthesis costs a few frames of the recursive descent; the
# bound keeps hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(_Token("INT", text[start:i], start))
            continue
        if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_":
            start = i
            while i < n and (text[i].isascii() and (text[i].isalnum() or text[i] == "_")):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], gens: GeneratorSet, symbols: Mapping[str, Polynomial]):
        self.tokens = tokens
        self.pos = 0
        self.gens = gens
        self.symbols = symbols
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            shown = token.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", token.position)
        return self.advance()

    def parse(self) -> Polynomial:
        value = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.position)
        return value

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        value = self.term() * sign
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            operand = self.term()
            value = value + operand if op.kind == "+" else value - operand
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        return base ** self.exponent()

    def exponent(self) -> int:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            inner = self.signed_int()
            self.expect(")")
            return inner
        return self.signed_int()

    def signed_int(self) -> int:
        token = self.peek()
        if token.kind == "-":
            raise ParseError("negative exponent", token.position)
        if token.kind == "+":
            self.advance()
        token = self.expect("INT")
        return int(token.text)

    def atom(self) -> Polynomial:
        token = self.peek()
        if token.kind == "INT":
            return self.gens.constant(self.rational())
        if token.kind == "IDENT":
            self.advance()
            name = token.text
            if name in self.gens.names:
                return self.gens.gen(name)
            if name in self.symbols:
                return self.symbols[name]
            raise ParseError(f"unknown identifier {name!r}", token.position)
        if token.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", token.position)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        shown = token.text or "end of input"
        raise ParseError(f"expected a value, found {shown!r}", token.position)

    def rational(self) -> Fraction:
        numerator = self.expect("INT")
        if self.peek().kind != "/":
            return Fraction(int(numerator.text))
        self.advance()
        denominator = self.expect("INT")
        if int(denominator.text) == 0:
            raise ParseError("zero denominator", denominator.position)
        return Fraction(int(numerator.text), int(denominator.text))


def parse_expression(
    text: str,
    gens: GeneratorSet,
    symbols: Mapping[str, Polynomial] | None = None,
) -> Polynomial:
    """Parse an expression into a polynomial over the given generators.

    ``symbols`` optionally maps extra identifiers (named classes) to
    polynomials over the same generator set; generator names win on
    collision.
    """
    resolved: Mapping[str, Polynomial] = symbols or {}
    for name, value in resolved.items():
        if value.gens != gens:
            raise ParseError(f"named class {name!r} is over a different generator set", 0)
    return _Parser(_tokenize(text), gens, resolved).parse()
