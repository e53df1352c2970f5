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

The parser evaluates as it goes, on term dicts (exponent vector to nonzero
Fraction) rather than on polynomials.  Each term keeps one scalar and one
exponent vector: literals and their powers multiply the scalar, generators
and their powers add to the exponents, and a parenthesized expression or
named class of a single term folds into both.  Only factors with several
terms are multiplied, once the term ends, with ``poly.truncated_product``;
powers of them go through ``poly.pow_terms``.  Terms are summed in place
and the result becomes a ``Polynomial`` once, at the end.

With ``max_degree`` (an Artinian ring passes its socle degree), products
and powers drop every monomial above it as they are formed, so
``(x + y)^100000`` costs a few products instead of a full expansion.  Those
monomials lie in the ideal of such a ring, so its normal form is unchanged.
Literal powers and the coefficients of products and powers are bounded by
``poly.MAX_COEFFICIENT_BITS``, so ``7^1000000000000`` raises SizeError
instead of running out of memory.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, NamedTuple

from .errors import ParseError
from .poly import (
    GeneratorSet,
    Monomial,
    Polynomial,
    add_terms,
    check_size,
    pow_terms,
    rational_power,
    truncated_product,
)


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
    """Evaluates while it parses; every value it returns is a new term dict."""

    def __init__(
        self,
        tokens: list[_Token],
        gens: GeneratorSet,
        symbols: Mapping[str, Polynomial],
        max_degree: int | None,
    ):
        self.tokens = tokens
        self.pos = 0
        self.index = gens._index
        self.weights = gens.weights
        self.width = len(gens)
        self.symbols = symbols
        self.max_degree = max_degree
        self.depth = 0

    def expect(self, kind: str) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            shown = token.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", token.position)
        self.pos += 1
        return token

    def parse(self) -> dict[Monomial, Fraction]:
        value = self.expr()
        tail = self.tokens[self.pos]
        if tail.kind != "END":
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.position)
        return value

    def expr(self) -> dict[Monomial, Fraction]:
        kind = self.tokens[self.pos].kind
        if kind in ("+", "-"):
            self.pos += 1
        value = self.term(-1 if kind == "-" else 1)
        kind = self.tokens[self.pos].kind
        while kind in ("+", "-"):
            self.pos += 1
            add_terms(value, self.term(-1 if kind == "-" else 1))
            kind = self.tokens[self.pos].kind
        return value

    def term(self, sign: int) -> dict[Monomial, Fraction]:
        """One product: a scalar, an exponent vector and the factors that are sums."""
        tokens = self.tokens
        scalar: int | Fraction = sign
        exponents = [0] * self.width
        sums: list[dict[Monomial, Fraction]] = []
        while True:
            token = tokens[self.pos]
            kind = token.kind
            if kind == "INT":
                value = self.rational()
                if tokens[self.pos].kind == "^":
                    self.pos += 1
                    scalar = check_size(scalar * rational_power(value, self.exponent()))
                else:
                    scalar *= value
            elif kind == "IDENT":
                self.pos += 1
                slot = self.index.get(token.text)
                if slot is not None:
                    if tokens[self.pos].kind == "^":
                        self.pos += 1
                        exponents[slot] += self.exponent()
                    else:
                        exponents[slot] += 1
                else:
                    named = self.symbols.get(token.text)
                    if named is None:
                        raise ParseError(f"unknown identifier {token.text!r}", token.position)
                    # A copy, because the term's value may be this very dict.
                    sums.append(self.power(dict(named._terms)))
            elif kind == "(":
                if self.depth == MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", token.position)
                self.pos += 1
                self.depth += 1
                inner = self.expr()
                self.depth -= 1
                self.expect(")")
                sums.append(self.power(inner))
            else:
                shown = token.text or "end of input"
                raise ParseError(f"expected a value, found {shown!r}", token.position)
            if tokens[self.pos].kind != "*":
                break
            self.pos += 1
        product: dict[Monomial, Fraction] | None = None
        for factor in sums:
            if len(factor) == 1:
                ((mono, coeff),) = factor.items()
                scalar = check_size(scalar * coeff)
                exponents = list(map(add, exponents, mono))
            elif not factor:
                scalar = 0
            elif product is None:
                product = factor
            else:
                product = truncated_product(product, factor, self.weights, self.max_degree)
        if not scalar:
            return {}
        if product is None:
            return {tuple(exponents): Fraction(scalar)}
        if scalar == 1 and not any(exponents):
            return product
        return truncated_product({tuple(exponents): Fraction(scalar)}, product, self.weights, self.max_degree)

    def power(self, base: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        """``base``, raised to the exponent that follows if a '^' follows."""
        if self.tokens[self.pos].kind != "^":
            return base
        self.pos += 1
        return pow_terms(base, self.exponent(), self.weights, self.max_degree)

    def exponent(self) -> int:
        if self.tokens[self.pos].kind == "(":
            self.pos += 1
            inner = self.signed_int()
            self.expect(")")
            return inner
        return self.signed_int()

    def signed_int(self) -> int:
        token = self.tokens[self.pos]
        if token.kind == "-":
            raise ParseError("negative exponent", token.position)
        if token.kind == "+":
            self.pos += 1
        return int(self.expect("INT").text)

    def rational(self) -> int | Fraction:
        numerator = int(self.expect("INT").text)
        if self.tokens[self.pos].kind != "/":
            return numerator
        self.pos += 1
        token = self.expect("INT")
        denominator = int(token.text)
        if denominator == 0:
            raise ParseError("zero denominator", token.position)
        return Fraction(numerator, denominator)


def parse_expression(
    text: str,
    gens: GeneratorSet,
    symbols: Mapping[str, Polynomial] | None = None,
    max_degree: int | None = None,
) -> Polynomial:
    """Parse an expression into a polynomial over the given generators.

    ``symbols`` optionally maps extra identifiers (named classes) to
    polynomials over the same generator set; generator names win on
    collision.  With ``max_degree``, products and powers drop their
    monomials above it, so the result equals the full expansion up to
    monomials of higher degree.
    """
    resolved: Mapping[str, Polynomial] = symbols or {}
    for name, value in resolved.items():
        if value.gens != gens:
            raise ParseError(f"named class {name!r} is over a different generator set", 0)
    return Polynomial._raw(gens, _Parser(_tokenize(text), gens, resolved, max_degree).parse())
