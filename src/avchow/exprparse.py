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

The text is scanned once, by one compiled regular expression whose
``findall`` returns the token texts; a table keyed by a token's first
character gives its kind, and a character missing from the table is an
error.  The parser reads the kinds and texts as two flat lists.  Character
positions are computed only when an error is raised, by scanning the text
again with ``finditer``.

The parser evaluates as it goes, on term dicts (exponent vector to nonzero
coefficient) rather than on polynomials.  Each term keeps one scalar and
one exponent vector: literals and their powers multiply the scalar,
generators and their powers add to the exponents, and a parenthesized
expression or named class of a single term folds into both.  Only factors
with several terms are multiplied, once the term ends, with
``poly.truncated_product``; powers of them go through ``poly.pow_terms``.
Scalars are Python ints, unless a literal ``p/q`` or a named class makes
one a Fraction, and a term is stored with its scalar as it is, so integer
arithmetic builds no Fraction.  Terms are summed in place, and the result
becomes a ``Polynomial`` once, at the end, where every coefficient that is
still an int becomes a Fraction in one pass.

A named class is checked to lie over the parser's generators where it is
substituted, so a class over other generators raises ParseError at its
identifier, and only when the text uses it.  The scanner refuses an
integer token of more than MAX_LITERAL_DIGITS digits with ParseError, so a
literal or an exponent too long for ``int()`` (which refuses more than
4,300 digits by default from Python 3.11 and 3.10.7 on) fails alike on
every Python version.

With ``max_degree`` (a ring passes its socle degree), products
and powers drop every monomial above it as they are formed, so
``(x + y)^100000`` costs a few products instead of a full expansion.  Those
monomials lie in the ideal of the ring, so its normal form is unchanged.
Literal powers and the coefficients of products and powers are bounded by
``poly.MAX_COEFFICIENT_BITS``, so ``7^1000000000000`` raises SizeError
instead of running out of memory, and a single product by
``poly.MAX_PRODUCT_PAIRS``, so ``(x + y)^3000`` raises SizeError where
nothing truncates it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Mapping

from .errors import ParseError
from .poly import (
    GeneratorSet,
    Monomial,
    Polynomial,
    Scalar,
    add_terms,
    check_size,
    pow_terms,
    rational_power,
    truncated_product,
)


# One match per token: optional whitespace, then an integer, an identifier
# or any other single character.  ``\s`` matches exactly the characters
# ``str.isspace`` accepts.
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S)")

# A token's kind by its first character; a character missing here is not
# in the grammar.
_KIND = {
    **dict.fromkeys("0123456789", "INT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **{op: op for op in "+-*^/()"},
}

# Each open parenthesis costs a few frames of the recursive descent; the
# bound keeps hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100

# Integer literals and exponents are refused past this many digits, the
# most ``int()`` converts from text by default on Pythons that have the
# limit (``sys.get_int_max_str_digits``).  Such a literal has about 14,300
# bits, well inside MAX_COEFFICIENT_BITS.
MAX_LITERAL_DIGITS = 4_300


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of ``text``, each list ending with END.

    Raises ParseError at the first character that starts no token, or at
    the first integer of more than MAX_LITERAL_DIGITS digits.
    """
    words = _TOKEN.findall(text)
    kinds = [_KIND.get(word[0]) for word in words]
    if None in kinds:
        index = kinds.index(None)
        raise ParseError(f"unexpected character {words[index]!r}", _position(text, index))
    if len(text) > MAX_LITERAL_DIGITS:
        for index, (kind, word) in enumerate(zip(kinds, words)):
            if kind == "INT" and len(word) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer of {len(word)} digits, more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}",
                    _position(text, index),
                )
    kinds.append("END")
    words.append("")
    return kinds, words


def _position(text: str, index: int) -> int:
    """Character position of token ``index`` of ``text``; END sits at ``len(text)``."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return match.start(1)
    return len(text)


class _Parser:
    """Evaluates while it parses; every value it returns is a new term dict.

    Tokens are two parallel lists, ``kinds`` and ``words``, read at
    ``pos``; a token's character position is found only for an error.
    """

    def __init__(
        self,
        text: str,
        gens: GeneratorSet,
        symbols: Mapping[str, Polynomial],
        max_degree: int | None,
    ):
        self.text = text
        self.kinds, self.words = _scan(text)
        self.pos = 0
        self.gens = gens
        self.index = gens._index
        self.weights = gens.weights
        self.width = len(gens)
        self.symbols = symbols
        self.max_degree = max_degree
        self.depth = 0

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token ``at``, the current token by default."""
        return ParseError(message, _position(self.text, self.pos if at is None else at))

    def shown(self) -> str:
        return self.words[self.pos] or "end of input"

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            raise self.error(f"expected {kind!r}, found {self.shown()!r}")
        self.pos += 1
        return self.words[self.pos - 1]

    def parse(self) -> dict[Monomial, Scalar]:
        value = self.expr()
        if self.kinds[self.pos] != "END":
            raise self.error(f"unexpected trailing {self.words[self.pos]!r}")
        return value

    def expr(self) -> dict[Monomial, Scalar]:
        kind = self.kinds[self.pos]
        if kind in ("+", "-"):
            self.pos += 1
        value = self.term(-1 if kind == "-" else 1)
        kind = self.kinds[self.pos]
        while kind in ("+", "-"):
            self.pos += 1
            add_terms(value, self.term(-1 if kind == "-" else 1))
            kind = self.kinds[self.pos]
        return value

    def term(self, sign: int) -> dict[Monomial, Scalar]:
        """One product: a scalar, an exponent vector and the factors that are sums."""
        kinds = self.kinds
        scalar: Scalar = sign
        exponents = [0] * self.width
        sums: list[dict[Monomial, Scalar]] = []
        while True:
            kind = kinds[self.pos]
            if kind == "INT":
                value = self.rational()
                if kinds[self.pos] == "^":
                    self.pos += 1
                    scalar = check_size(scalar * rational_power(value, self.exponent()))
                else:
                    scalar *= value
            elif kind == "IDENT":
                name = self.words[self.pos]
                self.pos += 1
                slot = self.index.get(name)
                if slot is not None:
                    if kinds[self.pos] == "^":
                        self.pos += 1
                        exponents[slot] += self.exponent()
                    else:
                        exponents[slot] += 1
                else:
                    named = self.symbols.get(name)
                    if named is None:
                        raise self.error(f"unknown identifier {name!r}", self.pos - 1)
                    if named.gens is not self.gens and named.gens != self.gens:
                        raise self.error(f"named class {name!r} is over a different generator set", self.pos - 1)
                    # A copy, because the term's value may be this very dict.
                    sums.append(self.power(dict(named._terms)))
            elif kind == "(":
                if self.depth == MAX_NESTING:
                    raise self.error(f"parentheses nested deeper than {MAX_NESTING}")
                self.pos += 1
                self.depth += 1
                inner = self.expr()
                self.depth -= 1
                self.expect(")")
                sums.append(self.power(inner))
            else:
                raise self.error(f"expected a value, found {self.shown()!r}")
            if kinds[self.pos] != "*":
                break
            self.pos += 1
        product: dict[Monomial, Scalar] | None = None
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
            return {tuple(exponents): scalar}
        if scalar == 1 and not any(exponents):
            return product
        return truncated_product({tuple(exponents): scalar}, product, self.weights, self.max_degree)

    def power(self, base: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
        """``base``, raised to the exponent that follows if a '^' follows."""
        if self.kinds[self.pos] != "^":
            return base
        self.pos += 1
        return pow_terms(base, self.exponent(), self.weights, self.max_degree)

    def exponent(self) -> int:
        if self.kinds[self.pos] == "(":
            self.pos += 1
            inner = self.signed_int()
            self.expect(")")
            return inner
        return self.signed_int()

    def signed_int(self) -> int:
        kind = self.kinds[self.pos]
        if kind == "-":
            raise self.error("negative exponent")
        if kind == "+":
            self.pos += 1
        return int(self.expect("INT"))

    def rational(self) -> Scalar:
        numerator = int(self.expect("INT"))
        if self.kinds[self.pos] != "/":
            return numerator
        self.pos += 1
        denominator = int(self.expect("INT"))
        if denominator == 0:
            raise self.error("zero denominator", self.pos - 1)
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
    collision, and a class over another generator set raises ParseError
    where the text uses it.  With ``max_degree``, products and powers drop
    their monomials above it, so the result equals the full expansion up to
    monomials of higher degree.
    """
    terms = _Parser(text, gens, symbols or {}, max_degree).parse()
    for mono, coeff in terms.items():
        if type(coeff) is int:
            terms[mono] = Fraction(coeff)
    return Polynomial._raw(gens, terms)
