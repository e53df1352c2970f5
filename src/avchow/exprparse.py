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
``findall`` returns the token texts, and searched once by another for the
first character outside the grammar, which is an error.  The end of input
is an empty token.  Character positions are computed only when an error
is raised, by scanning the text again with ``finditer``.

The evaluator is one function, ``_expr``, that reads the token list at a
position it passes along with the value it returns; it keeps its state in
local variables, calls itself only at '(', and reads exponents with one
helper, ``_exponent``.  It works on term dicts (exponent vector to nonzero
coefficient) rather than on polynomials.  Each term keeps one scalar and
one exponent vector: literals and their powers multiply the scalar,
generators and their powers add to the exponents, and a parenthesized
expression or named class of a single term folds into both.  Only factors
with several terms are multiplied, once the term ends, with
``poly.truncated_product``; powers of them go through ``poly.pow_terms``.
Scalars are Python ints, unless a literal ``p/q``, a named class or a
product of sums (one Fraction per term of its result) makes one a Fraction,
and a term is stored with its scalar as it is.  Terms are summed in place,
and the result becomes a ``Polynomial`` once, at the end, where every
coefficient that is still an int becomes a Fraction in one pass.

A named class is checked to lie over ``gens`` where it is
substituted, so a class over other generators raises ParseError at its
identifier, and only when the text uses it.  The scanner refuses an
integer token of more than MAX_LITERAL_DIGITS digits with ParseError, so a
literal or an exponent too long for ``int()`` (which refuses more than
4,300 digits by default from Python 3.11 and 3.10.7 on) fails alike on
every Python version.

With ``keep``, a container of monomials (a ring passes its normal-form
table), products and powers drop every monomial outside it as they are
formed, so ``(x + y)^100000`` costs a few products instead of a full
expansion.  A monomial missing from the table has normal form 0, so it
lies in the ideal of the ring, and the normal form of the result is
unchanged.
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
from typing import Container, Mapping

from .errors import ParseError
from .poly import (
    GeneratorSet,
    Monomial,
    Polynomial,
    Scalar,
    add_scaled,
    check_size,
    pow_terms,
    rational_power,
    truncated_product,
)


# One match per token: optional whitespace, then an integer, an identifier
# or any other single character.  ``\s`` matches exactly the characters
# ``str.isspace`` accepts.
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S)")

# A character outside the grammar.  Each one is a token of its own, since
# integers and identifiers are ASCII only.
_OUTSIDE = re.compile(r"[^\sA-Za-z0-9_+\-*^/()]")

# Each open parenthesis costs a frame of the recursive descent; the bound
# keeps hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100

# Integer literals and exponents are refused past this many digits, the
# most ``int()`` converts from text by default on Pythons that have the
# limit (``sys.get_int_max_str_digits``).  Such a literal has about 14,300
# bits, well inside MAX_COEFFICIENT_BITS.
MAX_LITERAL_DIGITS = 4_300

_Terms = dict[Monomial, Scalar]


def _scan(text: str) -> list[str]:
    """The texts of the tokens of ``text``, ending with "" for the end of input.

    Raises ParseError at the first character that starts no token, or at
    the first integer of more than MAX_LITERAL_DIGITS digits.
    """
    outside = _OUTSIDE.search(text)
    if outside:
        raise ParseError(f"unexpected character {outside.group()!r}", outside.start())
    words = _TOKEN.findall(text)
    if len(text) > MAX_LITERAL_DIGITS:
        for index, word in enumerate(words):
            if len(word) > MAX_LITERAL_DIGITS and word[0].isdigit():
                raise ParseError(
                    f"integer of {len(word)} digits, more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}",
                    _position(text, index),
                )
    words.append("")
    return words


def _position(text: str, index: int) -> int:
    """Character position of token ``index`` of ``text``; the end sits at ``len(text)``."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return match.start(1)
    return len(text)


def _expr(context: tuple, pos: int, depth: int) -> tuple[_Terms, int]:
    """The value of the expression at token ``pos``, a new term dict, and the token after it.

    ``context`` is the text, its tokens, the generators, the named classes
    and the monomials to keep; ``depth`` counts the parentheses open around
    the expression.
    """
    text, words, gens, symbols, keep = context
    index = gens._index
    width = len(gens)
    value: _Terms | None = None
    word = words[pos]
    if word == "+" or word == "-":
        pos += 1
    while True:
        # One term: a scalar, an exponent vector and the factors that are sums.
        scalar: Scalar = -1 if word == "-" else 1
        exponents = [0] * width
        sums: list[_Terms] = []
        while True:
            word = words[pos]
            pos += 1
            if word.isdigit():
                literal: Scalar = int(word)
                if words[pos] == "/":
                    word = words[pos + 1]
                    if not word.isdigit():
                        raise ParseError(f"expected 'INT', found {word or 'end of input'!r}", _position(text, pos + 1))
                    denominator = int(word)
                    if not denominator:
                        raise ParseError("zero denominator", _position(text, pos + 1))
                    literal = Fraction(literal, denominator)
                    pos += 2
                if words[pos] == "^":
                    exponent, pos = _exponent(context, pos + 1)
                    scalar = check_size(scalar * rational_power(literal, exponent))
                else:
                    scalar *= literal
            elif word in index and word.isidentifier():  # a generator's name need not be an identifier
                if words[pos] == "^":
                    exponent, pos = _exponent(context, pos + 1)
                    exponents[index[word]] += exponent
                else:
                    exponents[index[word]] += 1
            else:
                if word == "(":
                    if depth == MAX_NESTING:
                        raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", _position(text, pos - 1))
                    inner, pos = _expr(context, pos, depth + 1)
                    if words[pos] != ")":
                        raise ParseError(f"expected ')', found {words[pos] or 'end of input'!r}", _position(text, pos))
                    pos += 1
                elif word.isidentifier():
                    named = symbols.get(word)
                    if named is None:
                        raise ParseError(f"unknown identifier {word!r}", _position(text, pos - 1))
                    if named.gens is not gens and named.gens != gens:
                        message = f"named class {word!r} is over a different generator set"
                        raise ParseError(message, _position(text, pos - 1))
                    # A copy, because the term's value may be this very dict.
                    inner = dict(named._terms)
                else:
                    raise ParseError(f"expected a value, found {word or 'end of input'!r}", _position(text, pos - 1))
                if words[pos] == "^":
                    exponent, pos = _exponent(context, pos + 1)
                    inner = pow_terms(inner, exponent, width, keep)
                sums.append(inner)
            if words[pos] != "*":
                break
            pos += 1
        product: _Terms | None = None
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
                product = truncated_product(product, factor, keep)
        if not scalar:
            term: _Terms = {}
        elif product is None:
            term = {tuple(exponents): scalar}
        elif scalar == 1 and not any(exponents):
            term = product
        else:
            term = truncated_product({tuple(exponents): scalar}, product, keep)
        if value is None:
            value = term
        else:
            add_scaled(value, 1, term)
        word = words[pos]
        if word != "+" and word != "-":
            return value, pos
        pos += 1


def _exponent(context: tuple, pos: int) -> tuple[int, int]:
    """The exponent at token ``pos``, just after a '^', and the token after it."""
    text, words = context[:2]
    opened = words[pos] == "("
    pos += opened
    word = words[pos]
    if word == "-":
        raise ParseError("negative exponent", _position(text, pos))
    if word == "+":
        pos += 1
        word = words[pos]
    if not word.isdigit():
        raise ParseError(f"expected 'INT', found {word or 'end of input'!r}", _position(text, pos))
    pos += 1
    if opened:
        if words[pos] != ")":
            raise ParseError(f"expected ')', found {words[pos] or 'end of input'!r}", _position(text, pos))
        pos += 1
    return int(word), pos


def parse_expression(
    text: str,
    gens: GeneratorSet,
    symbols: Mapping[str, Polynomial] | None = None,
    keep: Container[Monomial] | None = None,
) -> Polynomial:
    """Parse an expression into a polynomial over the given generators.

    ``symbols`` optionally maps extra identifiers (named classes) to
    polynomials over the same generator set; generator names win on
    collision, and a class over another generator set raises ParseError
    where the text uses it.  With ``keep``, products and powers drop their
    monomials outside it, so the result equals the full expansion up to
    monomials that are not kept.
    """
    words = _scan(text)
    terms, pos = _expr((text, words, gens, symbols or {}, keep), 0, 0)
    if words[pos]:
        raise ParseError(f"unexpected trailing {words[pos]!r}", _position(text, pos))
    for mono, coeff in terms.items():
        if type(coeff) is int:
            terms[mono] = Fraction(coeff)
    return Polynomial._raw(gens, terms)
