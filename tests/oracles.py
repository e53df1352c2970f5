"""Independent cross-checks used by the tests.

The graded dimension oracle here deliberately avoids the package's
Groebner machinery and linear algebra: it enumerates monomials by brute
force and row-reduces the degree-d slice of the relation ideal with its
own Gaussian elimination.  Agreement with the staircase count is then a
meaningful check rather than the same computation twice.

The three pushforward and degree references keep the formulas the
package used before degrees and pushforwards became per-monomial tables:
each takes a whole normal form (or adds whole polynomials) per call, so
they share only ``normal_form`` and ``decompose`` with the code they check.

The renderer at the end is ``Polynomial.__str__`` as it was before it read
coefficients from their numerators and denominators: it sorts with the
monomial order's key and formats each magnitude as a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from avchow import SizeError


def monomials_of_weight(weights, total):
    """All exponent tuples e with sum(e[i] * weights[i]) == total."""
    if total < 0:
        return []
    results = []

    def extend(prefix, remaining, position):
        if position == len(weights):
            if remaining == 0:
                results.append(tuple(prefix))
            return
        w = weights[position]
        for e in count():
            used = e * w
            if used > remaining:
                break
            extend(prefix + [e], remaining - used, position + 1)

    extend([], total, 0)
    return results


def _gauss_rank(rows):
    """Rank over the rationals of a list of dense Fraction rows."""
    rows = [list(row) for row in rows if any(row)]
    rank = 0
    col_count = len(rows[0]) if rows else 0
    pivot_col = 0
    while rows and pivot_col < col_count:
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][pivot_col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][pivot_col]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][pivot_col]
            if factor != 0:
                scale = factor / pivot
                rows[i] = [
                    a - scale * b for a, b in zip(rows[i], rows[rank])
                ]
        rank += 1
        pivot_col += 1
    return rank


def graded_dimension(weights, relations, degree):
    """Dimension of the degree-d piece of the quotient by the relations.

    ``relations`` is a list of term lists [(exponent_tuple, Fraction)].
    The degree-d slice of the ideal is spanned by monomial multiples
    m * r with weight(m) + weight(r) == degree; the quotient dimension is
    the monomial count minus the rank of that span.
    """
    monomials = monomials_of_weight(weights, degree)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for relation in relations:
        if not relation:
            continue
        rel_weight = sum(
            e * w for e, w in zip(relation[0][0], weights)
        )
        for multiplier in monomials_of_weight(weights, degree - rel_weight):
            row = [Fraction(0)] * len(monomials)
            for exponents, coefficient in relation:
                shifted = tuple(a + b for a, b in zip(exponents, multiplier))
                row[index[shifted]] += coefficient
            rows.append(row)
    return len(monomials) - _gauss_rank(rows)


def hilbert_series_oracle(weights, relations, max_degree):
    """Graded dimensions [dim_0, ..., dim_max] via the rank oracle."""
    return [
        graded_dimension(weights, relations, d) for d in range(max_degree + 1)
    ]


class ScanError(Exception):
    """A character outside the expression grammar, at a position."""

    def __init__(self, message, position):
        super().__init__(message, position)
        self.message = message
        self.position = position


_OPERATORS = {"+", "-", "*", "^", "/", "(", ")"}


def scan_expression(text):
    """Tokens of an expression as (kind, text, position) triples, ending with END.

    A character-by-character reference for the expression scanner: kinds
    are INT, IDENT, an operator itself or END.  Raises ScanError at the
    first character that starts no token.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("INT", text[start:i], start))
            continue
        if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_":
            start = i
            while i < n and (text[i].isascii() and (text[i].isalnum() or text[i] == "_")):
                i += 1
            tokens.append(("IDENT", text[start:i], start))
            continue
        raise ScanError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def degree_by_normal_form(functional, p):
    """Degree of p as the top coefficient of its normal form, scaled by the reference."""
    ring = functional.ring
    (top,) = ring.standard_monomials(functional.top_degree)
    reference = ring.normal_form(functional.reference_element).coefficient(top)
    return ring.normal_form(p).coefficient(top) / reference * functional.reference_value


def pushforward_by_decomposition(relative, p, rule):
    """Fiber integral of p: decompose it over {1, t, s}, apply the rule, take the base normal form."""
    parts = relative.decompose(p)
    image = parts["1"] * rule.one_image + parts["t"] * rule.t_image + parts["s"] * rule.s_image
    return relative.base.normal_form(image)


def push_combination_by_polynomials(push, pairs):
    """Sum of coefficient * image over (coefficient, symbol) pairs, as Polynomials."""
    result = push.target.zero()
    for coeff, name in pairs:
        result = result + coeff * push.images[name]
    return result


def render_polynomial(poly):
    """Text of a polynomial: terms by descending weighted degree, then exponents, signs between them.

    Raises SizeError when Python refuses to convert a coefficient to text.
    """
    if not poly._terms:
        return "0"
    weights = poly.gens.weights

    def sort_key(item):
        mono = item[0]
        return (sum(e * w for e, w in zip(mono, weights)), mono)

    chunks = []
    for mono, coeff in sorted(poly._terms.items(), key=sort_key, reverse=True):
        factors = []
        for name, e in zip(poly.gens.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        magnitude = abs(coeff)
        if factors and magnitude == 1:
            body = "*".join(factors)
        else:
            try:
                text = str(Fraction(magnitude))
            except ValueError:
                raise SizeError("a number in the result has more digits than Python converts to text") from None
            body = "*".join([text, *factors])
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)
