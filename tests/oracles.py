"""Independent cross-checks used by the tests.

The graded dimension oracle here deliberately avoids the package's
Groebner machinery and linear algebra: it enumerates monomials by brute
force (the tests draw and list their monomials with the same enumerator,
not the package's) and row-reduces the degree-d slice of the relation ideal with its
own Gaussian elimination.  Agreement with the staircase count is then a
meaningful check rather than the same computation twice.  For a complete
intersection the dimensions need no linear algebra at all: they are the
coefficients of a product of series in the relation degrees, and the
Jacobian determinant of the relations is a nonzero socle element
(Scheja and Storch, J. reine angew. Math. 278/279 (1975)).

The three pushforward and degree references keep the formulas the
package used before degrees and pushforwards became per-monomial tables:
each takes a whole normal form (or adds whole polynomials) per call, so
they share only ``normal_form`` with the code they check.  The fibre
reference writes a class over the module basis {1, t, s} with its own
``decompose``, which the package no longer has.

The exact linear algebra references are the package's elimination on
Fractions as it was before it moved to integer rows: plain Gaussian
elimination for the determinant and Gauss-Jordan elimination for the
solver.  The pairing references form each product polynomial and take its
degree from the normal form, as ``pairing_matrix`` and ``solve_class`` did
before they read a bilinear form off the value table.  The Torelli
reference is the table pushforward as it was before its images became
integer numerators: Fraction coefficients summed term by term.
``tests/test_oracles.py`` keeps these references from calling the package
methods they stand in for.

The renderer at the end is ``Polynomial.__str__`` as it was before it read
coefficients from their numerators and denominators: it sorts with the
monomial order's key and formats each magnitude as a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, permutations

from avchow import (
    DegreeError,
    GeneratorMismatchError,
    InconsistentSystemError,
    Polynomial,
    SingularSystemError,
    SizeError,
)


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


def monomials_of_degree(weights, degree):
    """All exponent tuples of the weighted degree, descending (the monomial order within one degree)."""
    return monomials_of_weight(weights, degree)[::-1]


def without_pure_powers(names, leading):
    """The names of the generators x_i with no leading monomial dividing a power of x_i.

    A constant leading monomial (the unit ideal) divides every power.
    """
    return [
        name
        for i, name in enumerate(names)
        if not any(all(e == 0 for j, e in enumerate(mono) if j != i) for mono in leading)
    ]


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


def complete_intersection_hilbert(weights, degrees, max_degree):
    """Coefficients in degrees 0..max_degree of prod_i (1 - t^degrees[i]) / prod_j (1 - t^weights[j]).

    This is the Hilbert series of a graded complete intersection: the
    quotient of Q[x_j], x_j of weight weights[j], by a regular sequence of
    relations of the given degrees (Stanley, Adv. Math. 28 (1978)).
    """
    series = [1] + [0] * max_degree
    for d in degrees:
        for k in range(max_degree, d - 1, -1):
            series[k] -= series[k - d]
    for w in weights:
        for k in range(w, max_degree + 1):
            series[k] += series[k - w]
    return series


def partial_derivative(p, index):
    """The derivative of p in the generator of the given index."""
    terms = {}
    for mono, coeff in p.terms():
        if mono[index]:
            terms[mono[:index] + (mono[index] - 1,) + mono[index + 1 :]] = coeff * mono[index]
    return Polynomial(p.gens, terms)


def jacobian_determinant(relations):
    """det(d f_i / d x_j) of n relations in n generators, by the expansion over permutations."""
    n = len(relations)
    entries = [[partial_derivative(f, j) for j in range(n)] for f in relations]
    total = relations[0].gens.zero()
    for perm in permutations(range(n)):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = relations[0].gens.one()
        for i, j in enumerate(perm):
            term = term * entries[i][j]
        total = total - term if inversions % 2 else total + term
    return total


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


def decompose(relative, p):
    """Write the class of p as b1 * 1 + bt * t + bs * s over the base.

    Returns {"1": b1, "t": bt, "s": bs} with base-ring polynomials.  Raises
    DegreeError when the normal form keeps a fiber square.
    """
    combined_gens = relative.combined.gens
    base_gens = relative.base.gens
    t_index, s_index = (combined_gens.index(name) for name in relative.fiber_names)
    positions = [combined_gens.index(name) for name in base_gens.names]
    slots = {(0, 0): "1", (1, 0): "t", (0, 1): "s"}
    parts = {slot: base_gens.zero() for slot in slots.values()}
    for mono, coeff in relative.combined.normal_form(p).terms():
        slot = slots.get((mono[t_index], mono[s_index]))
        if slot is None:
            raise DegreeError(f"normal form retains fiber exponents {mono}")
        parts[slot] = parts[slot] + base_gens.monomial(tuple(mono[j] for j in positions), coeff)
    return parts


def pushforward_by_decomposition(relative, p, rule):
    """Fiber integral of p: decompose it over {1, t, s}, apply the rule, take the base normal form."""
    parts = decompose(relative, p)
    image = parts["1"] * rule.one_image + parts["t"] * rule.t_image + parts["s"] * rule.s_image
    return relative.base.normal_form(image)


def push_combination_by_polynomials(push, pairs):
    """Sum of coefficient * image over (coefficient, symbol) pairs, as Polynomials."""
    result = push.target.gens.zero()
    for coeff, name in pairs:
        result = result + coeff * push.images[name]
    return result


def det_by_fractions(matrix):
    """Determinant by Gaussian elimination on Fractions, first nonzero pivot."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def solve_by_fractions(matrix, rhs):
    """Unique solution of matrix * x = rhs by Gauss-Jordan elimination on Fractions.

    Raises InconsistentSystemError when there is no solution, else
    SingularSystemError when there is more than one.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side disagree in length")
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    if not rows:
        raise SingularSystemError("empty system has no unique solution")
    cols = len(matrix[0])
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][cols] != 0:
            raise InconsistentSystemError("system has no exact solution")
    if rank < cols:
        raise SingularSystemError(f"system is rank deficient (rank {rank} of {cols})")
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][cols]
    return solution


def pairing_by_products(functional, rows, cols):
    """Matrix of the degrees of the products row * col, each from its normal form."""
    return [[degree_by_normal_form(functional, r * c) for c in cols] for r in rows]


def solve_class_by_products(functional, codimension, probes, values):
    """The degree-k class with the given pairings: product degrees, Fraction solve, a sum of basis elements.

    Lets the solver's InconsistentSystemError or SingularSystemError through.
    """
    ring = functional.ring
    basis = [ring.gens.monomial(m) for m in ring.standard_monomials(codimension)]
    matrix = [[degree_by_normal_form(functional, e * probe) for e in basis] for probe in probes]
    solution = solve_by_fractions(matrix, [Fraction(v) for v in values])
    result = ring.gens.zero()
    for coefficient, element in zip(solution, basis):
        result = result + coefficient * element
    return result


def push_combination_by_table(push, combo):
    """The table pushforward of a combination (a Polynomial over the symbols), summed on Fraction coefficients.

    The errors are the package's.
    """
    symbols = push.symbols
    if combo.gens != symbols:
        raise GeneratorMismatchError("combination is not over the symbol set")
    pairs = []
    for mono, coeff in combo._terms.items():
        if sum(mono) != 1:
            if not any(mono):
                raise DegreeError(
                    f"combination must be linear in the symbols; "
                    f"its constant term {coeff} is not tabulated"
                )
            raise DegreeError("combination must be linear in the symbols; products are not tabulated")
        index = next(i for i, e in enumerate(mono) if e)
        pairs.append((coeff, symbols.names[index]))
    degrees = {symbols.weights[symbols.index(name)] for _, name in pairs}
    if len(degrees) > 1:
        raise DegreeError(f"mixed symbol codimensions {sorted(degrees)} in one combination")
    result = {}
    for coeff, name in pairs:
        if not coeff:
            continue
        for target, factor in push.images[name]._terms.items():
            total = result.get(target, 0) + coeff * factor
            if total:
                result[target] = total
            else:
                result.pop(target, None)
    return Polynomial(push.target.gens, result)


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
