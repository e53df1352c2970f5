"""Exact sparse polynomials over Q with a weighted grading.

A polynomial is stored as a map from exponent vectors to nonzero rational
coefficients.  Exponent vectors are plain tuples of non-negative ints, one
slot per generator, and every coefficient is a ``fractions.Fraction``, so
all arithmetic is exact.  Each generator carries a positive integer weight
and the weighted degree of a monomial is the weight-weighted sum of its
exponents; gradings throughout the package refer to this degree.

Monomials are compared by weighted degree first, ties broken
lexicographically on the exponent vector (earlier generators are more
significant).  This single order drives canonical term iteration,
rendering, and the Groebner machinery.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Container, Hashable, Iterable, Mapping, Union

from .errors import DegreeError, GeneratorMismatchError, SizeError, SubstitutionError

Monomial = tuple[int, ...]

Scalar = Union[int, Fraction]

_RATIONAL_FORM = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Coefficients are exact, so a short expression can ask for a huge number:
# ``7^1000000000000`` has about 2.8e12 bits.  Literal powers, and the powers
# and products the expression parser forms, raise SizeError instead of
# making a coefficient of more than this many bits (about 30,000 decimal
# digits; Python prints at most 4,300 digits of an int by default).
MAX_COEFFICIENT_BITS = 100_000

# A product of two term dicts forms one term for each pair of their terms
# before anything cancels or is dropped.  ``truncated_product`` refuses,
# with SizeError, a product of more pairs than this.  Expressions given for
# a ring keep only the monomials of its normal-form table as they go, so
# every product and power they form is kept to the table's size; this cap
# alone guards what nothing truncates: expressions in a spec file, which
# are parsed before the ring exists, and the Torelli symbol ring, where
# ``(xi0 + xi1)^3000`` fails within a second instead of expanding for
# minutes.  ``(x + y)^300`` forms at most 129 * 129 pairs.
MAX_PRODUCT_PAIRS = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse the textual form: optional sign, integer, optional '/' integer.

    Accepts e.g. "7", "-4103/144".  Raises ValueError on anything else,
    including a zero denominator.
    """
    text = text.strip()
    if not _RATIONAL_FORM.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Scalar) -> str:
    """Canonical textual form, "p/q" or "p"; inverse of parse_rational.

    Raises SizeError when Python refuses to convert the numerator or the
    denominator to text (more than 4,300 digits, by default).
    """
    try:
        return str(value if isinstance(value, Fraction) else Fraction(value))
    except ValueError:
        raise SizeError("a number in the result has more digits than Python converts to text") from None


def check_size(value: Scalar) -> Scalar:
    """``value``, or SizeError when it has more than MAX_COEFFICIENT_BITS bits."""
    if value.numerator.bit_length() + value.denominator.bit_length() > MAX_COEFFICIENT_BITS:
        raise SizeError(f"a coefficient would have more than MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS} bits")
    return value


def rational_power(value: Scalar, exponent: int) -> Scalar:
    """``value ** exponent``, refused before it is computed when it is too large.

    A numerator or denominator of b bits, raised to the power e, has at
    least (b - 1) * e + 1 bits; past MAX_COEFFICIENT_BITS this raises
    SizeError.
    """
    if (value.numerator.bit_length() + value.denominator.bit_length() - 2) * exponent > MAX_COEFFICIENT_BITS:
        raise SizeError(f"a power would have more than MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS} bits")
    return value**exponent


class GeneratorSet:
    """Ordered, weighted generators of a polynomial ring.

    The listed order is significant: it fixes exponent-vector slots and the
    lexicographic tie-break of the monomial order.
    """

    __slots__ = ("names", "weights", "_index")

    def __init__(self, generators: Iterable[tuple[str, int]]):
        pairs = tuple(generators)
        names = tuple(name for name, _ in pairs)
        weights = tuple(weight for _, weight in pairs)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for name, weight in pairs:
            if not isinstance(weight, int) or weight <= 0:
                raise ValueError(f"generator {name!r} needs a positive integer weight, got {weight!r}")
        self.names = names
        self.weights = weights
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"GeneratorSet({inner})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def weighted_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.weights))

    def sort_key(self, mono: Monomial) -> tuple[int, Monomial]:
        """Key realizing the monomial order: weighted degree, then lex."""
        return (self.weighted_degree(mono), mono)

    # Polynomial constructors.

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, value: Scalar) -> Polynomial:
        value = Fraction(value)
        if value == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self): value})

    def gen(self, name: str) -> Polynomial:
        mono = [0] * len(self)
        mono[self.index(name)] = 1
        return Polynomial(self, {tuple(mono): Fraction(1)})

    def monomial(self, mono: Monomial, coeff: Scalar = 1) -> Polynomial:
        if len(mono) != len(self):
            raise ValueError(f"exponent vector {mono} has wrong length for {self!r}")
        return Polynomial(self, {tuple(mono): Fraction(coeff)})


# Term-dict arithmetic.  A term dict maps exponent vectors to nonzero
# coefficients, Fractions as in ``Polynomial._terms``, or ints, which the
# expression evaluator keeps until it builds its Polynomial.  ``Polynomial``'s
# sums, products and powers and the evaluator share these routines.


def add_terms(
    into: dict[Monomial, Fraction], terms: Mapping[Monomial, Fraction], negate: bool = False
) -> dict[Monomial, Fraction]:
    """Add ``terms`` (subtract them, with ``negate``) into ``into`` in place; return ``into``."""
    for mono, coeff in terms.items():
        if negate:
            coeff = -coeff
        present = into.get(mono)
        if present is None:
            into[mono] = coeff
        else:
            total = present + coeff
            if total:
                into[mono] = total
            else:
                del into[mono]
    return into


def apply_linear(
    terms: Iterable[tuple[Hashable, Fraction]], images: Mapping[Hashable, Mapping[Monomial, Fraction]]
) -> dict[Monomial, Fraction]:
    """Sum of coefficient * ``images[key]`` over the (key, coefficient) pairs, as a new term dict.

    A linear map given by the images of its basis elements: the normal
    form on an Artinian ring (keys are monomials, images their normal
    forms) and both pushforwards use it.  A key without an image maps to
    0, and entries that cancel are deleted.  Coefficients must be nonzero.
    """
    result: dict[Monomial, Fraction] = {}
    for key, coeff in terms:
        image = images.get(key)
        if image is None:
            continue
        for target, factor in image.items():
            present = result.get(target)
            if present is None:
                result[target] = coeff * factor
            else:
                total = present + coeff * factor
                if total:
                    result[target] = total
                else:
                    del result[target]
    return result


def integer_terms(terms: Mapping[Hashable, Fraction]) -> tuple[dict[Hashable, int], int]:
    """The terms times the lcm of their denominators, as ints, and that lcm."""
    scale = lcm(*[c.denominator for c in terms.values()])
    return {key: c.numerator * (scale // c.denominator) for key, c in terms.items()}, scale


def truncated_product(
    a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction], keep: Container[Monomial] | None = None
) -> dict[Monomial, Fraction]:
    """Product of two term dicts with only its monomials in ``keep``.

    With ``keep`` None nothing is dropped.  Each factor is scaled once to
    integer numerators (``integer_terms``), the pairs multiply ints, and
    each term of the result becomes one Fraction over the product of the
    two scales.  Raises SizeError, before multiplying, when the product
    would form more than MAX_PRODUCT_PAIRS pairs of terms, and after, when
    a coefficient of the result has more than MAX_COEFFICIENT_BITS bits.
    """
    if len(a) * len(b) > MAX_PRODUCT_PAIRS:
        raise SizeError(
            f"a product of {len(a)} by {len(b)} terms would form more than "
            f"MAX_PRODUCT_PAIRS = {MAX_PRODUCT_PAIRS} pairs"
        )
    (a, scale_a), (b, scale_b) = integer_terms(a), integer_terms(b)
    sums: dict[Monomial, int] = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(map(add, mono_a, mono_b))
            sums[mono] = sums.get(mono, 0) + coeff_a * coeff_b
    scale = scale_a * scale_b
    product = {m: Fraction(c, scale) for m, c in sums.items() if c}
    if keep is not None:
        product = {m: c for m, c in product.items() if m in keep}
    for coeff in product.values():
        check_size(coeff)
    return product


def pow_terms(
    terms: Mapping[Monomial, Fraction], exponent: int, width: int, keep: Container[Monomial] | None = None
) -> dict[Monomial, Fraction]:
    """``terms`` to a non-negative integer power, as a new term dict.

    ``width`` is the number of generators; any base to the power 0 is 1.
    With ``keep``, every monomial outside it is dropped as the power is
    formed, so the squaring costs next to nothing once a square keeps no
    term.  A single term is raised by scaling its exponents, and its
    coefficient is raised only when the monomial is kept; other bases go
    by repeated squaring.  Raises SizeError when a coefficient would pass
    MAX_COEFFICIENT_BITS or a product MAX_PRODUCT_PAIRS.
    """
    if exponent == 0:
        return {(0,) * width: 1}
    if len(terms) == 1:
        ((mono, coeff),) = terms.items()
        mono = tuple(e * exponent for e in mono)
        if keep is not None and mono not in keep:
            return {}
        return {mono: rational_power(coeff, exponent)}
    result: dict[Monomial, Fraction] | None = None
    base = terms
    while exponent:
        if exponent & 1:
            result = dict(base) if result is None else truncated_product(result, base, keep)
        exponent >>= 1
        if exponent:
            base = truncated_product(base, base, keep)
    return result


class Polynomial:
    """Immutable sparse polynomial over a fixed GeneratorSet."""

    __slots__ = ("gens", "_terms")

    def __init__(self, gens: GeneratorSet, terms: Mapping[Monomial, Scalar]):
        cleaned: dict[Monomial, Fraction] = {}
        width = len(gens)
        for mono, coeff in terms.items():
            if len(mono) != width or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for {gens!r}")
            coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[tuple(mono)] = coeff
        self.gens = gens
        self._terms = cleaned

    @classmethod
    def _raw(cls, gens: GeneratorSet, terms: dict[Monomial, Fraction]) -> Polynomial:
        """Internal constructor: terms must already be canonical."""
        poly = object.__new__(cls)
        poly.gens = gens
        poly._terms = terms
        return poly

    # Inspection.

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: descending by the monomial order."""
        key = self.gens.sort_key
        return sorted(self._terms.items(), key=lambda item: key(item[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    @property
    def is_homogeneous(self) -> bool:
        degrees = {self.gens.weighted_degree(m) for m in self._terms}
        return len(degrees) <= 1

    def weighted_degree(self) -> int | None:
        """Common weighted degree of all terms; None for the zero polynomial.

        Raises DegreeError on a non-homogeneous polynomial: asking a mixed
        element for its degree is always a bug in this package.
        """
        if not self._terms:
            return None
        degrees = {self.gens.weighted_degree(m) for m in self._terms}
        if len(degrees) > 1:
            raise DegreeError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def homogeneous_parts(self) -> dict[int, Polynomial]:
        """Split into homogeneous pieces, keyed by weighted degree."""
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            parts.setdefault(self.gens.weighted_degree(mono), {})[mono] = coeff
        return {d: Polynomial._raw(self.gens, terms) for d, terms in sorted(parts.items())}

    # Arithmetic.

    def _check_gens(self, other: Polynomial) -> None:
        if self.gens != other.gens:
            raise GeneratorMismatchError(
                f"operands over different generator sets: {self.gens!r} vs {other.gens!r}"
            )

    def _coerce(self, other: object) -> Polynomial:
        """``other`` as a polynomial over these generators; TypeError unless it is one or a rational."""
        if isinstance(other, Polynomial):
            self._check_gens(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.gens.constant(other)
        raise TypeError(f"cannot combine a polynomial with {type(other).__name__}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.gens == other.gens and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == self.gens.constant(other)._terms
        return NotImplemented

    def __add__(self, other: object) -> Polynomial:
        return Polynomial._raw(self.gens, add_terms(dict(self._terms), self._coerce(other)._terms))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.gens, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> Polynomial:
        return Polynomial._raw(self.gens, add_terms(dict(self._terms), self._coerce(other)._terms, negate=True))

    def __rsub__(self, other: object) -> Polynomial:
        return self._coerce(other) + (-self)

    def __mul__(self, other: object) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if factor == 0:
                return self.gens.zero()
            return Polynomial._raw(self.gens, {m: c * factor for m, c in self._terms.items()})
        return Polynomial._raw(self.gens, truncated_product(self._terms, self._coerce(other)._terms))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> Polynomial:
        # Fraction(1, other) accepts only rationals: TypeError on anything
        # else, ZeroDivisionError on zero.
        return self * Fraction(1, other)

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        if exponent == 0:
            return self.gens.one()
        return Polynomial._raw(self.gens, pow_terms(self._terms, exponent, len(self.gens)))

    # Structural maps.

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Ring homomorphism sending each generator to its image.

        Every generator actually occurring in this polynomial must have an
        image; all images must share one generator set, which becomes the
        generator set of the result.
        """
        target: GeneratorSet | None = None
        for name, image in images.items():
            if target is None:
                target = image.gens
            elif image.gens != target:
                raise GeneratorMismatchError(
                    f"images live over different generator sets (first clash at {name!r})"
                )
        if target is None:
            raise SubstitutionError("no images given")
        result = target.zero()
        for mono, coeff in self._terms.items():
            term = target.constant(coeff)
            for name, e in zip(self.gens.names, mono):
                if e == 0:
                    continue
                if name not in images:
                    raise SubstitutionError(f"no image for generator {name!r}")
                term = term * images[name] ** e
            result = result + term
        return result

    # Rendering.  The output re-parses under the expression grammar.

    def __str__(self) -> str:
        """Terms in canonical order, each coefficient read from its numerator and denominator.

        Raises SizeError when Python refuses to convert a number to text
        (more than 4,300 digits, by default): a numerator, a denominator or
        an exponent.
        """
        if not self._terms:
            return "0"
        names = self.gens.names
        weights = self.gens.weights
        chunks: list[str] = []
        try:
            # Monomials are distinct, so the coefficients are never compared.
            for _, mono, coeff in sorted(
                ((sum(map(mul, m, weights)), m, c) for m, c in self._terms.items()), reverse=True
            ):
                factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
                numerator = coeff.numerator
                denominator = coeff.denominator
                magnitude = numerator if numerator > 0 else -numerator
                if denominator != 1:
                    factors.insert(0, f"{magnitude}/{denominator}")
                elif magnitude != 1 or not factors:
                    factors.insert(0, str(magnitude))
                body = "*".join(factors)
                if chunks:
                    chunks.append(f"+ {body}" if numerator > 0 else f"- {body}")
                else:
                    chunks.append(body if numerator > 0 else f"-{body}")
        except ValueError:
            raise SizeError("a number in the result has more digits than Python converts to text") from None
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def expand_chern_identity(genus: int, gens: GeneratorSet) -> list[Polynomial]:
    """Homogeneous parts of (1 + sum lambda_i)(1 + sum (-1)^i lambda_i) - 1.

    These are the relations forced on the lambda classes by a rank-g bundle
    whose sum with its dual is trivial.  Returns the nonzero parts in
    increasing degree, over ``gens``, which must contain lambda1..lambda_g
    with weights 1..g.
    """
    total = gens.one()
    dual = gens.one()
    for i in range(1, genus + 1):
        lam = gens.gen(f"lambda{i}")
        if gens.weights[gens.index(f"lambda{i}")] != i:
            raise GeneratorMismatchError(f"lambda{i} must have weight {i}")
        total = total + lam
        dual = dual + (lam if i % 2 == 0 else -lam)
    identity = total * dual - gens.one()
    return [part for _, part in sorted(identity.homogeneous_parts().items())]
