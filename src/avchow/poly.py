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
from typing import Iterable, Iterator, Mapping, Union

from .errors import DegreeError, GeneratorMismatchError, SubstitutionError

# The scalar type used everywhere: exact, lowest terms, positive denominator.
Rational = Fraction

Monomial = tuple[int, ...]

Scalar = Union[int, Fraction]

_RATIONAL_FORM = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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
    """Canonical textual form, "p/q" or "p"; inverse of parse_rational."""
    return str(Fraction(value))


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
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"GeneratorSet({inner})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def weighted_degree(self, mono: Monomial) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def sort_key(self, mono: Monomial) -> tuple[int, Monomial]:
        """Key realizing the monomial order: weighted degree, then lex."""
        return (self.weighted_degree(mono), mono)

    def monomials_of_degree(self, degree: int) -> list[Monomial]:
        """All exponent vectors of the given weighted degree, descending."""
        return list(self.iter_monomials_of_degree(degree))

    def iter_monomials_of_degree(self, degree: int) -> Iterator[Monomial]:
        """Yield the exponent vectors of the given weighted degree, descending.

        Each exponent but the last runs from its largest value down and the
        last one is solved for, so the vectors come out in lex order, which
        is the monomial order within one degree, and the search does not
        loop over the last exponent.
        """
        weights = self.weights
        if degree < 0:
            return
        if not weights:
            if degree == 0:
                yield ()
            return
        last = len(weights) - 1
        prefix = [0] * len(weights)

        def fill(slot: int, remaining: int) -> Iterator[Monomial]:
            weight = weights[slot]
            if slot == last:
                if remaining % weight == 0:
                    prefix[slot] = remaining // weight
                    yield tuple(prefix)
                return
            for e in range(remaining // weight, -1, -1):
                prefix[slot] = e
                yield from fill(slot + 1, remaining - e * weight)

        yield from fill(0, degree)

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

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: descending by the monomial order."""
        key = self.gens.sort_key
        return sorted(self._terms.items(), key=lambda item: key(item[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms())

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def constant_coefficient(self) -> Fraction:
        return self._terms.get((0,) * len(self.gens), Fraction(0))

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

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Largest term under the monomial order; raises on zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=self.gens.sort_key)
        return mono, self._terms[mono]

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    # Arithmetic.

    def _check_gens(self, other: Polynomial) -> None:
        if self.gens != other.gens:
            raise GeneratorMismatchError(
                f"operands over different generator sets: {self.gens!r} vs {other.gens!r}"
            )

    def _coerce(self, other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            self._check_gens(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.gens.constant(other)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.gens == other.gens and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == self.gens.constant(other)._terms
        return NotImplemented

    def __add__(self, other: object) -> Polynomial:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in coerced._terms.items():
            total = terms.get(mono, Fraction(0)) + coeff
            if total:
                terms[mono] = total
            else:
                terms.pop(mono, None)
        return Polynomial._raw(self.gens, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.gens, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> Polynomial:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other: object) -> Polynomial:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced + (-self)

    def __mul__(self, other: object) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if factor == 0:
                return self.gens.zero()
            return Polynomial._raw(self.gens, {m: c * factor for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_gens(other)
        product: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = tuple(a + b for a, b in zip(mono_a, mono_b))
                total = product.get(mono, Fraction(0)) + coeff_a * coeff_b
                if total:
                    product[mono] = total
                else:
                    product.pop(mono, None)
        return Polynomial._raw(self.gens, product)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Polynomial:
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = self.gens.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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

    def embed(self, target: GeneratorSet) -> Polynomial:
        """Rename-free embedding into a larger generator set.

        Every occurring generator must exist in the target with the same
        weight, so the grading is preserved.
        """
        mapping = []
        for i, name in enumerate(self.gens.names):
            if name in target._index:
                j = target.index(name)
                if target.weights[j] != self.gens.weights[i]:
                    raise GeneratorMismatchError(
                        f"generator {name!r} changes weight under embedding"
                    )
                mapping.append(j)
            else:
                mapping.append(-1)
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            image = [0] * len(target)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                if mapping[i] < 0:
                    raise GeneratorMismatchError(
                        f"generator {self.gens.names[i]!r} missing from target set"
                    )
                image[mapping[i]] = e
            terms[tuple(image)] = coeff
        return Polynomial(target, terms)

    # Rendering.  The output re-parses under the expression grammar.

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.terms():
            factors = []
            for name, e in zip(self.gens.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude), *factors])
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def lambda_generators(genus: int) -> GeneratorSet:
    """Generator set (lambda1, ..., lambda_g) with weights (1, ..., g)."""
    if genus < 1:
        raise ValueError(f"genus must be positive, got {genus}")
    return GeneratorSet((f"lambda{i}", i) for i in range(1, genus + 1))


def expand_chern_identity(genus: int, gens: GeneratorSet | None = None) -> list[Polynomial]:
    """Homogeneous parts of (1 + sum lambda_i)(1 + sum (-1)^i lambda_i) - 1.

    These are the relations forced on the lambda classes by a rank-g bundle
    whose sum with its dual is trivial.  Returns the nonzero parts in
    increasing degree.  With ``gens`` given, the parts are produced over
    that generator set, which must contain lambda1..lambda_g with weights
    1..g.
    """
    if gens is None:
        gens = lambda_generators(genus)
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
