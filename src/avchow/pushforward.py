"""Pushforwards: fiber integration over a base ring, and tabulated maps.

Two shapes of pushforward appear in the catalog.  The universal family
over the genus-2 space is handled by a RelativeRing: its Chow ring is a
free module over the base with basis {1, t, s}, so every standard
monomial is a base monomial times one of the three, and fiber integration
applies a rule to that module generator.  The Torelli-style maps are pure
tables: linear data assigning each formal source symbol an image
polynomial, extended by linearity only, never multiplicatively.

Both are linear maps given per basis element, and each is validation
followed by one ``poly.apply_linear`` call over a table of images.  The
Torelli table keys each symbol's image by the symbol's exponent vector.
When a RelativeRing is first passed a rule, it tabulates the base image
of each standard combined monomial and, in one pass, the base image of
every monomial of the combined normal-form table; a monomial outside the
normal-form table has normal form 0 and pushes to 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegreeError, GeneratorMismatchError, UnknownSymbolError
from .poly import GeneratorSet, Monomial, Polynomial, apply_linear, format_rational
from .quotient import DegreeFunctional, QuotientRing


class PushforwardRule:
    """Base-linear images of the module generators 1, t, s.

    The zero-section geometry of the catalog sends 1 and t to zero and s
    to 1 with a codimension shift of 2; other rules are expressible but
    the shift must match the grading of the images: a nonzero image of a
    module generator of weight w is homogeneous of degree w - shift.  A
    RelativeRing checks this when it first pushes with the rule, since the
    weights of t and s are those of its combined ring.
    """

    __slots__ = ("one_image", "t_image", "s_image", "shift")

    def __init__(
        self,
        one_image: Polynomial,
        t_image: Polynomial,
        s_image: Polynomial,
        shift: int = 2,
    ):
        gens = one_image.gens
        if t_image.gens != gens or s_image.gens != gens:
            raise GeneratorMismatchError("rule images must share one generator set")
        self.one_image = one_image
        self.t_image = t_image
        self.s_image = s_image
        self.shift = shift


class RelativeRing:
    """Quotient ring fibered over a base, free with module basis {1, t, s}.

    The combined presentation extends the base presentation by two fiber
    generators whose names are fixed at construction; the combined
    Groebner staircase must kill t^2, t*s and s^2 so that every standard
    monomial has fiber part 1, t or s.
    """

    def __init__(
        self,
        base: QuotientRing,
        combined: QuotientRing,
        fiber_names: Sequence[str] = ("t", "s"),
    ):
        if len(fiber_names) != 2:
            raise ValueError("expected exactly two fiber generators")
        self.base = base
        self.combined = combined
        self.fiber_names = tuple(fiber_names)
        self._t_index = combined.gens.index(fiber_names[0])
        self._s_index = combined.gens.index(fiber_names[1])
        base_positions = []
        for name, weight in zip(base.gens.names, base.gens.weights):
            j = combined.gens.index(name)
            if combined.gens.weights[j] != weight:
                raise GeneratorMismatchError(f"base generator {name!r} changes weight in the combined ring")
            base_positions.append(j)
        self._base_positions = tuple(base_positions)
        for exponents in ((2, 0), (1, 1), (0, 2)):
            mono = [0] * len(combined.gens)
            mono[self._t_index], mono[self._s_index] = exponents
            mono = tuple(mono)
            if mono in combined.standard_monomials(combined.gens.weighted_degree(mono)):
                raise DegreeError(
                    "combined staircase does not reduce the fiber generators; "
                    "module basis {1, t, s} is not free over this presentation"
                )
        # The base image of each monomial of the combined normal-form table,
        # built when a rule is first passed and kept for one rule at a time
        # (the catalog always passes the same one).
        self._pushed_rule: PushforwardRule | None = None
        self._pushed: dict[Monomial, dict[Monomial, Fraction]] = {}

    def _images_under(self, rule: PushforwardRule) -> dict[Monomial, dict[Monomial, Fraction]]:
        """The base image of each monomial of the combined normal-form table.

        A standard combined monomial b * f, f in {1, t, s}, maps to the
        base normal form of b * rule(f); every other monomial of the table
        maps through its normal form.
        """
        slots = {(0, 0): rule.one_image, (1, 0): rule.t_image, (0, 1): rule.s_image}
        base, combined = self.base, self.combined
        weights = combined.gens.weights
        t_name, s_name = self.fiber_names
        for name, weight, image in (
            ("1", 0, rule.one_image),
            (t_name, weights[self._t_index], rule.t_image),
            (s_name, weights[self._s_index], rule.s_image),
        ):
            degree = image.weighted_degree()
            if degree is not None and degree != weight - rule.shift:
                raise DegreeError(
                    f"rule image of {name} has degree {degree}, expected {weight - rule.shift} "
                    f"(weight {weight} minus shift {rule.shift})"
                )
        images = {}
        for degree in range(combined.socle_degree + 1):
            for mono in combined.standard_monomials(degree):
                fiber = slots[mono[self._t_index], mono[self._s_index]]
                factor = base.gens.monomial(tuple(mono[j] for j in self._base_positions))
                images[mono] = base.normal_form(factor * fiber)._terms
        return {mono: apply_linear(nf.items(), images) for mono, nf in combined._nf_cache.items()}

    def pushforward(self, p: Polynomial, rule: PushforwardRule) -> Polynomial:
        """Integrate over the fiber: apply the rule to the module generator of each standard monomial.

        The result is the base normal form, and nothing is reduced: the
        pushforward is a tabulated linear map over the base image of each
        monomial of the combined normal-form table, built for the rule
        when it is first passed; a monomial without an entry has normal
        form 0 and pushes to 0.
        """
        if p.gens != self.combined.gens:
            raise GeneratorMismatchError("element belongs to a different ring")
        if rule is not self._pushed_rule:
            self._pushed_rule, self._pushed = rule, self._images_under(rule)
        return Polynomial._raw(self.base.gens, apply_linear(p._terms.items(), self._pushed))

    def relative_degree(self, p: Polynomial, functional: DegreeFunctional, rule: PushforwardRule) -> Fraction:
        """Degree of the pushforward of p against the base functional.

        Nonzero input must be homogeneous of combined degree equal to the
        base top degree plus the rule's codimension shift.
        """
        if functional.ring is not self.base and functional.ring.gens != self.base.gens:
            raise GeneratorMismatchError("functional does not live on the base ring")
        if not p.is_zero:
            d = p.weighted_degree()
            expected = functional.top_degree + rule.shift
            if d != expected:
                raise DegreeError(f"expected combined degree {expected}, got {d}")
        return functional.degree(self.pushforward(p, rule))


class TabulatedPushforward:
    """Linear pushforward given by a finite symbol table.

    Source symbols are formal classes with a codimension (their weight in
    the symbol generator set); each has an image in the target ring,
    either zero or homogeneous of the same codimension.  Combinations are
    linear with rational coefficients; products of symbols are rejected
    because multiplicativity is not part of the data.
    """

    def __init__(
        self,
        symbols: GeneratorSet,
        target: QuotientRing,
        images: Mapping[str, Polynomial],
        stack_degree: int = 1,
    ):
        for name in symbols.names:
            if name not in images:
                raise UnknownSymbolError(f"symbol {name!r} has no tabulated image")
        for name, image in images.items():
            if name not in symbols.names:
                raise UnknownSymbolError(f"image given for unknown symbol {name!r}")
            if image.gens != target.gens:
                raise GeneratorMismatchError(f"image of {name!r} is not in the target ring")
            if not image.is_zero:
                degree = image.weighted_degree()
                expected = symbols.weights[symbols.index(name)]
                if degree != expected:
                    raise DegreeError(
                        f"image of {name!r} has degree {degree}, symbol has codimension {expected}"
                    )
        self.symbols = symbols
        self.target = target
        self.images = dict(images)
        self.stack_degree = stack_degree
        # Each symbol's image, keyed by the symbol's exponent vector (one 1, the rest 0).
        self._by_exponents = {
            tuple(int(j == symbols.index(name)) for j in range(len(symbols))): image._terms
            for name, image in images.items()
        }

    def image(self, symbol: str) -> Polynomial:
        try:
            return self.images[symbol]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {symbol!r}") from None

    def push_combination(self, combo: Polynomial) -> Polynomial:
        """Image of a linear combination of symbols, by linearity.

        All symbols must share one codimension.  The result is the literal
        linear combination of the stored images, not reduced, so callers
        can check it coefficient by coefficient as well as as a class.
        """
        symbols = self.symbols
        if combo.gens != symbols:
            raise GeneratorMismatchError("combination is not over the symbol set")
        images, weights = self._by_exponents, symbols.weights
        degrees = set()
        for mono, coeff in combo._terms.items():
            if mono not in images:
                if not any(mono):
                    raise DegreeError(
                        f"combination must be linear in the symbols; "
                        f"its constant term {format_rational(coeff)} is not tabulated"
                    )
                raise DegreeError("combination must be linear in the symbols; products are not tabulated")
            degrees.add(weights[mono.index(1)])
        if len(degrees) > 1:
            raise DegreeError(f"mixed symbol codimensions {sorted(degrees)} in one combination")
        return Polynomial._raw(self.target.gens, apply_linear(combo._terms.items(), images))
