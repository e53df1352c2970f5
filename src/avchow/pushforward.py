"""Pushforwards: fiber integration over a base ring, and tabulated maps.

Two shapes of pushforward appear in the catalog.  The universal family
over the genus-2 space is handled by a RelativeRing: its Chow ring is a
free module over the base with basis {1, t, s}, where t and s, in that
order, are the generators of the combined ring that the base lacks.
Every standard monomial is a base monomial times one of the three, and
fiber integration applies a rule to that module generator.  The
Torelli-style maps are pure tables: linear data assigning each formal
source symbol an image polynomial, extended by linearity only, never
multiplicatively.

Both are linear maps given per basis element, and each is validation
followed by one ``poly.apply_linear`` call over a table of images.  The
Torelli table keys each symbol's image by the symbol's exponent vector.
When a RelativeRing is first passed a rule, it reads the rule's
codimension shift off the images and tabulates the base image of each
standard combined monomial and, in one pass, of every monomial of the
combined normal-form table; a monomial outside the normal-form table has
normal form 0 and pushes to 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DegreeError, GeneratorMismatchError, UnknownSymbolError
from .poly import GeneratorSet, Monomial, Polynomial, apply_linear, format_rational
from .quotient import DegreeFunctional, QuotientRing


class PushforwardRule:
    """Base-linear images of the module generators 1, t, s.

    The zero-section geometry of the catalog sends 1 and t to zero and s
    to 1.  A rule has a codimension shift: each nonzero image of a module
    generator of weight w is homogeneous of degree w - shift.  A
    RelativeRing reads the shift off the images, which must agree on it,
    when it first pushes with the rule, since the weights of t and s are
    those of its combined ring.
    """

    __slots__ = ("one_image", "t_image", "s_image")

    def __init__(self, one_image: Polynomial, t_image: Polynomial, s_image: Polynomial):
        gens = one_image.gens
        if t_image.gens != gens or s_image.gens != gens:
            raise GeneratorMismatchError("rule images must share one generator set")
        self.one_image = one_image
        self.t_image = t_image
        self.s_image = s_image


class RelativeRing:
    """Quotient ring fibered over a base, free with module basis {1, t, s}.

    The fiber generators are the two generators of the combined ring that
    the base lacks, in the combined ring's order: the first is t, the
    second s.  The combined Groebner staircase must kill t^2, t*s and s^2
    so that every standard monomial has fiber part 1, t or s.
    """

    def __init__(self, base: QuotientRing, combined: QuotientRing):
        fiber_names = tuple(name for name in combined.gens.names if name not in base.gens.names)
        if len(fiber_names) != 2:
            raise ValueError(f"expected exactly two fiber generators, found {', '.join(fiber_names) or 'none'}")
        self.base = base
        self.combined = combined
        self.fiber_names = fiber_names
        self._t_index, self._s_index = (combined.gens.index(name) for name in fiber_names)
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
        # A rule's codimension shift and the base image of each monomial of
        # the combined normal-form table, built when the rule is first passed
        # and kept for one rule at a time (the catalog always passes the same one).
        self._pushed_rule: PushforwardRule | None = None
        self._shift: int | None = None
        self._pushed: dict[Monomial, dict[Monomial, Fraction]] = {}

    def _tabulate(self, rule: PushforwardRule) -> None:
        """Keep the rule, its codimension shift and the base image of each monomial of the table.

        Each nonzero image of a module generator gives the shift, the
        generator's weight minus the image's degree; a rule with no nonzero
        image has none.  A standard combined monomial b * f, f in {1, t, s},
        maps to the base normal form of b * rule(f); every other monomial of
        the table maps through its normal form.
        """
        slots = {(0, 0): rule.one_image, (1, 0): rule.t_image, (0, 1): rule.s_image}
        base, combined = self.base, self.combined
        weights = combined.gens.weights
        shifts = {
            name: weight - image.weighted_degree()
            for name, weight, image in (
                ("1", 0, rule.one_image),
                (self.fiber_names[0], weights[self._t_index], rule.t_image),
                (self.fiber_names[1], weights[self._s_index], rule.s_image),
            )
            if not image.is_zero
        }
        if len(set(shifts.values())) > 1:
            raise DegreeError(
                "rule images disagree on the codimension shift: "
                + ", ".join(f"{name} gives {shift}" for name, shift in shifts.items())
            )
        images = {}
        for degree in range(combined.socle_degree + 1):
            for mono in combined.standard_monomials(degree):
                fiber = slots[mono[self._t_index], mono[self._s_index]]
                factor = base.gens.monomial(tuple(mono[j] for j in self._base_positions))
                images[mono] = base.normal_form(factor * fiber)._terms
        pushed = {mono: apply_linear(nf.items(), images) for mono, nf in combined._nf_cache.items()}
        self._pushed_rule, self._shift, self._pushed = rule, next(iter(shifts.values()), None), pushed

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
            self._tabulate(rule)
        return Polynomial._raw(self.base.gens, apply_linear(p._terms.items(), self._pushed))

    def relative_degree(self, p: Polynomial, functional: DegreeFunctional, rule: PushforwardRule) -> Fraction:
        """Degree of the pushforward of p against the base functional.

        Nonzero input must be homogeneous, of combined degree equal to the
        base top degree plus the rule's codimension shift when the rule has
        one; a rule without a shift pushes everything to 0.
        """
        if functional.ring is not self.base and functional.ring.gens != self.base.gens:
            raise GeneratorMismatchError("functional does not live on the base ring")
        pushed = self.pushforward(p, rule)
        if not p.is_zero:
            d = p.weighted_degree()
            if self._shift is not None and d != functional.top_degree + self._shift:
                raise DegreeError(f"expected combined degree {functional.top_degree + self._shift}, got {d}")
        return functional.degree(pushed)


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
