"""Pushforwards: fiber integration over a base ring, and tabulated maps.

Two shapes of pushforward appear in the catalog.  The universal family
over the genus-2 space is handled by a RelativeRing: its Chow ring is a
free module over the base with basis {1, t, s}, every element reduces to
that shape through the Groebner staircase, and fiber integration reads off
the s-component.  The Torelli-style maps are pure tables: linear data
assigning each formal source symbol an image polynomial, extended by
linearity only, never multiplicatively.

Both are linear maps given per basis element.  The Torelli table stores
the image of each symbol as integer numerators over one denominator and
sums a combination with integer multiply-adds.  A RelativeRing over an
Artinian combined ring pushes each monomial of the combined normal-form
table the first time it is met, by decomposing it and applying the rule,
keeps the base image and sums the images with ``poly.apply_linear``; a
monomial outside the table has normal form 0 and pushes to 0, so the kept
images never outnumber the table's entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence, Union

from .errors import DegreeError, GeneratorMismatchError, UnknownSymbolError
from .poly import GeneratorSet, Monomial, Polynomial, apply_linear, format_rational, integer_terms
from .quotient import DegreeFunctional, QuotientRing


class PushforwardRule:
    """Base-linear images of the module generators 1, t, s.

    The zero-section geometry of the catalog sends 1 and t to zero and s
    to 1 with a codimension shift of 2; other rules are expressible but
    the shift must match the grading of the images.
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

    @classmethod
    def fiber_integration(cls, base_gens: GeneratorSet, shift: int = 2) -> PushforwardRule:
        """The standard rule: 1 -> 0, t -> 0, s -> 1."""
        return cls(base_gens.zero(), base_gens.zero(), base_gens.one(), shift)


class RelativeRing:
    """Quotient ring fibered over a base, free with module basis {1, t, s}.

    The combined presentation extends the base presentation by two fiber
    generators whose names are fixed at construction; the combined
    Groebner staircase must kill t^2, t*s and s^2 so that every normal
    form decomposes over the module basis.
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
        for mono in self._fiber_squares():
            if combined.groebner.is_standard(mono):
                raise DegreeError(
                    "combined staircase does not reduce the fiber generators; "
                    "module basis {1, t, s} is not free over this presentation"
                )
        self.default_rule = PushforwardRule.fiber_integration(base.gens)
        # Pushed base images of combined monomials, filled on first use and
        # kept for one rule at a time (the catalog always passes the same one).
        self._pushed_rule: PushforwardRule | None = None
        self._pushed: dict[Monomial, dict[Monomial, Fraction]] = {}

    def _fiber_squares(self):
        width = len(self.combined.gens)
        for exponents in ((2, 0), (1, 1), (0, 2)):
            mono = [0] * width
            mono[self._t_index] = exponents[0]
            mono[self._s_index] = exponents[1]
            yield tuple(mono)

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form in the combined quotient ring."""
        return self.combined.normal_form(p)

    def decompose(self, p: Polynomial) -> dict[str, Polynomial]:
        """Write the class of p as b1 * 1 + bt * t + bs * s over the base.

        Returns {"1": b1, "t": bt, "s": bs} with base-ring polynomials.
        """
        nf = self.reduce(p)
        parts = {"1": self.base.zero(), "t": self.base.zero(), "s": self.base.zero()}
        width = len(self.base.gens)
        for mono, coeff in nf.terms():
            e_t = mono[self._t_index]
            e_s = mono[self._s_index]
            base_mono = [0] * width
            for slot, j in enumerate(self._base_positions):
                base_mono[slot] = mono[j]
            term = self.base.gens.monomial(tuple(base_mono), coeff)
            if (e_t, e_s) == (0, 0):
                parts["1"] = parts["1"] + term
            elif (e_t, e_s) == (1, 0):
                parts["t"] = parts["t"] + term
            elif (e_t, e_s) == (0, 1):
                parts["s"] = parts["s"] + term
            else:
                raise DegreeError(f"normal form retains fiber exponents {mono}")
        return parts

    def pushforward(self, p: Polynomial, rule: PushforwardRule | None = None) -> Polynomial:
        """Integrate over the fiber: apply the rule to the decomposition.

        The result is the base normal form; reduction order cannot matter
        because normal forms against a Groebner basis are unique, which the
        tests exercise with randomized reduction paths.  The map is linear,
        so on an Artinian combined ring each monomial with an entry in the
        combined normal-form table is pushed once and its image reused; a
        monomial without an entry has normal form 0 and pushes to 0.
        """
        if rule is None:
            rule = self.default_rule
        combined = self.combined
        if combined.socle_degree is None:
            return self._push_class(p, rule)
        if p.gens != combined.gens:
            raise GeneratorMismatchError("element belongs to a different ring")
        if rule is not self._pushed_rule:
            self._pushed_rule, self._pushed = rule, {}
        pushed = self._pushed
        table = combined._nf_cache
        for mono in p._terms:
            if mono not in pushed and mono in table:
                pushed[mono] = self._push_class(combined.gens.monomial(mono), rule)._terms
        return Polynomial._raw(self.base.gens, apply_linear(p._terms.items(), pushed))

    def _push_class(self, p: Polynomial, rule: PushforwardRule) -> Polynomial:
        """The rule applied to the decomposition of p, as a base normal form."""
        parts = self.decompose(p)
        image = (
            parts["1"] * rule.one_image
            + parts["t"] * rule.t_image
            + parts["s"] * rule.s_image
        )
        return self.base.normal_form(image)

    def relative_degree(
        self,
        p: Polynomial,
        functional: DegreeFunctional,
        rule: PushforwardRule | None = None,
    ) -> Fraction:
        """Degree of the pushforward of p against the base functional.

        Nonzero input must be homogeneous of combined degree equal to the
        base top degree plus the rule's codimension shift.
        """
        if rule is None:
            rule = self.default_rule
        if functional.ring is not self.base and functional.ring.gens != self.base.gens:
            raise GeneratorMismatchError("functional does not live on the base ring")
        if not p.is_zero:
            d = p.weighted_degree()
            expected = functional.top_degree + rule.shift
            if d != expected:
                raise DegreeError(f"expected combined degree {expected}, got {d}")
        return functional.degree(self.pushforward(p, rule))


Combination = Union[Polynomial, Sequence[tuple[Fraction, str]]]


class TabulatedPushforward:
    """Linear pushforward given by a finite symbol table.

    Source symbols are formal classes with a codimension (their weight in
    the symbol generator set); each has an image in the target ring,
    either zero or homogeneous of the same codimension.  Combinations are
    linear with rational coefficients; products of symbols are rejected
    because multiplicativity is not part of the data.

    Each image is stored as integer numerators over one denominator, the
    lcm of its coefficients' denominators, and each symbol's exponent
    vector (one 1, the rest 0) maps to its name and codimension.  A
    combination is then summed with integer multiply-adds over the lcm of
    its terms' denominators, and one Fraction is made per output term.
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
        self._codimension = dict(zip(symbols.names, symbols.weights))
        self._unit = {
            symbols.gen(name).leading_monomial(): (name, weight) for name, weight in self._codimension.items()
        }
        self._table = {name: integer_terms(image._terms) for name, image in self.images.items()}

    def image(self, symbol: str) -> Polynomial:
        try:
            return self.images[symbol]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {symbol!r}") from None

    def _as_pairs(self, combo: Combination) -> list[tuple[Fraction, str, int]]:
        """(coefficient, symbol, codimension) for each term of the combination."""
        if isinstance(combo, Polynomial):
            if combo.gens != self.symbols:
                raise GeneratorMismatchError("combination is not over the symbol set")
            unit = self._unit
            pairs = []
            for mono, coeff in combo._terms.items():
                found = unit.get(mono)
                if found is None:
                    if not any(mono):
                        raise DegreeError(
                            f"combination must be linear in the symbols; "
                            f"its constant term {format_rational(coeff)} is not tabulated"
                        )
                    raise DegreeError(
                        "combination must be linear in the symbols; products are not tabulated"
                    )
                pairs.append((coeff, *found))
            return pairs
        pairs = []
        for c, name in combo:
            codimension = self._codimension.get(name) if isinstance(name, str) else None
            if codimension is None:
                raise UnknownSymbolError(f"unknown symbol {name!r}")
            pairs.append((Fraction(c), name, codimension))
        return pairs

    def push_combination(self, combo: Combination) -> Polynomial:
        """Image of a linear combination of symbols, by linearity.

        All symbols must share one codimension.  The result is the literal
        linear combination of the stored images, not reduced, so callers
        can check it coefficient by coefficient as well as as a class.
        """
        pairs = self._as_pairs(combo)
        degrees = {codimension for _, _, codimension in pairs}
        if len(degrees) > 1:
            raise DegreeError(f"mixed symbol codimensions {sorted(degrees)} in one combination")
        table = self._table
        terms = [(coeff, table[name]) for coeff, name, _ in pairs if coeff]
        scale = lcm(*[coeff.denominator * denominator for coeff, (_, denominator) in terms])
        numerators: dict[Monomial, int] = {}
        for coeff, (image, denominator) in terms:
            factor = coeff.numerator * (scale // (coeff.denominator * denominator))
            for mono, value in image.items():
                numerators[mono] = numerators.get(mono, 0) + factor * value
        result = {mono: Fraction(value, scale) for mono, value in numerators.items() if value}
        return Polynomial._raw(self.target.gens, result)
