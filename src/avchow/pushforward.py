"""Pushforwards: fiber integration over a base ring, and tabulated maps.

Two shapes of pushforward appear in the catalog.  The universal family
over the genus-2 space is handled by a RelativeRing: its Chow ring is a
free module over the base with basis {1, t, s}, every element reduces to
that shape through the Groebner staircase, and fiber integration reads off
the s-component.  The Torelli-style maps are pure tables: linear data
assigning each formal source symbol an image polynomial, extended by
linearity only, never multiplicatively.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import DegreeError, GeneratorMismatchError, UnknownSymbolError
from .poly import GeneratorSet, Polynomial
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
        tests exercise with randomized reduction paths.
        """
        if rule is None:
            rule = PushforwardRule.fiber_integration(self.base.gens)
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
            rule = PushforwardRule.fiber_integration(self.base.gens)
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

    def image(self, symbol: str) -> Polynomial:
        try:
            return self.images[symbol]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {symbol!r}") from None

    def _as_pairs(self, combo: Combination) -> list[tuple[Fraction, str]]:
        if isinstance(combo, Polynomial):
            if combo.gens != self.symbols:
                raise GeneratorMismatchError("combination is not over the symbol set")
            pairs = []
            for mono, coeff in combo.terms():
                if sum(mono) != 1:
                    raise DegreeError(
                        "combination must be linear in the symbols; products are not tabulated"
                    )
                index = next(i for i, e in enumerate(mono) if e)
                pairs.append((coeff, self.symbols.names[index]))
            return pairs
        return [(Fraction(c), name) for c, name in combo]

    def push_combination(self, combo: Combination) -> Polynomial:
        """Image of a linear combination of symbols, by linearity.

        All symbols must share one codimension.  The result is the literal
        linear combination of the stored images, not reduced, so callers
        can check it coefficient by coefficient as well as as a class.
        """
        pairs = self._as_pairs(combo)
        if not pairs:
            return self.target.zero()
        degrees = set()
        for _, name in pairs:
            if name not in self.symbols.names:
                raise UnknownSymbolError(f"unknown symbol {name!r}")
            degrees.add(self.symbols.weights[self.symbols.index(name)])
        if len(degrees) > 1:
            raise DegreeError(f"mixed symbol codimensions {sorted(degrees)} in one combination")
        result = self.target.zero()
        for coeff, name in pairs:
            result = result + coeff * self.images[name]
        return result
