"""Fiber integration over a relative ring and tabulated pushforwards."""

import random
from fractions import Fraction

import pytest

from avchow import (
    DegreeError,
    DegreeFunctional,
    GeneratorMismatchError,
    GeneratorSet,
    PushforwardRule,
    QuotientRing,
    RelativeRing,
    RingPresentation,
    TabulatedPushforward,
    UnknownSymbolError,
    parse_expression,
)
from avchow.catalog import Catalog

from helpers import random_homogeneous, random_polynomial
from oracles import decompose

BASE_GENS = GeneratorSet([("a", 1)])
COMBINED_GENS = GeneratorSet([("t", 1), ("s", 2), ("a", 1)])


def base_ring():
    return QuotientRing(
        RingPresentation("base", BASE_GENS, [parse_expression("a^3", BASE_GENS)])
    )


def combined_ring():
    # free base module with basis {1, t, s}: t*t = a*t, t*s = s*s = 0
    texts = ("t^2 - a*t", "t*s", "s^2", "a^3")
    relations = [parse_expression(t, COMBINED_GENS) for t in texts]
    return QuotientRing(RingPresentation("combined", COMBINED_GENS, relations))


def surface():
    return RelativeRing(base_ring(), combined_ring())


def fiber_integration():
    """The catalog's rule: 1 -> 0, t -> 0, s -> 1, codimension shift 2."""
    return PushforwardRule(BASE_GENS.zero(), BASE_GENS.zero(), BASE_GENS.one())


def c(text):
    return parse_expression(text, COMBINED_GENS)


def b(text):
    return parse_expression(text, BASE_GENS)


def base_functional(rel):
    """The base degree with a^2 -> 1."""
    return DegreeFunctional(rel.base, b("a^2"), Fraction(1))


def total_functional(rel, rule):
    """The degree on the combined ring that the rule gives: the base degree of its pushed top monomial."""
    (top,) = rel.combined.standard_basis_polynomials(rel.combined.socle_degree)
    return DegreeFunctional(rel.combined, top, base_functional(rel).degree(rel.pushforward(top, rule)))


class TestRelativeRing:
    def test_module_basis_must_be_free(self):
        # In each presentation one fiber square is standard, so {1, t, s} is no module basis.
        for square, texts in (
            ("t^2", ("a^3", "t^3", "t*s", "s^2")),
            ("t*s", ("a^3", "t^2 - a*t", "s^2")),
            ("s^2", ("a^3", "t^2 - a*t", "t*s", "s^3")),
        ):
            sparse = QuotientRing(
                RingPresentation(
                    "sparse", COMBINED_GENS, [parse_expression(t, COMBINED_GENS) for t in texts]
                )
            )
            (mono,) = c(square)._terms
            assert mono in sparse.standard_monomials(COMBINED_GENS.weighted_degree(mono))
            with pytest.raises(DegreeError, match="module basis"):
                RelativeRing(base_ring(), sparse)

    def test_exactly_two_fiber_generators(self):
        # The combined generators the base lacks, in the combined ring's
        # order: the first plays the part of t, even when it is named s.
        assert surface().fiber_names == ("t", "s")
        for gens, texts, found in (
            ([("s", 2), ("a", 1), ("t", 1)], ("t^2", "t*s", "s^2", "a^3"), None),
            ([("a", 1)], ("a^3",), "none"),
            ([("t", 1), ("a", 1)], ("t^2", "a^3"), "t"),
            ([("t", 1), ("s", 2), ("u", 1), ("a", 1)], ("t^2", "t*s", "s^2", "u^2", "t*u", "a^3"), "t, s, u"),
        ):
            gens = GeneratorSet(gens)
            ring = QuotientRing(RingPresentation("other", gens, [parse_expression(t, gens) for t in texts]))
            if found is None:
                assert RelativeRing(base_ring(), ring).fiber_names == ("s", "t")
                continue
            with pytest.raises(ValueError, match=f"^expected exactly two fiber generators, found {found}$"):
                RelativeRing(base_ring(), ring)

    def test_base_generators_keep_their_weights(self):
        heavy = GeneratorSet([("a", 2)])
        base = QuotientRing(RingPresentation("heavy", heavy, [parse_expression("a^3", heavy)]))
        with pytest.raises(GeneratorMismatchError, match="base generator 'a' changes weight in the combined ring"):
            RelativeRing(base, combined_ring())

    def test_pushforward_rejects_elements_of_other_rings(self):
        with pytest.raises(GeneratorMismatchError, match="element belongs to a different ring"):
            surface().pushforward(b("a^2"), fiber_integration())

    def test_decompose(self):
        rel = surface()
        parts = decompose(rel, c("t^2 + 5*a*t + s*a - 7"))
        assert parts["1"] == b("-7")
        assert parts["t"] == b("6*a")
        assert parts["s"] == b("a")

    def test_decompose_lives_in_base_generators(self):
        rel = surface()
        parts = decompose(rel, c("s*t^2"))
        for piece in parts.values():
            assert piece.gens == BASE_GENS

    def test_fiber_integration_rule(self):
        rel = surface()
        rule = fiber_integration()
        assert rel.pushforward(c("s*a"), rule) == b("a")
        assert rel.pushforward(c("a^2 + t*a"), rule).is_zero
        # t^2 rewrites to a*t, which still dies under t -> 0
        assert rel.pushforward(c("t^2"), rule).is_zero

    def test_custom_rule(self):
        rel = surface()
        rule = PushforwardRule(b("0"), b("1"), b("a"))
        assert rel.pushforward(c("t*a + s"), rule) == b("2*a")
        assert rel.pushforward(c("t*a^2 + s*a"), rule) == b("2*a^2")
        # Its shift is 1, so the top monomial s*a^2 pushes above the base
        # socle, to 0, and gives the combined ring no degree.
        assert rel.pushforward(c("s*a^2"), rule).is_zero
        with pytest.raises(DegreeError, match="^reference value must be nonzero"):
            total_functional(rel, rule)

    def test_rule_images_must_share_generators(self):
        other = GeneratorSet([("z", 1)])
        with pytest.raises(GeneratorMismatchError, match="^rule images must share one generator set$"):
            PushforwardRule(b("0"), other.gen("z"), b("1"))

    def test_pushforward_is_linear(self):
        rel = surface()
        rule = fiber_integration()
        rng = random.Random(3)
        for _ in range(20):
            p = random_polynomial(rng, COMBINED_GENS, max_degree=4)
            q = random_polynomial(rng, COMBINED_GENS, max_degree=4)
            sum_image = rel.pushforward(p + q, rule)
            assert sum_image == rel.base.normal_form(
                rel.pushforward(p, rule) + rel.pushforward(q, rule)
            )

    def test_pushforward_well_defined_on_classes(self):
        rel = surface()
        rng = random.Random(17)
        relations = rel.combined.presentation.relations
        for _ in range(20):
            p = random_polynomial(rng, COMBINED_GENS, max_degree=4)
            moved = p
            for r in relations:
                moved = moved + random_polynomial(rng, COMBINED_GENS, max_degree=2) * r
            assert rel.pushforward(moved, fiber_integration()) == rel.pushforward(p, fiber_integration())

    def test_relative_degree(self):
        # Base top degree 2 plus shift 2: the combined degree 4 integrates,
        # and every class there has the base degree of its pushforward.
        rel = surface()
        rule = fiber_integration()
        functional = total_functional(rel, rule)
        assert functional.reference_element == c("s*a^2")
        assert functional.reference_value == 1
        assert functional.degree(c("s*a^2")) == 1
        assert functional.degree(c("t^2*a^2")) == 0
        rng = random.Random(5)
        for _ in range(20):
            p = random_homogeneous(rng, COMBINED_GENS, 4, max_terms=5)
            assert functional.degree(p) == base_functional(rel).degree(rel.pushforward(p, rule)), str(p)

    def test_relative_degree_rejects_wrong_degree(self):
        functional = total_functional(surface(), fiber_integration())
        with pytest.raises(DegreeError, match="^expected degree 4, got 3$"):
            functional.degree(c("s*a"))

    def test_relative_degree_rejects_foreign_functional(self):
        # A class of the base is no class of the total space, and a functional
        # on another ring takes no class of the total space.
        rel = surface()
        with pytest.raises(GeneratorMismatchError, match="^element belongs to a different ring$"):
            total_functional(rel, fiber_integration()).degree(b("a^2"))
        other_gens = GeneratorSet([("z", 1)])
        other = QuotientRing(
            RingPresentation("other", other_gens, [parse_expression("z^3", other_gens)])
        )
        functional = DegreeFunctional(
            other, parse_expression("z^2", other_gens), Fraction(1)
        )
        with pytest.raises(GeneratorMismatchError, match="^element belongs to a different ring$"):
            functional.degree(c("s*a^2"))

    def test_rule_shift_is_read_off_its_images(self, catalog):
        # Over the catalog's surface, t -> 1 and s -> lambda1 agree on shift 1,
        # so the top class s*sigma1^3, of combined degree 5, pushes above the
        # base socle, to 0: a surface with that rule is refused rather than
        # given a degree that reads 0 on every class.
        fibred = catalog.fibered_surface()
        relative = RelativeRing(fibred.base.ring, fibred.combined.ring)
        gens = fibred.base.ring.gens
        element = fibred.combined.parse("s*sigma1^3")
        shifted = PushforwardRule(gens.zero(), gens.one(), gens.gen("lambda1"))
        assert relative.pushforward(element, shifted).is_zero
        below = relative.pushforward(fibred.combined.parse("s*sigma1^2"), shifted)
        assert below == fibred.base.ring.normal_form(fibred.base.parse("lambda1*sigma1^2")) != 0
        fresh = Catalog()
        fresh.ring("x2_tilde").raw["fibration"]["rule"] = {"one": "0", "t": "1", "s": "lambda1"}
        with pytest.raises(DegreeError, match="^reference value must be nonzero"):
            fresh.fibered_surface()
        sigma1_cubed = fibred.base.functional.degree(fibred.base.parse("sigma1^3"))
        assert fibred.functional.degree(element) == sigma1_cubed != 0

    def test_rule_grading_must_match_its_shift(self):
        # Every nonzero image gives a shift, 1 included, and a mixed image is refused.
        rel = surface()
        for rule, message in (
            (PushforwardRule(b("a"), b("1"), b("0")), "^rule images disagree on the codimension shift: 1 gives -1, t gives 1$"),
            (PushforwardRule(b("0"), b("a"), b("1")), "^rule images disagree on the codimension shift: t gives 0, s gives 2$"),
            (PushforwardRule(b("1"), b("0"), b("a")), ": 1 gives 0, s gives 1$"),
            (PushforwardRule(b("0"), b("0"), b("1 + a")), "homogeneous"),
        ):
            with pytest.raises(DegreeError, match=message):
                rel.pushforward(c("s"), rule)
        assert rel.pushforward(c("t*a + s"), PushforwardRule(b("0"), b("1"), b("a"))) == b("2*a")

    def test_rule_without_a_nonzero_image_has_no_shift(self):
        # It pushes every class to 0, so it gives the combined ring no degree.
        rel = surface()
        zero = PushforwardRule(b("0"), b("0"), b("0"))
        for text in ("1", "s*a^2", "t^2*a^2 + 3*s*a^2", "a^7*s", "s*a^2 + s"):
            assert rel.pushforward(c(text), zero).is_zero
        with pytest.raises(DegreeError, match="^reference value must be nonzero"):
            total_functional(rel, zero)


class TestTabulatedPushforward:
    def setup_method(self):
        self.target = QuotientRing(
            RingPresentation(
                "target",
                GeneratorSet([("x", 1), ("y", 1)]),
                [
                    parse_expression(t, GeneratorSet([("x", 1), ("y", 1)]))
                    for t in ("x^2 - y^2", "x*y")
                ],
            )
        )
        gens = self.target.gens
        self.symbols = GeneratorSet([("d0", 1), ("d1", 1), ("e", 2)])
        self.push = TabulatedPushforward(
            self.symbols,
            self.target,
            {
                "d0": parse_expression("2*x", gens),
                "d1": gens.zero(),
                "e": parse_expression("x*y - y^2", gens),
            },
            stack_degree=2,
        )

    def t(self, text):
        return parse_expression(text, self.target.gens)

    def test_image(self):
        assert self.push.image("d0") == self.t("2*x")
        with pytest.raises(UnknownSymbolError):
            self.push.image("d9")

    def test_push_combination_polynomial_input(self):
        combo = parse_expression("3*d0 - 2*d1", self.symbols)
        assert self.push.push_combination(combo) == self.t("6*x")

    def test_push_combination_fractional_coefficients(self):
        combo = parse_expression("1/2*d0 + 4*d1", self.symbols)
        assert self.push.push_combination(combo) == self.t("x")

    def test_products_of_symbols_rejected(self):
        with pytest.raises(DegreeError):
            self.push.push_combination(parse_expression("d0*d1", self.symbols))

    def test_mixed_codimension_rejected(self):
        with pytest.raises(DegreeError):
            self.push.push_combination(parse_expression("d0 + e", self.symbols))

    def test_image_degree_validated(self):
        gens = self.target.gens
        with pytest.raises(DegreeError):
            TabulatedPushforward(
                GeneratorSet([("d0", 2)]),
                self.target,
                {"d0": parse_expression("x", gens)},
            )

    def test_image_for_unknown_symbol_rejected(self):
        images = {"d0": self.t("x"), "d9": self.t("y")}
        with pytest.raises(UnknownSymbolError, match="image given for unknown symbol 'd9'"):
            TabulatedPushforward(GeneratorSet([("d0", 1)]), self.target, images)
        assert TabulatedPushforward(GeneratorSet([("d0", 1), ("d9", 1)]), self.target, images).image("d9") == self.t("y")

    def test_image_outside_target_rejected(self):
        # Same names and weights, one generator more: another ring.
        wider = GeneratorSet([("x", 1), ("y", 1), ("z", 1)])
        with pytest.raises(GeneratorMismatchError, match="image of 'd0' is not in the target ring"):
            TabulatedPushforward(GeneratorSet([("d0", 1)]), self.target, {"d0": parse_expression("x", wider)})

    def test_missing_image_rejected(self):
        with pytest.raises(UnknownSymbolError):
            TabulatedPushforward(
                GeneratorSet([("d0", 1), ("d1", 1)]),
                self.target,
                {"d0": self.target.gens.zero()},
            )
