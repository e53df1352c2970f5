"""Fiber integration over a relative ring and tabulated pushforwards."""

import random
from fractions import Fraction

import pytest

from avchow import (
    DegreeError,
    DegreeFunctional,
    GeneratorSet,
    PushforwardRule,
    QuotientRing,
    RelativeRing,
    RingPresentation,
    TabulatedPushforward,
    UnknownSymbolError,
    parse_expression,
)

from helpers import random_polynomial

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
    return RelativeRing(base_ring(), combined_ring(), ("t", "s"))


def c(text):
    return parse_expression(text, COMBINED_GENS)


def b(text):
    return parse_expression(text, BASE_GENS)


class TestRelativeRing:
    def test_module_basis_must_be_free(self):
        # t^2 is standard, so {1, t, s} is no module basis.
        texts = ("a^3", "t^3", "t*s", "s^2")
        sparse = QuotientRing(
            RingPresentation(
                "sparse", COMBINED_GENS, [parse_expression(t, COMBINED_GENS) for t in texts]
            )
        )
        with pytest.raises(DegreeError, match="module basis"):
            RelativeRing(base_ring(), sparse, ("t", "s"))

    def test_decompose(self):
        rel = surface()
        parts = rel.decompose(c("t^2 + 5*a*t + s*a - 7"))
        assert parts["1"] == b("-7")
        assert parts["t"] == b("6*a")
        assert parts["s"] == b("a")

    def test_decompose_lives_in_base_generators(self):
        rel = surface()
        parts = rel.decompose(c("s*t^2"))
        for piece in parts.values():
            assert piece.gens == BASE_GENS

    def test_fiber_integration_rule(self):
        rel = surface()
        assert rel.pushforward(c("s*a")) == b("a")
        assert rel.pushforward(c("a^2 + t*a")).is_zero
        # t^2 rewrites to a*t, which still dies under t -> 0
        assert rel.pushforward(c("t^2")).is_zero

    def test_custom_rule(self):
        rel = surface()
        rule = PushforwardRule(b("0"), b("1"), b("a"), shift=1)
        assert rel.pushforward(c("t*a + s"), rule) == b("2*a")

    def test_rule_images_must_share_generators(self):
        other = GeneratorSet([("z", 1)])
        with pytest.raises(Exception):
            PushforwardRule(b("0"), other.gen("z"), b("1"))

    def test_pushforward_is_linear(self):
        rel = surface()
        rng = random.Random(3)
        for _ in range(20):
            p = random_polynomial(rng, COMBINED_GENS, max_degree=4)
            q = random_polynomial(rng, COMBINED_GENS, max_degree=4)
            sum_image = rel.pushforward(p + q)
            assert sum_image == rel.base.normal_form(
                rel.pushforward(p) + rel.pushforward(q)
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
            assert rel.pushforward(moved) == rel.pushforward(p)

    def test_relative_degree(self):
        rel = surface()
        functional = DegreeFunctional(rel.base, b("a^2"), Fraction(1))
        # base top degree 2 plus shift 2: combined degree 4 integrates
        assert rel.relative_degree(c("s*a^2"), functional) == 1
        assert rel.relative_degree(c("t^2*a^2"), functional) == 0

    def test_relative_degree_rejects_wrong_degree(self):
        rel = surface()
        functional = DegreeFunctional(rel.base, b("a^2"), Fraction(1))
        with pytest.raises(DegreeError):
            rel.relative_degree(c("s*a"), functional)

    def test_relative_degree_rejects_foreign_functional(self):
        rel = surface()
        other_gens = GeneratorSet([("z", 1)])
        other = QuotientRing(
            RingPresentation("other", other_gens, [parse_expression("z^3", other_gens)])
        )
        functional = DegreeFunctional(
            other, parse_expression("z^2", other_gens), Fraction(1)
        )
        with pytest.raises(Exception):
            rel.relative_degree(c("s*a^2"), functional)


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

    def test_push_combination_pair_input(self):
        pairs = [(Fraction(1, 2), "d0"), (Fraction(4), "d1")]
        assert self.push.push_combination(pairs) == self.t("x")

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

    def test_missing_image_rejected(self):
        with pytest.raises(UnknownSymbolError):
            TabulatedPushforward(
                GeneratorSet([("d0", 1), ("d1", 1)]),
                self.target,
                {"d0": self.target.gens.zero()},
            )
