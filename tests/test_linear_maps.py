"""Degrees and pushforwards as per-monomial linear maps, against the formulas they replaced."""

import random
from fractions import Fraction

from avchow import (
    DegreeFunctional,
    GeneratorSet,
    PushforwardRule,
    QuotientRing,
    RelativeRing,
    RingPresentation,
    parse_expression,
)

from helpers import random_coefficient, random_homogeneous, random_polynomial
from oracles import degree_by_normal_form, push_combination_by_polynomials, pushforward_by_decomposition


def test_degree_matches_normal_form_formula(catalog):
    rng = random.Random(20261018)
    with_functional = []
    for name in catalog.ring_names():
        loaded = catalog.ring(name)
        functional = loaded.functional
        if functional is None:
            continue
        with_functional.append(name)
        gens = loaded.ring.gens
        top = functional.top_degree
        samples = [functional.reference_element, gens.zero()]
        samples += [random_homogeneous(rng, gens, top, max_terms=5) for _ in range(40)]
        for _ in range(40):  # products of complementary degrees, as pairing matrices form them
            k = rng.randint(0, top)
            samples.append(random_homogeneous(rng, gens, k) * random_homogeneous(rng, gens, top - k))
        for p in samples:
            value = functional.degree(p)
            assert isinstance(value, Fraction)
            assert value == degree_by_normal_form(functional, p), (name, str(p))
    assert with_functional == ["a1_tilde", "a2_tilde", "a2_tilde_2gen", "a3_tilde"]


def test_degree_on_a_ring_that_is_not_artinian():
    gens = GeneratorSet([("x", 1), ("y", 1)])
    relations = [parse_expression(text, gens) for text in ("y^2", "x*y")]
    ring = QuotientRing(RingPresentation("line", gens, relations))
    assert not ring.artinian
    assert ring.hilbert_function(4) == [1, 2, 1, 1, 1]
    functional = DegreeFunctional(ring, parse_expression("x^3", gens), Fraction(2))
    assert functional.degree(parse_expression("(x + y)^3 - 5*x^2*y", gens)) == 2
    rng = random.Random(7)
    for _ in range(40):
        p = random_homogeneous(rng, gens, 3, max_terms=4)
        assert functional.degree(p) == degree_by_normal_form(functional, p), str(p)


def _fresh_relative(catalog):
    """A RelativeRing over the catalog's x2_tilde rings, with nothing pushed yet."""
    surface = catalog.fibered_surface()
    return RelativeRing(surface.base.ring, surface.combined.ring, surface.relative.fiber_names)


def test_fibre_pushforward_matches_decomposition(catalog):
    surface = catalog.fibered_surface()
    relative = _fresh_relative(catalog)
    base_gens = relative.base.gens
    combined = relative.combined
    twisted = PushforwardRule(base_gens.zero(), base_gens.one(), base_gens.gen("lambda1"), shift=1)
    rules = [
        (surface.rule, surface.rule),
        (None, PushforwardRule.fiber_integration(base_gens)),
        (twisted, twisted),
    ]
    rng = random.Random(1993)
    for rule, reference in rules:
        for _ in range(60):
            p = random_polynomial(rng, combined.gens, max_degree=combined.socle_degree + 1, max_terms=5)
            assert relative.pushforward(p, rule) == pushforward_by_decomposition(relative, p, reference), str(p)
        for d in range(combined.socle_degree + 1):
            for mono in combined.standard_monomials(d):
                p = combined.gens.monomial(mono)
                assert relative.pushforward(p, rule) == pushforward_by_decomposition(relative, p, reference)


def test_fibre_pushforward_on_a_ring_that_is_not_artinian():
    base_gens = GeneratorSet([("a", 1)])
    combined_gens = GeneratorSet([("t", 1), ("s", 2), ("a", 1)])
    base = QuotientRing(RingPresentation("line", base_gens, []))
    relations = [parse_expression(text, combined_gens) for text in ("t^2 - a*t", "t*s", "s^2")]
    combined = QuotientRing(RingPresentation("free", combined_gens, relations))
    assert not base.artinian and not combined.artinian
    relative = RelativeRing(base, combined, ("t", "s"))
    rule = PushforwardRule(base_gens.zero(), base_gens.gen("a"), base_gens.one())
    # a^4*t^2 = a^5*t pushes to a^5 * a, and a^5*s to a^5.
    pushed = relative.pushforward(parse_expression("a^5*s + a^4*t^2", combined_gens), rule)
    assert pushed == parse_expression("a^6 + a^5", base_gens)
    rng = random.Random(11)
    for _ in range(30):
        p = random_polynomial(rng, combined_gens, max_degree=6, max_terms=5)
        assert relative.pushforward(p, rule) == pushforward_by_decomposition(relative, p, rule), str(p)


def test_pushed_monomials_are_kept_and_bounded(catalog):
    relative = _fresh_relative(catalog)
    combined = relative.combined
    table = combined._nf_cache
    gens = combined.gens
    everything = gens.zero()
    for d in range(combined.socle_degree + 3):
        for mono in gens.monomials_of_degree(d):
            everything = everything + gens.monomial(mono)
    relative.pushforward(gens.gen("t") ** 2)
    assert len(relative._pushed) == 1
    first = relative.pushforward(everything)
    # Only monomials with a table entry are kept; the others push to 0.
    assert set(relative._pushed) == set(table)
    for _ in range(3):
        assert relative.pushforward(everything) == first
        assert relative.pushforward(everything, None) == first
    assert len(relative._pushed) == len(table)


def test_torelli_pushforward_matches_polynomial_sum(catalog):
    data = catalog.torelli()
    push, symbols = data.push, data.symbols
    by_codim = {}
    for name, weight in zip(symbols.names, symbols.weights):
        by_codim.setdefault(weight, []).append(name)
    rng = random.Random(4)
    for names in by_codim.values():
        for _ in range(30):
            chosen = rng.sample(names, rng.randint(1, min(4, len(names))))
            # Coefficients may be 0, and a symbol may repeat in the pair form.
            pairs = [(random_coefficient(rng), name) for name in chosen]
            pairs.append((random_coefficient(rng), chosen[0]))
            expected = push_combination_by_polynomials(push, pairs)
            assert push.push_combination(pairs) == expected
            combo = symbols.zero()
            for coeff, name in pairs:
                combo = combo + coeff * symbols.gen(name)
            assert push.push_combination(combo) == expected
    assert push.push_combination([]) == push.target.zero()
