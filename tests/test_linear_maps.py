"""Degrees, pairings and pushforwards as per-monomial linear maps, against the formulas they replaced."""

import random
from fractions import Fraction

import pytest

from avchow import (
    RING_NAMES,
    DegreeError,
    DegreeFunctional,
    GeneratorMismatchError,
    GeneratorSet,
    PairingError,
    PushforwardRule,
    QuotientRing,
    RelativeRing,
    RingPresentation,
    parse_expression,
)

from helpers import random_coefficient, random_homogeneous, random_polynomial
from oracles import (
    degree_by_normal_form,
    monomials_of_degree,
    pairing_by_products,
    push_combination_by_polynomials,
    push_combination_by_table,
    pushforward_by_decomposition,
    solve_class_by_products,
)

WITH_FUNCTIONAL = ["a1_tilde", "a2_tilde", "a2_tilde_2gen", "a3_tilde"]


def test_degree_matches_normal_form_formula(catalog):
    rng = random.Random(20261018)
    with_functional = []
    for name in RING_NAMES:
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
    assert with_functional == WITH_FUNCTIONAL


def test_degree_on_a_ring_that_is_not_artinian():
    # x^n is standard for every n, so no ring is built to carry a functional.
    gens = GeneratorSet([("x", 1), ("y", 1)])
    relations = [parse_expression(text, gens) for text in ("y^2", "x*y")]
    with pytest.raises(DegreeError) as info:
        QuotientRing(RingPresentation("line", gens, relations))
    assert str(info.value) == "line is not Artinian: no power of x is a leading monomial of its Groebner basis"
    # With x^4 a relation too, the degree is read from the table.
    ring = QuotientRing(RingPresentation("line", gens, relations + [parse_expression("x^4", gens)]))
    assert ring.hilbert_function(4) == [1, 2, 1, 1, 0]
    functional = DegreeFunctional(ring, parse_expression("x^3", gens), Fraction(2))
    assert functional.degree(parse_expression("(x + y)^3 - 5*x^2*y", gens)) == 2
    rng = random.Random(7)
    for _ in range(40):
        p = random_homogeneous(rng, gens, 3, max_terms=4)
        assert functional.degree(p) == degree_by_normal_form(functional, p), str(p)


def _fresh_relative(catalog):
    """A RelativeRing over the catalog's x2_tilde rings, with nothing pushed yet."""
    surface = catalog.fibered_surface()
    return RelativeRing(surface.base.ring, surface.combined.ring)


def test_fibre_pushforward_matches_decomposition(catalog):
    surface = catalog.fibered_surface()
    relative = _fresh_relative(catalog)
    base_gens = relative.base.gens
    combined = relative.combined
    # The second rule has the catalog rule's images in a new object, so the
    # kept images are rebuilt; the third differs on every module generator.
    rules = [
        surface.rule,
        PushforwardRule(base_gens.zero(), base_gens.zero(), base_gens.one()),
        PushforwardRule(base_gens.one(), base_gens.gen("lambda1"), base_gens.gen("lambda1") ** 2),
    ]
    rng = random.Random(1993)
    for rule in rules:
        for _ in range(60):
            p = random_polynomial(rng, combined.gens, max_degree=combined.socle_degree + 1, max_terms=5)
            assert relative.pushforward(p, rule) == pushforward_by_decomposition(relative, p, rule), str(p)
        for d in range(combined.socle_degree + 1):
            for mono in combined.standard_monomials(d):
                p = combined.gens.monomial(mono)
                assert relative.pushforward(p, rule) == pushforward_by_decomposition(relative, p, rule)


def test_fibre_pushforward_on_a_ring_that_is_not_artinian():
    # Neither the line nor the free module over it is Artinian: both are
    # refused.  Over the base truncated at a^7, the same rule pushes the
    # same classes from the table.
    base_gens = GeneratorSet([("a", 1)])
    combined_gens = GeneratorSet([("t", 1), ("s", 2), ("a", 1)])
    relations = [parse_expression(text, combined_gens) for text in ("t^2 - a*t", "t*s", "s^2")]
    with pytest.raises(DegreeError, match="^line is not Artinian: no power of a is"):
        QuotientRing(RingPresentation("line", base_gens, []))
    with pytest.raises(DegreeError, match="^free is not Artinian: no power of a is"):
        QuotientRing(RingPresentation("free", combined_gens, relations))
    base = QuotientRing(RingPresentation("line", base_gens, [parse_expression("a^7", base_gens)]))
    combined = QuotientRing(RingPresentation("free", combined_gens, relations + [parse_expression("a^7", combined_gens)]))
    relative = RelativeRing(base, combined)
    rule = PushforwardRule(base_gens.zero(), base_gens.one(), base_gens.gen("a"))
    # a^4*t^2 = a^5*t pushes to a^5, and a^5*s to a^5 * a.
    pushed = relative.pushforward(parse_expression("a^5*s + a^4*t^2", combined_gens), rule)
    assert pushed == parse_expression("a^6 + a^5", base_gens)
    rng = random.Random(11)
    for _ in range(30):
        p = random_polynomial(rng, combined_gens, max_degree=6, max_terms=5)
        assert relative.pushforward(p, rule) == pushforward_by_decomposition(relative, p, rule), str(p)


def test_pushed_monomials_are_kept_and_bounded(catalog):
    rule = catalog.fibered_surface().rule
    relative = _fresh_relative(catalog)
    combined = relative.combined
    table = combined._nf_cache
    gens = combined.gens
    everything = gens.zero()
    for d in range(combined.socle_degree + 3):
        for mono in monomials_of_degree(gens.weights, d):
            everything = everything + gens.monomial(mono)
    first = relative.pushforward(everything, rule)
    # Only monomials with a table entry are kept; the others push to 0.
    assert set(relative._pushed) == set(table)
    for _ in range(3):
        assert relative.pushforward(everything, rule) == first
    assert len(relative._pushed) == len(table)


def sample_classes(rng, loaded, degree, count):
    """Basis monomials, zero, named classes and random p/q combinations of one degree."""
    ring = loaded.ring
    gens = ring.gens
    classes = ring.standard_basis_polynomials(degree) + [gens.zero()]
    classes += [poly for poly in loaded.named.values() if poly.weighted_degree() == degree]
    classes += [random_homogeneous(rng, gens, degree, max_terms=4) for _ in range(count)]
    return classes


@pytest.mark.parametrize("ring_name", WITH_FUNCTIONAL)
def test_pairing_matrix_matches_product_degrees(catalog, ring_name):
    rng = random.Random(435)
    loaded = catalog.ring(ring_name)
    functional = loaded.functional
    top = functional.top_degree
    for k in range(top + 1):
        rows = sample_classes(rng, loaded, k, 6)
        cols = sample_classes(rng, loaded, top - k, 6)
        for chosen_rows, chosen_cols in ((rows, cols), (cols[:3], rows[:2]), ([], cols), (rows, [])):
            codimension = k if chosen_rows is rows or chosen_cols is cols else top - k
            matrix = functional.pairing_matrix(codimension, chosen_rows, chosen_cols)
            assert all(type(value) is Fraction for row in matrix for value in row)
            assert matrix == pairing_by_products(functional, chosen_rows, chosen_cols), (ring_name, k)


@pytest.mark.parametrize("ring_name", WITH_FUNCTIONAL)
def test_solve_class_matches_product_degrees(catalog, ring_name):
    rng = random.Random(566)
    loaded = catalog.ring(ring_name)
    functional = loaded.functional
    ring = loaded.ring
    top = functional.top_degree
    outcomes = set()
    for k in range(top + 1):
        probes = sample_classes(rng, loaded, top - k, 3)
        square = ring.standard_basis_polynomials(top - k)
        for element in sample_classes(rng, loaded, k, 4):
            values = [degree_by_normal_form(functional, element * probe) for probe in probes]
            wrong = list(values)
            wrong[rng.randrange(len(wrong))] += Fraction(rng.randint(1, 5), rng.randint(1, 7))
            square_values = [degree_by_normal_form(functional, element * probe) for probe in square]
            systems = [(probes, values), (probes, wrong), (square, square_values), (square[1:], square_values[1:])]
            for chosen, chosen_values in systems:
                try:
                    expected = solve_class_by_products(functional, k, chosen, chosen_values)
                except Exception as err:
                    with pytest.raises(PairingError) as info:
                        functional.solve_class(k, chosen, chosen_values)
                    assert type(info.value.__cause__) is type(err)
                    outcomes.add(type(err).__name__)
                    continue
                solved = functional.solve_class(k, chosen, chosen_values)
                assert solved == expected, (ring_name, k, str(element))
                assert all(type(c) is Fraction for c in solved._terms.values())
                assert ring.normal_form(solved) == ring.normal_form(element)
                outcomes.add("solved")
    assert "solved" in outcomes and "InconsistentSystemError" in outcomes
    if ring_name != "a1_tilde":
        assert "SingularSystemError" in outcomes


def test_pairing_rejects_other_rings_and_mixed_degrees(catalog):
    loaded = catalog.ring("a3_tilde")
    functional = loaded.functional
    basis = loaded.ring.standard_basis_polynomials
    other = catalog.ring("a2_tilde").ring.gens.gen("lambda1")
    assert other.gens != loaded.ring.gens
    with pytest.raises(GeneratorMismatchError):
        functional.pairing_matrix(1, [other], basis(5))
    with pytest.raises(GeneratorMismatchError):
        functional.pairing_matrix(5, basis(5), [other])
    with pytest.raises(GeneratorMismatchError):
        functional.solve_class(5, [other], [Fraction(1)])
    mixed = loaded.parse("lambda1 + lambda1^2")
    with pytest.raises(DegreeError):
        functional.pairing_matrix(1, [mixed], basis(5))
    with pytest.raises(DegreeError):
        functional.pairing_matrix(5, basis(5), [mixed])
    with pytest.raises(DegreeError):
        functional.solve_class(5, [mixed], [Fraction(1)])
    with pytest.raises(DegreeError, match="row 1 has degree 2, expected 1"):
        functional.pairing_matrix(1, [loaded.parse("lambda1"), loaded.parse("lambda1^2")], basis(5))


def test_torelli_pushforward_matches_polynomial_sum(catalog):
    data = catalog.torelli()
    push, symbols = data.push, data.symbols
    for name in symbols.names:
        alone = push.push_combination(symbols.gen(name))
        assert alone == push.images[name] == push_combination_by_table(push, symbols.gen(name))
    by_codim = {}
    for name, weight in zip(symbols.names, symbols.weights):
        by_codim.setdefault(weight, []).append(name)
    rng = random.Random(4)
    for names in by_codim.values():
        for _ in range(40):
            chosen = rng.sample(names, rng.randint(1, min(5, len(names))))
            # Coefficients may be 0, and a symbol may repeat (its terms may cancel).
            pairs = [(random_coefficient(rng), name) for name in chosen]
            pairs.append((rng.choice((0, 3, Fraction(-7, 12), random_coefficient(rng))), chosen[0]))
            combo = symbols.zero()
            for coeff, name in pairs:
                combo = combo + coeff * symbols.gen(name)
            pushed = push.push_combination(combo)
            assert pushed == push_combination_by_polynomials(push, pairs) == push_combination_by_table(push, combo)
            assert all(type(c) is Fraction and c for c in pushed._terms.values())
    assert push.push_combination(symbols.zero()) == push.target.gens.zero()


LINEAR_ONLY = "combination must be linear in the symbols"


@pytest.mark.parametrize(
    "combo, error, text",
    [
        ("xi0 - 3/2", DegreeError, f"{LINEAR_ONLY}; its constant term -3/2 is not tabulated"),
        ("xi0*delta0", DegreeError, f"{LINEAR_ONLY}; products are not tabulated"),
        ("delta0 + 2*xi0 - qa", DegreeError, "mixed symbol codimensions [1, 2, 3] in one combination"),
        ("target:lambda1", GeneratorMismatchError, "combination is not over the symbol set"),
    ],
)
def test_torelli_push_error_texts(catalog, combo, error, text):
    data = catalog.torelli()
    if combo.startswith("target:"):
        combo = parse_expression(combo.removeprefix("target:"), data.push.target.gens)
    else:
        combo = data.parse_combination(combo)
    for push in (data.push.push_combination, lambda c: push_combination_by_table(data.push, c)):
        with pytest.raises(error) as info:
            push(combo)
        assert str(info.value) == text
