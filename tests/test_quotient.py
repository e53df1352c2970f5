"""Graded quotient rings, degree functionals, and presentation maps."""

import random
from fractions import Fraction

import pytest

from avchow import (
    DegreeError,
    DegreeFunctional,
    GeneratorSet,
    PairingError,
    Polynomial,
    QuotientRing,
    RingPresentation,
    parse_expression,
    presentations_equivalent,
)

from helpers import random_homogeneous, random_polynomial
from oracles import hilbert_series_oracle

XY = GeneratorSet([("x", 1), ("y", 1)])


def make_ring():
    relations = [parse_expression(t, XY) for t in ("x^2 - y^2", "x*y")]
    return QuotientRing(RingPresentation("tiny", XY, relations))


def q(text):
    return parse_expression(text, XY)


class TestQuotientRing:
    def test_inhomogeneous_relation_rejected(self):
        with pytest.raises(DegreeError):
            RingPresentation("bad", XY, [q("x^2 - y")])

    def test_normal_form_respects_relations(self):
        ring = make_ring()
        assert ring.normal_form(q("x^2")) == q("y^2")
        assert ring.normal_form(q("x*y")).is_zero
        assert ring.normal_form(q("x^3")).is_zero

    def test_normal_form_is_linear(self):
        ring = make_ring()
        a, b = q("3*x^2 + x"), q("x*y - 2*y")
        assert ring.normal_form(a + b) == ring.normal_form(a) + ring.normal_form(b)

    def test_classes_equal(self):
        ring = make_ring()
        assert ring.classes_equal(q("x^2"), q("y^2"))
        assert not ring.classes_equal(q("x"), q("y"))

    def test_contains(self):
        ring = make_ring()
        assert ring.contains(q("x^3 - 4*x*y^2"))
        assert not ring.contains(q("y^2"))

    def test_standard_monomials(self):
        ring = make_ring()
        assert ring.standard_monomials(0) == ((0, 0),)
        assert set(ring.standard_monomials(1)) == {(1, 0), (0, 1)}
        assert ring.standard_monomials(2) == ((0, 2),)
        assert ring.standard_monomials(3) == ()

    def test_standard_basis_polynomials(self):
        ring = make_ring()
        basis = ring.standard_basis_polynomials(1)
        assert sorted(str(b) for b in basis) == ["x", "y"]

    def test_hilbert_function(self):
        ring = make_ring()
        assert ring.hilbert_function(3) == [1, 2, 1, 0]
        with pytest.raises(DegreeError):
            ring.hilbert_function(-3)

    def test_artinian_socle_degree(self):
        ring = make_ring()
        assert ring.artinian is True
        assert ring.socle_degree == 2
        assert ring.standard_monomials(10**9) == ()
        assert ring.hilbert_function(400) == [1, 2, 1] + [0] * 398


def random_monomial(rng, gens, degree):
    """Random exponent vector of the given weighted degree (needs a weight-1 generator)."""
    exponents = [0] * len(gens)
    remaining = degree
    while remaining:
        i = rng.choice([i for i, w in enumerate(gens.weights) if w <= remaining])
        exponents[i] += 1
        remaining -= gens.weights[i]
    return tuple(exponents)


class TestArtinianNormalForm:
    def test_cache_matches_reduction_on_catalog_rings(self, catalog):
        rng = random.Random(20261018)
        names = catalog.ring_names()
        assert len(names) == 9
        for name in names:
            loaded = catalog.ring(name)
            ring = loaded.ring
            assert ring.artinian, name
            if loaded.expected_hilbert is not None:
                dims = loaded.expected_hilbert
                assert ring.socle_degree == max(d for d, n in enumerate(dims) if n), name
            for _ in range(60):
                p = random_polynomial(rng, ring.gens, max_degree=ring.socle_degree + 2, max_terms=4)
                reduced = ring.groebner.reduce(p)
                assert ring.normal_form(p) == reduced, (name, str(p))
                assert ring.groebner.reduce(p, rng=random.Random(rng.random())) == reduced

    def test_cache_bounded_by_monomials_up_to_socle(self, catalog):
        ring = QuotientRing(catalog.ring("a3_tilde").ring.presentation)
        gens = ring.gens
        below = [m for d in range(ring.socle_degree + 1) for m in gens.monomials_of_degree(d)]
        rng = random.Random(400)
        high = Polynomial(gens, {random_monomial(rng, gens, 400): rng.randint(1, 9) for _ in range(6)})
        assert high.weighted_degree() == 400
        assert ring.normal_form(high).is_zero
        assert ring.nf_dropped == len(high)
        low = Polynomial(gens, {m: 1 for m in below})
        assert ring.normal_form(low + high) == ring.groebner.reduce(low)
        assert len(ring._nf_cache) <= len(below)
        assert ring.nf_misses == len(ring._nf_cache)

    def test_repeated_normal_form_counts_hits(self):
        ring = make_ring()
        p = q("x^2 + 3*x*y - y + x^3")
        first = ring.normal_form(p)
        assert (ring.nf_hits, ring.nf_misses, ring.nf_dropped) == (0, 3, 1)
        assert ring.normal_form(p) == first
        assert (ring.nf_hits, ring.nf_misses, ring.nf_dropped) == (3, 3, 2)

    def test_non_artinian_ring_keeps_reduction(self):
        ring = QuotientRing(RingPresentation("axes", XY, [q("x*y")]))
        assert ring.artinian is False
        assert ring.socle_degree is None
        assert ring.standard_monomials(5) == ((5, 0), (0, 5))
        assert ring.hilbert_function(3) == [1, 2, 2, 2]
        rng = random.Random(3)
        for _ in range(40):
            p = random_polynomial(rng, XY, max_degree=6, max_terms=4)
            assert ring.normal_form(p) == ring.groebner.reduce(p)
        assert (ring.nf_hits, ring.nf_misses, ring.nf_dropped) == (0, 0, 0)

    def test_non_artinian_monomials_examined_are_capped(self, monkeypatch):
        monkeypatch.setattr("avchow.quotient.MAX_MONOMIALS_EXAMINED", 10)
        ring = QuotientRing(RingPresentation("axes", XY, [q("x*y")]))
        # Degrees 0..3 have 1 + 2 + 3 + 4 = 10 monomials; asking again is free.
        assert ring.hilbert_function(3) == [1, 2, 2, 2]
        assert ring.standard_monomials(2) == ((2, 0), (0, 2))
        with pytest.raises(DegreeError, match="MAX_MONOMIALS_EXAMINED = 10"):
            ring.standard_monomials(4)

    def test_standard_monomial_walk_is_capped(self, monkeypatch):
        monkeypatch.setattr("avchow.quotient.MAX_STANDARD_MONOMIALS", 5)
        X = GeneratorSet([("x", 1)])
        at_cap = QuotientRing(RingPresentation("at-cap", X, [X.gen("x") ** 5]))
        assert at_cap.hilbert_function(4) == [1, 1, 1, 1, 1]
        with pytest.raises(DegreeError, match="more than MAX_STANDARD_MONOMIALS = 5"):
            QuotientRing(RingPresentation("over-cap", X, [X.gen("x") ** 6]))

    def test_zero_ring(self):
        ring = QuotientRing(RingPresentation("zero", XY, [XY.one()]))
        assert ring.socle_degree == -1
        assert ring.normal_form(q("x + 1")).is_zero
        assert ring.hilbert_function(2) == [0, 0, 0]


class TestHilbertAgainstOracle:
    def test_random_homogeneous_ideals(self):
        gens = GeneratorSet([("a", 1), ("b", 1), ("c", 2)])
        rng = random.Random(5)
        for trial in range(10):
            relations = []
            for _ in range(rng.randint(1, 3)):
                r = random_homogeneous(rng, gens, rng.randint(1, 4))
                if not r.is_zero:
                    relations.append(r)
            if not relations:
                continue
            ring = QuotientRing(RingPresentation(f"rand{trial}", gens, relations))
            staircase = ring.hilbert_function(5)
            oracle = hilbert_series_oracle(
                gens.weights, [list(r.terms()) for r in relations], 5
            )
            assert staircase == oracle


class TestDegreeFunctional:
    def test_degree_values(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        assert functional.top_degree == 2
        assert functional.degree(q("x^2")) == 1
        assert functional.degree(q("x*y")) == 0
        assert functional.degree(q("3*x^2 + x*y")) == 3
        assert functional(q("y^2")) == 1

    def test_scaled_reference(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("2*y^2"), Fraction(1, 3))
        assert functional.degree(q("y^2")) == Fraction(1, 6)

    def test_zero_has_degree_zero(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        assert functional.degree(XY.zero()) == 0
        assert functional.degree(q("x*y")) == 0

    def test_wrong_degree_rejected(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        with pytest.raises(DegreeError):
            functional.degree(q("x"))

    def test_reference_must_be_nonzero_class(self):
        ring = make_ring()
        with pytest.raises(DegreeError):
            DegreeFunctional(ring, q("x*y"), Fraction(1))

    def test_pairing_matrix(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        rows = [q("x"), q("y")]
        matrix = functional.pairing_matrix(1, rows, rows)
        assert matrix == [[1, 0], [0, 1]]

    def test_pairing_matrix_rejects_wrong_degrees(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        with pytest.raises(DegreeError):
            functional.pairing_matrix(1, [q("x^2")], [q("y")])

    def test_solve_class(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        probes = [q("x"), q("y")]
        solved = functional.solve_class(1, probes, [Fraction(1), Fraction(0)])
        assert ring.classes_equal(solved, q("x"))

    def test_solve_class_inconsistent_data(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        probes = [q("x"), q("x"), q("y")]
        with pytest.raises(PairingError):
            functional.solve_class(1, probes, [Fraction(1), Fraction(2), Fraction(0)])

    def test_solve_class_singular_pairing(self):
        # in Q[x,y]/(x^2, x*y) the class y pairs to zero with everything
        relations = [q("x^2"), q("x*y")]
        ring = QuotientRing(RingPresentation("degenerate", XY, relations))
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        with pytest.raises(PairingError):
            functional.solve_class(1, [q("x"), q("y")], [Fraction(1), Fraction(1)])


class TestPresentationsEquivalent:
    def test_equivalent_pair(self):
        x = GeneratorSet([("x", 1)])
        uv = GeneratorSet([("u", 1), ("v", 2)])
        a = QuotientRing(RingPresentation("a", x, [parse_expression("x^3", x)]))
        b = QuotientRing(
            RingPresentation(
                "b", uv, [parse_expression(t, uv) for t in ("v - u^2", "u^3")]
            )
        )
        forward = {"x": parse_expression("u", uv)}
        backward = {
            "u": parse_expression("x", x),
            "v": parse_expression("x^2", x),
        }
        assert presentations_equivalent(a, b, forward, backward)

    def test_inequivalent_pair(self):
        x = GeneratorSet([("x", 1)])
        u = GeneratorSet([("u", 1)])
        a = QuotientRing(RingPresentation("a", x, [parse_expression("x^3", x)]))
        b = QuotientRing(RingPresentation("b", u, [parse_expression("u^4", u)]))
        forward = {"x": parse_expression("u", u)}
        backward = {"u": parse_expression("x", x)}
        assert not presentations_equivalent(a, b, forward, backward)
