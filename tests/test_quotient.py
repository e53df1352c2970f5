"""Graded quotient rings, degree functionals, and presentation maps."""

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
    Polynomial,
    QuotientRing,
    RingPresentation,
    parse_expression,
    presentations_equivalent,
)
from avchow.groebner import buchberger

from helpers import random_homogeneous, random_polynomial
from oracles import hilbert_series_oracle, monomials_of_degree, without_pure_powers

XY = GeneratorSet([("x", 1), ("y", 1)])
# The same names over another generator set.
XY2 = GeneratorSet([("x", 1), ("y", 2)])


def make_ring():
    relations = [parse_expression(t, XY) for t in ("x^2 - y^2", "x*y")]
    return QuotientRing(RingPresentation("tiny", XY, relations))


def q(text):
    return parse_expression(text, XY)


class TestQuotientRing:
    def test_inhomogeneous_relation_rejected(self):
        with pytest.raises(DegreeError):
            RingPresentation("bad", XY, [q("x^2 - y")])

    def test_relation_over_other_generators_rejected(self):
        with pytest.raises(GeneratorMismatchError, match="relation 1 is over a different generator set"):
            RingPresentation("bad", XY, [q("x^2"), parse_expression("y^2", XY2)])

    def test_elements_over_other_generators_rejected(self):
        ring = make_ring()
        other = parse_expression("x^2", XY2)
        with pytest.raises(GeneratorMismatchError, match="element belongs to a different ring"):
            ring.normal_form(other)
        for pair in ((other, q("x^2")), (q("x^2"), other)):
            with pytest.raises(GeneratorMismatchError, match="elements belong to a different ring"):
                ring.classes_equal(*pair)

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
        assert len(RING_NAMES) == 9
        for name in RING_NAMES:
            loaded = catalog.ring(name)
            ring = loaded.ring
            assert ring.socle_degree >= 0, name
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
        below = [m for d in range(ring.socle_degree + 1) for m in monomials_of_degree(gens.weights, d)]
        # The table is filled when the ring is built: every monomial up to
        # the socle degree whose normal form is not 0, and nothing else.
        nonzero = set()
        for mono in below:
            reduced = ring.groebner.reduce(gens.monomial(mono))._terms
            assert ring._nf_cache.get(mono, {}) == reduced, mono
            if reduced:
                nonzero.add(mono)
        assert set(ring._nf_cache) == nonzero
        rng = random.Random(400)
        high = Polynomial(gens, {random_monomial(rng, gens, 400): rng.randint(1, 9) for _ in range(6)})
        assert high.weighted_degree() == 400
        assert ring.normal_form(high).is_zero
        assert ring.nf_dropped == len(high)
        low = Polynomial(gens, {m: 1 for m in below})
        assert ring.normal_form(low + high) == ring.groebner.reduce(low)
        assert len(ring._nf_cache) == len(nonzero)

    def test_repeated_normal_form_counts_hits(self):
        ring = make_ring()
        assert len(ring._nf_cache) == 5  # 1, x, y, x^2 and y^2; x*y is 0
        p = q("x^2 + 3*x*y - y + x^3")
        first = ring.normal_form(p)
        assert (ring.nf_hits, ring.nf_dropped) == (2, 2)
        assert ring.normal_form(p) == first
        assert (ring.nf_hits, ring.nf_dropped) == (4, 4)
        assert len(ring._nf_cache) == 5

    def test_non_artinian_ring_is_refused(self):
        # x^n and y^n are standard for every n: the ring is not Artinian.
        with pytest.raises(DegreeError) as info:
            QuotientRing(RingPresentation("axes", XY, [q("x*y")]))
        assert str(info.value) == "axes is not Artinian: no power of x, y is a leading monomial of its Groebner basis"
        # Only the generators without a pure power are named.
        with pytest.raises(DegreeError) as info:
            QuotientRing(RingPresentation("line", XY, [q("y^2"), q("x*y")]))
        assert str(info.value) == "line is not Artinian: no power of x is a leading monomial of its Groebner basis"

    def test_non_artinian_monomials_examined_are_capped(self, monkeypatch):
        monkeypatch.setattr("avchow.quotient.MAX_SWEEP_MONOMIALS", 10)
        # Deciding needs the degrees up to the relation's, 5: 21 monomials.
        with pytest.raises(DegreeError) as info:
            QuotientRing(RingPresentation("line", XY, [q("x^5 - x^4*y")]))
        assert str(info.value) == (
            "line: the degree sweep looked at more than MAX_SWEEP_MONOMIALS = 10 monomials "
            "before it decided whether the ring is Artinian"
        )

    def test_dead_ends_count_as_examined(self):
        # Degree 10^30 has the two monomials x^(10^30) and y, and a walk
        # over its exponent vectors met 10^30 dead ends.  No such walk is
        # left: both rings are refused when built, the first because it is
        # not Artinian, the second before its sweep reaches degree 10^30.
        heavy = GeneratorSet([("x", 1), ("y", 10**30)])
        with pytest.raises(DegreeError, match="^heavy is not Artinian: no power of x, y is"):
            QuotientRing(RingPresentation("heavy", heavy, []))
        with pytest.raises(DegreeError, match="^heavy-killed: the degree sweep passed MAX_SWEEP_DEGREES"):
            QuotientRing(RingPresentation("heavy-killed", heavy, [heavy.gen("x") ** 2, heavy.gen("y")]))

    def test_standard_monomial_walk_is_capped(self, monkeypatch):
        monkeypatch.setattr("avchow.quotient.MAX_STANDARD_MONOMIALS", 5)
        X = GeneratorSet([("x", 1)])
        at_cap = QuotientRing(RingPresentation("at-cap", X, [X.gen("x") ** 5]))
        assert at_cap.hilbert_function(4) == [1, 1, 1, 1, 1]
        with pytest.raises(DegreeError) as info:
            QuotientRing(RingPresentation("over-cap", X, [X.gen("x") ** 6]))
        assert str(info.value) == "over-cap has more than MAX_STANDARD_MONOMIALS = 5 standard monomials"

    def test_degrees_swept_are_capped(self):
        # With x of weight 10^9 and x^2 a relation, the sweep passed the
        # empty degrees below 2*10^9 one at a time, for hours.
        heavy = GeneratorSet([("x", 10**9), ("y", 1)])
        with pytest.raises(DegreeError) as info:
            QuotientRing(RingPresentation("heavy-square", heavy, [heavy.gen("x") ** 2, heavy.gen("y")]))
        assert str(info.value) == (
            "heavy-square: the degree sweep passed MAX_SWEEP_DEGREES = 20000 degrees "
            "before it decided whether the ring is Artinian"
        )
        # A ring that is not Artinian, with its relation this high, is refused
        # by a cap too: here y^k is standard for every k.
        with pytest.raises(DegreeError, match="^heavy-axes has more than MAX_STANDARD_MONOMIALS = 10000 standard"):
            QuotientRing(RingPresentation("heavy-axes", heavy, [heavy.gen("x") * heavy.gen("y")]))
        light = GeneratorSet([("x", 10_000)])
        assert QuotientRing(RingPresentation("light", light, [light.gen("x") ** 2])).socle_degree == 10_000

    def test_zero_ring(self):
        ring = QuotientRing(RingPresentation("zero", XY, [XY.one()]))
        assert ring.socle_degree == -1
        assert ring.normal_form(q("x + 1")).is_zero
        assert ring.hilbert_function(2) == [0, 0, 0]


class TestHilbertAgainstOracle:
    def test_random_homogeneous_ideals(self):
        # A ring is either built, with the oracle's Hilbert function, or
        # refused as not Artinian, naming exactly the generators that have
        # no pure power among Buchberger's leading monomials.  With a pure
        # power of each generator added, the ring is built.
        gens = GeneratorSet([("a", 1), ("b", 1), ("c", 2)])
        powers = [parse_expression(t, gens) for t in ("a^3", "b^3", "c^2")]
        rng = random.Random(5)
        refused = 0
        for trial in range(10):
            relations = []
            for _ in range(rng.randint(1, 3)):
                r = random_homogeneous(rng, gens, rng.randint(1, 4))
                if not r.is_zero:
                    relations.append(r)
            if not relations:
                continue
            lacking = without_pure_powers(gens.names, buchberger(relations).leading_monomials)
            try:
                ring = QuotientRing(RingPresentation(f"rand{trial}", gens, relations))
            except DegreeError as err:
                assert lacking, str(err)
                assert str(err) == (
                    f"rand{trial} is not Artinian: no power of {', '.join(lacking)} is a leading monomial "
                    f"of its Groebner basis"
                )
                refused += 1
            else:
                assert not lacking
                staircase = ring.hilbert_function(5)
                oracle = hilbert_series_oracle(
                    gens.weights, [list(r.terms()) for r in relations], 5
                )
                assert staircase == oracle
            bounded = relations + powers
            ring = QuotientRing(RingPresentation(f"bounded{trial}", gens, bounded))
            oracle = hilbert_series_oracle(gens.weights, [list(r.terms()) for r in bounded], 8)
            assert ring.hilbert_function(8) == oracle
        assert refused


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

    def test_element_over_other_generators_rejected(self):
        functional = DegreeFunctional(make_ring(), q("y^2"), Fraction(1))
        with pytest.raises(GeneratorMismatchError, match="element belongs to a different ring"):
            functional.degree(parse_expression("x^2", XY2))

    def test_top_piece_of_rank_two_refused(self):
        # In Q[x,y]/(x^2, x*y, y^2) the socle degree 1 has the basis x, y.
        ring = QuotientRing(RingPresentation("flat", XY, [q("x^2"), q("x*y"), q("y^2")]))
        assert ring.hilbert_function(1) == [1, 2]
        with pytest.raises(DegreeError, match="^degree-1 piece of flat has rank 2, need rank one$"):
            DegreeFunctional(ring, q("x"), Fraction(1))

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

    def test_solve_class_needs_one_value_per_probe(self):
        functional = DegreeFunctional(make_ring(), q("y^2"), Fraction(1))
        for values in ([Fraction(1)], [Fraction(1), Fraction(0), Fraction(0)]):
            with pytest.raises(ValueError, match="need exactly one value per probe"):
                functional.solve_class(1, [q("x"), q("y")], values)

    def test_solve_class_probe_degrees_checked(self):
        functional = DegreeFunctional(make_ring(), q("y^2"), Fraction(1))
        with pytest.raises(DegreeError, match="probe 1 has degree 2, expected 1"):
            functional.solve_class(1, [q("x"), q("y^2")], [Fraction(1), Fraction(0)])

    def test_solve_class_inconsistent_data(self):
        ring = make_ring()
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        probes = [q("x"), q("x"), q("y")]
        with pytest.raises(PairingError):
            functional.solve_class(1, probes, [Fraction(1), Fraction(2), Fraction(0)])

    def test_solve_class_singular_pairing(self):
        # in Q[x,y]/(x^2, x*y, y^3) the class x pairs to zero with everything
        relations = [q("x^2"), q("x*y"), q("y^3")]
        ring = QuotientRing(RingPresentation("degenerate", XY, relations))
        functional = DegreeFunctional(ring, q("y^2"), Fraction(1))
        assert functional.pairing_matrix(1, [q("x"), q("y")], [q("x"), q("y")]) == [[0, 0], [0, 1]]
        with pytest.raises(PairingError):
            functional.solve_class(1, [q("x"), q("y")], [Fraction(1), Fraction(1)])
        # Consistent data leaves the coefficient of x free.
        with pytest.raises(PairingError, match="singular pairing in codimension 1"):
            functional.solve_class(1, [q("x"), q("y")], [Fraction(0), Fraction(1)])


class TestDegreeTable:
    """The degree read from a catalog ring's integer table, at its edges.

    In a2_tilde (top degree 3) lambda1^3 has a table value, lambda2*sigma1
    has degree 3 and normal form 0, lambda2 is standard of degree 2 and
    lambda2^2 lies above the socle.
    """

    def terms(self, gens, *texts):
        """The terms of the given monomials, with coefficient 2, in the given order."""
        return Polynomial._raw(gens, {parse_expression(t, gens).leading_monomial(): Fraction(2) for t in texts})

    def test_top_monomial_with_normal_form_zero_has_degree_zero(self, catalog):
        loaded = catalog.ring("a2_tilde")
        functional, gens = loaded.functional, loaded.ring.gens
        assert loaded.ring.normal_form(loaded.parse("lambda2*sigma1")).is_zero
        assert functional.degree(self.terms(gens, "lambda2*sigma1")) == 0
        assert functional.degree(self.terms(gens, "lambda2*sigma1", "lambda1^3")) == 2 * functional.degree(
            loaded.parse("lambda1^3")
        )

    @pytest.mark.parametrize(
        "texts, message",
        [
            (("lambda1^3", "lambda2"), "polynomial is not homogeneous: degrees [2, 3]"),
            (("lambda2", "lambda1^3"), "polynomial is not homogeneous: degrees [2, 3]"),
            (("lambda2*sigma1", "lambda2"), "polynomial is not homogeneous: degrees [2, 3]"),
            (("lambda2", "lambda2*sigma1"), "polynomial is not homogeneous: degrees [2, 3]"),
            (("lambda1^3", "lambda2^2"), "polynomial is not homogeneous: degrees [3, 4]"),
            (("lambda2^2", "lambda2*sigma1", "lambda1"), "polynomial is not homogeneous: degrees [1, 3, 4]"),
            (("lambda2",), "expected degree 3, got 2"),
            (("lambda2", "sigma1^2"), "expected degree 3, got 2"),
            (("lambda2^2",), "expected degree 3, got 4"),
            (("1",), "expected degree 3, got 0"),
        ],
    )
    def test_stray_degrees_raise_the_same_message(self, catalog, texts, message):
        loaded = catalog.ring("a2_tilde")
        with pytest.raises(DegreeError) as info:
            loaded.functional.degree(self.terms(loaded.ring.gens, *texts))
        assert str(info.value) == message


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

    # The pairs below fail only the backward relations, or only one round trip.

    def test_backward_relations_checked(self):
        # x -> u sends x^3 into (u^2), but u -> x sends u^2 to x^2, outside (x^3).
        x = GeneratorSet([("x", 1)])
        u = GeneratorSet([("u", 1)])
        a = QuotientRing(RingPresentation("a", x, [parse_expression("x^3", x)]))
        b = QuotientRing(RingPresentation("b", u, [parse_expression("u^2", u)]))
        forward = {"x": parse_expression("u", u)}
        backward = {"u": parse_expression("x", x)}
        assert b.contains(a.presentation.relations[0].substitute(forward))
        assert not presentations_equivalent(a, b, forward, backward)

    def test_round_trips_checked(self):
        # u -> x, v -> 0 and x -> u send relations into the ideals, and
        # x -> u -> x holds, but v -> 0 -> 0 is not v.  As the first ring
        # Q[u,v]/(u^2, uv, v^2) fails the first round trip, as the second the second.
        uv = GeneratorSet([("u", 1), ("v", 1)])
        x = GeneratorSet([("x", 1)])
        a = QuotientRing(RingPresentation("a", uv, [parse_expression(t, uv) for t in ("u^2", "u*v", "v^2")]))
        b = QuotientRing(RingPresentation("b", x, [parse_expression("x^2", x)]))
        forward = {"u": parse_expression("x", x), "v": x.zero()}
        backward = {"x": parse_expression("u", uv)}
        assert b.classes_equal(backward["x"].substitute(forward), b.gen("x"))
        assert not presentations_equivalent(a, b, forward, backward)
        assert not presentations_equivalent(b, a, backward, forward)

    def test_missing_images_raise(self):
        x = GeneratorSet([("x", 1)])
        u = GeneratorSet([("u", 1)])
        a = QuotientRing(RingPresentation("a", x, [parse_expression("x^2", x)]))
        b = QuotientRing(RingPresentation("b", u, [parse_expression("u^2", u)]))
        forward = {"x": parse_expression("u", u)}
        backward = {"u": parse_expression("x", x)}
        with pytest.raises(GeneratorMismatchError, match="forward map misses generator 'x'"):
            presentations_equivalent(a, b, {}, backward)
        with pytest.raises(GeneratorMismatchError, match="backward map misses generator 'u'"):
            presentations_equivalent(a, b, forward, {})
