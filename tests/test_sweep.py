"""The degree sweep that builds every ring: bases, normal forms, stopping rule."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avchow import DegreeError, GeneratorSet, Polynomial, QuotientRing, RingPresentation, parse_expression
from avchow.catalog import RING_NAMES, Catalog
from avchow.groebner import buchberger, reduce

COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def homogeneous(draw, gens, degree, lead=None):
    """A random homogeneous polynomial of the degree, led by ``lead`` when given."""
    monomials = gens.monomials_of_degree(degree)
    if lead is not None:
        monomials = [m for m in monomials if m < lead]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True)) if monomials else []
    terms = {m: draw(COEFFICIENTS) for m in chosen}
    if lead is not None:
        terms[lead] = Fraction(1)
    return Polynomial(gens, terms)


@st.composite
def artinian_presentations(draw):
    """2-4 generators of weight 1-3, a pure power of each, and random homogeneous relations.

    Each pure power leads its relation, with random smaller terms of its
    degree, so the ring is Artinian whatever else is drawn.
    """
    weights = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    gens = GeneratorSet((f"x{i}", w) for i, w in enumerate(weights))
    relations = []
    for i, weight in enumerate(weights):
        exponents = [0] * len(gens)
        exponents[i] = draw(st.integers(1, 4))
        relations.append(homogeneous(draw, gens, exponents[i] * weight, lead=tuple(exponents)))
    for _ in range(draw(st.integers(0, 4))):
        relations.append(homogeneous(draw, gens, draw(st.integers(1, 7))))
    return RingPresentation("drawn", gens, relations)


@settings(max_examples=60, deadline=None)
@given(artinian_presentations())
def test_sweep_matches_buchberger(presentation):
    ring = QuotientRing(presentation)
    reference = buchberger(presentation.relations)
    assert ring.artinian
    assert list(ring.groebner) == list(reference)
    gens = ring.gens
    for degree in range(ring.socle_degree + 1):
        for mono in gens.monomials_of_degree(degree):
            monomial = gens.monomial(mono)
            assert ring.normal_form(monomial) == reduce(monomial, list(reference)), mono


@st.composite
def presentations(draw):
    """1-4 generators of weight 1-3 and 0-4 random homogeneous relations, Artinian or not."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    gens = GeneratorSet((f"x{i}", w) for i, w in enumerate(weights))
    relations = [homogeneous(draw, gens, draw(st.integers(0, 6))) for _ in range(draw(st.integers(0, 4)))]
    return RingPresentation("drawn", gens, relations)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_sweep_finishes_any_ideal(presentation):
    # A ring that is not Artinian stops once the sweep is past every S-pair.
    ring = QuotientRing(presentation)
    if presentation.relations:
        reference = buchberger(presentation.relations)
        assert list(ring.groebner) == list(reference)
        for degree in range(6):
            expected = tuple(m for m in ring.gens.monomials_of_degree(degree) if reference.is_standard(m))
            assert ring.standard_monomials(degree) == expected
    else:
        assert list(ring.groebner) == []


def test_first_full_degree_is_not_enough():
    # Degree 3 (x^3, x*y) is full, and no relation lies above it, but y^2
    # (degree 4) is a basis element: y is standard, so no divisor of y^2
    # lies in degree 3.  A sweep stopping there would miss it.
    gens = GeneratorSet([("x", 1), ("y", 2)])
    relations = [parse_expression(t, gens) for t in ("x^2 - y", "x*y")]
    ring = QuotientRing(RingPresentation("late", gens, relations))
    assert ring.hilbert_function(4) == [1, 1, 1, 0, 0]
    assert [str(b) for b in ring.groebner] == ["y^2", "x*y", "x^2 - y"]
    assert list(ring.groebner) == list(buchberger(relations))
    assert ring.groebner.stats.degrees_swept == 5
    assert ring.normal_form(parse_expression("y^2 + x^2", gens)) == parse_expression("y", gens)


def test_every_unjoined_group_gives_a_candidate():
    # Keeping one product x_i * row(m/x_i) per monomial m, instead of one
    # per group, gives a different basis here.
    gens = GeneratorSet([("x0", 1), ("x1", 3), ("x2", 1)])
    relations = [parse_expression(t, gens) for t in ("x0^2", "x1^2", "x2^3", "x0*x2^2 + x1")]
    ring = QuotientRing(RingPresentation("groups", gens, relations))
    assert list(ring.groebner) == list(buchberger(relations))


def test_sweep_counts():
    X = GeneratorSet([("x", 1)])
    ring = QuotientRing(RingPresentation("cubic", X, [X.gen("x") ** 3]))
    stats = ring.groebner.stats
    # Degrees 0..3 are swept; the one candidate row is the relation.
    assert (stats.degrees_swept, stats.candidate_rows, stats.zero_rows, stats.pivots) == (4, 1, 0, 1)


def test_catalog_loads_without_buchberger(monkeypatch):
    calls = []

    def counting(relations):
        calls.append(relations)
        return buchberger(relations)

    monkeypatch.setattr("avchow.quotient.buchberger", counting)
    catalog = Catalog()
    for name in RING_NAMES:
        assert catalog.ring(name).ring.artinian
    catalog.fibered_surface()
    catalog.torelli()
    assert calls == []


def test_non_artinian_ring_stops_past_its_s_pairs(monkeypatch):
    monkeypatch.setattr("avchow.quotient.buchberger", None)
    XY = GeneratorSet([("x", 1), ("y", 1)])
    ring = QuotientRing(RingPresentation("axes", XY, [parse_expression("x*y", XY)]))
    assert not ring.artinian
    assert [str(b) for b in ring.groebner] == ["x*y"]
    assert ring.groebner.stats.degrees_swept == 3


def test_sweep_cap_falls_back_to_buchberger(monkeypatch):
    monkeypatch.setattr("avchow.quotient.MAX_SWEEP_MONOMIALS", 20)
    XY = GeneratorSet([("x", 1), ("y", 1)])
    # Not Artinian, and its relation lies in degree 5: degrees 0..5 have 21 monomials.
    ring = QuotientRing(RingPresentation("line", XY, [parse_expression("x^5 - x^4*y", XY)]))
    assert not ring.artinian
    assert list(ring.groebner) == list(buchberger(ring.presentation.relations))
    assert ring.hilbert_function(6) == [1, 2, 3, 4, 5, 5, 5]
    # Artinian, but 25 standard monomials take more than 20 monomials to see.
    with pytest.raises(DegreeError, match="MAX_SWEEP_MONOMIALS = 20"):
        QuotientRing(RingPresentation("box", XY, [parse_expression(t, XY) for t in ("x^5", "y^5")]))
