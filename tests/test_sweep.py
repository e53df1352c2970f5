"""The degree sweep that builds every ring: bases, normal forms, stopping rule."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avchow
from avchow import DegreeError, GeneratorSet, Polynomial, QuotientRing, RingPresentation, parse_expression
from avchow import groebner
from avchow.catalog import RING_NAMES, Catalog
from avchow.groebner import _leading_term, buchberger, monomial_divides, reduce
from avchow.poly import expand_chern_identity

from oracles import monomials_of_degree, without_pure_powers

COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def homogeneous(draw, gens, degree, lead=None):
    """A random homogeneous polynomial of the degree, led by ``lead`` when given."""
    monomials = monomials_of_degree(gens.weights, degree)
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
    assert ring.groebner.elements == reference.elements
    gens = ring.gens
    for degree in range(ring.socle_degree + 1):
        for mono in monomials_of_degree(gens.weights, degree):
            monomial = gens.monomial(mono)
            assert ring.normal_form(monomial) == reduce(monomial, reference.elements), mono


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
    # Either the ring is built with Buchberger's basis, or it is refused as
    # not Artinian, naming the generators whose powers Buchberger's leading
    # monomials miss.  A ring that is not Artinian is refused once the sweep
    # is past every S-pair.
    gens = presentation.gens
    leading = buchberger(presentation.relations).leading_monomials if presentation.relations else ()
    lacking = without_pure_powers(gens.names, leading)
    if lacking:
        with pytest.raises(DegreeError) as info:
            QuotientRing(presentation)
        assert str(info.value) == (
            f"drawn is not Artinian: no power of {', '.join(lacking)} is a leading monomial of its Groebner basis"
        )
        return
    ring = QuotientRing(presentation)
    reference = buchberger(presentation.relations)
    assert ring.groebner.elements == reference.elements
    for degree in range(ring.socle_degree + max(gens.weights) + 1):
        expected = tuple(
            m
            for m in monomials_of_degree(gens.weights, degree)
            if not any(monomial_divides(lead, m) for lead in reference.leading_monomials)
        )
        assert ring.standard_monomials(degree) == expected


def test_first_full_degree_is_not_enough():
    # Degree 3 (x^3, x*y) is full, and no relation lies above it, but y^2
    # (degree 4) is a basis element: y is standard, so no divisor of y^2
    # lies in degree 3.  A sweep stopping there would miss it.
    gens = GeneratorSet([("x", 1), ("y", 2)])
    relations = [parse_expression(t, gens) for t in ("x^2 - y", "x*y")]
    ring = QuotientRing(RingPresentation("late", gens, relations))
    assert ring.hilbert_function(4) == [1, 1, 1, 0, 0]
    assert [str(b) for b in ring.groebner.elements] == ["y^2", "x*y", "x^2 - y"]
    assert ring.groebner.elements == buchberger(relations).elements
    assert ring.groebner.stats.degrees_swept == 5
    assert ring.normal_form(parse_expression("y^2 + x^2", gens)) == parse_expression("y", gens)


def test_every_unjoined_group_gives_a_candidate():
    # Keeping one product x_i * row(m/x_i) per monomial m, instead of one
    # per group, gives a different basis here.
    gens = GeneratorSet([("x0", 1), ("x1", 3), ("x2", 1)])
    relations = [parse_expression(t, gens) for t in ("x0^2", "x1^2", "x2^3", "x0*x2^2 + x1")]
    ring = QuotientRing(RingPresentation("groups", gens, relations))
    assert ring.groebner.elements == buchberger(relations).elements


def test_sweep_counts():
    X = GeneratorSet([("x", 1)])
    ring = QuotientRing(RingPresentation("cubic", X, [X.gen("x") ** 3]))
    stats = ring.groebner.stats
    # Degrees 0..3 are swept; the one candidate row is the relation.
    assert (stats.degrees_swept, stats.candidate_rows, stats.zero_rows, stats.pivots) == (4, 1, 0, 1)


def compact_lambda_ring(genus):
    """Q[lambda1..lambda_g] modulo the Chern identity of that genus."""
    gens = GeneratorSet((f"lambda{i}", i) for i in range(1, genus + 1))
    return QuotientRing(RingPresentation(f"lambda_{genus}", gens, expand_chern_identity(genus, gens)))


@pytest.mark.parametrize(
    "name, counts, table",
    [("a3_tilde", (10, 199, 30, 184), 60), ("x2_tilde", (8, 150, 16, 161), 55), ("lambda_5", (21, 764, 46, 908), 383)],
    ids=["a3_tilde", "x2_tilde", "lambda_5"],
)
def test_sweep_work_is_pinned(catalog, name, counts, table):
    # The sweep's counters and the size of its normal-form table, so a
    # change to the elimination that does other work shows here.
    ring = compact_lambda_ring(5) if name == "lambda_5" else catalog.ring(name).ring
    stats = ring.groebner.stats
    assert (stats.degrees_swept, stats.candidate_rows, stats.zero_rows, stats.pivots) == counts
    assert len(ring._nf_cache) == table


def test_catalog_loads_without_buchberger(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(groebner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(groebner, name, wrapper)

    for name in ("buchberger", "reduce"):
        counting(name)
    catalog = Catalog()
    for name in RING_NAMES:
        assert catalog.ring(name).ring.socle_degree >= 0
    catalog.fibered_surface()
    catalog.torelli()
    assert calls == []


@pytest.mark.parametrize("name", RING_NAMES)
def test_leading_monomials_follow_the_elements(catalog, name):
    # The sweep records each element's leading monomial as it finds it; the
    # record must keep them in step with the sorted elements, and agree
    # with Buchberger's.
    ring = catalog.ring(name).ring
    leading = ring.groebner.leading_monomials
    assert leading == tuple(_leading_term(element)[0] for element in ring.groebner.elements)
    assert leading == buchberger(ring.presentation.relations).leading_monomials


def test_cli_import_leaves_out_the_reference():
    # Buchberger and reduction are the tests' reference; the package never loads them.
    source = str(Path(avchow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))
    code = "import sys, avchow.cli; print('avchow.groebner' in sys.modules, 'avchow.quotient' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False True\n"


def test_non_artinian_ring_stops_past_its_s_pairs():
    # Past degree 2, the degree of the one lcm, the basis {x*y} is complete
    # and neither x nor y has a pure power in it.
    XY = GeneratorSet([("x", 1), ("y", 1)])
    with pytest.raises(DegreeError) as info:
        QuotientRing(RingPresentation("axes", XY, [parse_expression("x*y", XY)]))
    assert str(info.value) == "axes is not Artinian: no power of x, y is a leading monomial of its Groebner basis"


def test_sweep_cap_refuses_the_presentation(monkeypatch):
    monkeypatch.setattr("avchow.quotient.MAX_SWEEP_MONOMIALS", 20)
    XY = GeneratorSet([("x", 1), ("y", 1)])
    # Not Artinian, and its relation lies in degree 5: degrees 0..5 have 21 monomials.
    with pytest.raises(DegreeError) as info:
        QuotientRing(RingPresentation("line", XY, [parse_expression("x^5 - x^4*y", XY)]))
    assert str(info.value) == (
        "line: the degree sweep looked at more than MAX_SWEEP_MONOMIALS = 20 monomials "
        "before it decided whether the ring is Artinian"
    )
    # Artinian, and its sweep looks at 35 monomials: a cap of 35 builds it,
    # and a cap of 34 refuses it.
    box = RingPresentation("box", XY, [parse_expression(t, XY) for t in ("x^5", "y^5")])
    monkeypatch.setattr("avchow.quotient.MAX_SWEEP_MONOMIALS", 35)
    assert QuotientRing(box).hilbert_function(9) == [1, 2, 3, 4, 5, 4, 3, 2, 1, 0]
    monkeypatch.setattr("avchow.quotient.MAX_SWEEP_MONOMIALS", 34)
    with pytest.raises(DegreeError, match="^box: the degree sweep looked at more than MAX_SWEEP_MONOMIALS = 34 "):
        QuotientRing(box)
