"""Sparse weighted-graded polynomial arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avchow import (
    DegreeError,
    GeneratorMismatchError,
    GeneratorSet,
    Polynomial,
    RingSpecError,
    SizeError,
    SubstitutionError,
    format_rational,
    load_ring_spec,
    parse_expression,
    parse_rational,
)
from avchow.catalog import RING_NAMES
from avchow.poly import expand_chern_identity

from helpers import random_polynomial
from oracles import monomials_of_degree, render_polynomial

XY = GeneratorSet([("x", 1), ("y", 2)])


def p(text):
    return parse_expression(text, XY)


class TestRationals:
    def test_parse_integer(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3") == -3

    def test_parse_fraction(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-4103/144") == Fraction(-4103, 144)

    def test_parse_whitespace(self):
        assert parse_rational(" 1/2 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "a", "1/0", "1.5", "1/2/3", "½", "٣/٤", "１２"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-8)) == "-8"
        assert format_rational(5) == "5"


class TestGeneratorSet:
    def test_basic(self):
        assert len(XY) == 2
        assert XY.names == ("x", "y")
        assert XY.weights == (1, 2)
        assert XY.index("y") == 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            XY.index("z")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet([("x", 1), ("x", 2)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet([("x", 0)])

    def test_equality(self):
        assert XY == GeneratorSet([("x", 1), ("y", 2)])
        assert XY != GeneratorSet([("x", 1), ("y", 1)])
        assert XY != ("x", "y")

    def test_monomial_needs_one_exponent_per_generator(self):
        assert XY.monomial((1, 2), Fraction(1, 2)) == p("1/2*x*y^2")
        with pytest.raises(ValueError, match="wrong length"):
            XY.monomial((1,))

    # The tests draw and list monomials with the enumerator in oracles.py,
    # not with the package; these two check it.

    def test_monomials_of_degree(self):
        # weight(x) = 1, weight(y) = 2: degree 4 is x^4, x^2 y, y^2
        monos = monomials_of_degree(XY.weights, 4)
        assert sorted(monos) == [(0, 2), (2, 1), (4, 0)]
        assert monomials_of_degree(XY.weights, 0) == [(0, 0)]

    def test_monomials_of_degree_match_brute_force(self):
        for weights in [(1,), (2,), (1, 1), (2, 1), (3, 2, 1), (2, 2, 3), (1, 2, 1, 3)]:
            gens = GeneratorSet((f"g{i}", w) for i, w in enumerate(weights))
            for degree in range(-1, 11):
                every = itertools.product(range(11), repeat=len(weights))
                expected = [m for m in every if gens.weighted_degree(m) == degree]
                expected.sort(key=gens.sort_key, reverse=True)
                assert monomials_of_degree(weights, degree) == expected, (weights, degree)

    def test_weighted_degree_of_monomial(self):
        assert XY.weighted_degree((3, 2)) == 7

    def test_sort_key_orders_by_degree_then_lex(self):
        # y (degree 2) beats x (degree 1); x^2 beats y within degree 2
        assert XY.sort_key((0, 1)) > XY.sort_key((1, 0))
        assert XY.sort_key((2, 0)) > XY.sort_key((0, 1))


class TestArithmetic:
    def test_square_of_sum(self):
        assert (p("x") + p("y")) ** 2 == p("x^2 + 2*x*y + y^2")

    def test_subtraction_cancels(self):
        q = p("3*x^2 - 1/2*y")
        assert (q - q).is_zero
        assert not q.is_zero

    def test_scalar_coercion(self):
        assert p("x") * 2 + 1 == p("2*x + 1")
        assert 1 - p("x") == p("1 - x")
        assert p("x") / 2 == p("1/2*x")
        assert p("x") / Fraction(2, 3) == p("3/2*x")

    @pytest.mark.parametrize(
        "operation",
        [
            lambda a: a + 1.5,
            lambda a: 1.5 + a,
            lambda a: a - 1.5,
            lambda a: 1.5 - a,
            lambda a: a * "x",
            lambda a: "x" * a,
            lambda a: a / 1.5,
            lambda a: a / a,
        ],
    )
    def test_operands_other_than_rationals_raise_type_error(self, operation):
        # Coefficients stay exact: a float is refused, not converted.
        with pytest.raises(TypeError):
            operation(p("x"))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            p("x") / 0

    def test_equality_with_scalars(self):
        assert p("3/4") == Fraction(3, 4)
        assert p("0") == 0
        assert p("x") != 1
        assert p("x") != "x"

    def test_pow(self):
        assert p("x + 1") ** 0 == XY.one()
        assert p("x") ** 3 == p("x^3")
        with pytest.raises(ValueError):
            p("x") ** -1

    def test_products_are_guarded_like_powers(self):
        # 317 * 317 pairs pass MAX_PRODUCT_PAIRS = 100,000; 316 * 316 do not.
        x = GeneratorSet([("x", 1)])
        for n, refused in ((316, False), (317, True)):
            q = Polynomial(x, {(e,): 1 for e in range(n)})
            if refused:
                with pytest.raises(SizeError, match=f"^a product of {n} by {n} terms would form more than MAX_PRODUCT_PAIRS"):
                    q * q
            else:
                assert len((q * q).terms()) == 2 * n - 1
        big = Polynomial(x, {(1,): 2**60_000})
        with pytest.raises(SizeError, match="MAX_COEFFICIENT_BITS"):
            big * big

    def test_products_multiply_integer_numerators(self, monkeypatch):
        # A spec relation is expanded in full before its homogeneity is
        # checked.  Each product scales its factors to integer numerators
        # once, so refusing this one multiplies no pair of Fractions; a
        # Fraction product per pair of terms would make about 70,000.
        products = 0
        fraction_mul, fraction_rmul = Fraction.__mul__, Fraction.__rmul__

        def counted(multiply):
            def count(a, b):
                nonlocal products
                products += 1
                return multiply(a, b)

            return count

        monkeypatch.setattr(Fraction, "__mul__", counted(fraction_mul))
        monkeypatch.setattr(Fraction, "__rmul__", counted(fraction_rmul))
        spec = {"name": "hostile", "generators": [{"name": "y", "degree": 2}], "relations": ["((y + 1/2))^422"]}
        with pytest.raises(RingSpecError, match=r"'\(\(y \+ 1/2\)\)\^422' is not homogeneous"):
            load_ring_spec(spec)
        assert products < 10

    def test_mixed_generator_sets_rejected(self):
        other = GeneratorSet([("x", 1)])
        with pytest.raises(GeneratorMismatchError):
            p("x") + other.gen("x")

    def test_zero_coefficients_dropped(self):
        q = Polynomial(XY, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert q.terms() == [((0, 1), Fraction(2))]

    def test_coefficient_lookup(self):
        q = p("5*x^2*y - 1/3")
        assert q.coefficient((2, 1)) == 5
        assert q.coefficient((1, 0)) == 0
        assert q.coefficient((0, 0)) == Fraction(-1, 3)

    def test_exponent_vectors_are_checked(self):
        for mono in ((1,), (1, -1), (0, 0, 1)):
            with pytest.raises(ValueError, match="bad exponent vector"):
                Polynomial(XY, {mono: Fraction(1)})


class TestGrading:
    def test_homogeneous(self):
        assert p("x^2 + 3*y").is_homogeneous
        assert p("x^2 + 3*y").weighted_degree() == 2
        assert not p("x + y").is_homogeneous

    def test_mixed_degree_raises(self):
        with pytest.raises(DegreeError):
            p("x + y").weighted_degree()

    def test_zero_polynomial_grading(self):
        assert XY.zero().is_homogeneous
        assert XY.zero().weighted_degree() is None

    def test_homogeneous_parts(self):
        parts = p("x^3 + x*y + 2*x + 7").homogeneous_parts()
        assert sorted(parts) == [0, 1, 3]
        assert parts[3] == p("x^3 + x*y")
        assert parts[1] == p("2*x")

    def test_leading_term_wdeglex(self):
        # The leading monomial is the largest under sort_key: weighted
        # degree first; within degree 2, x^2 precedes y (earlier generator
        # dominates).
        def leading(text):
            return max(p(text)._terms, key=XY.sort_key)

        assert leading("y + x^2") == (2, 0)
        assert leading("x + y^3") == (0, 3)
        assert leading("2*x^2 - 3*y + x") == (2, 0)


class TestSubstitution:
    def test_homomorphism(self):
        image = p("x + 1") ** 2 - 1
        computed = p("x^2 + 2*x").substitute({"x": p("x"), "y": p("y")})
        assert computed == p("x^2 + 2*x")
        assert p("x^2 - y").substitute({"x": p("x + 1"), "y": p("2*x + 1")}) == image - p("2*x")

    def test_missing_image(self):
        with pytest.raises(SubstitutionError):
            p("x*y").substitute({"x": p("x")})

    def test_images_must_share_generators(self):
        other = GeneratorSet([("z", 1)])
        with pytest.raises(GeneratorMismatchError):
            p("x*y").substitute({"x": other.gen("z"), "y": p("y")})

    def test_no_images(self):
        # With no image there is no generator set for the result, even of a constant.
        for q in (p("x"), p("2"), XY.zero()):
            with pytest.raises(SubstitutionError, match="no images given"):
                q.substitute({})


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1/3",
            "x",
            "-1/3*x*y + 2*x^2",
            "x^4 + x^2*y + y^2",
            "-x + 5",
        ],
    )
    def test_str_is_canonical(self, text):
        assert str(p(text)) == text

    def test_str_reparses(self):
        rng = random.Random(7)
        for _ in range(50):
            q = random_polynomial(rng, XY)
            assert parse_expression(str(q), XY) == q


# Coefficients a rendering has to get right: signs, unit magnitudes with and
# without a monomial, integers and proper fractions.
RENDER_COEFFICIENTS = [Fraction(c) for c in ("1", "-1", "2", "-7", "1/2", "-1/3", "22/7", "-4103/144")]


def seeded_polynomials(rng, gens, socle):
    """Zero, constants, single terms and sums over ``gens``, up to two degrees past ``socle``."""
    monomials = [m for d in range(socle + 3) for m in monomials_of_degree(gens.weights, d)]
    found = [gens.zero()] + [gens.constant(c) for c in RENDER_COEFFICIENTS]
    for _ in range(40):
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 6)))
        found.append(Polynomial(gens, {m: rng.choice(RENDER_COEFFICIENTS) for m in chosen}))
    return found


@pytest.mark.parametrize("ring_name", RING_NAMES)
def test_str_matches_reference_renderer(catalog, ring_name):
    ring = catalog.ring(ring_name).ring
    rng = random.Random(f"render {ring_name}")
    for poly in seeded_polynomials(rng, ring.gens, ring.socle_degree):
        assert str(poly) == render_polynomial(poly)
        assert str(ring.normal_form(poly)) == render_polynomial(ring.normal_form(poly))


@pytest.mark.parametrize("coeff", [Fraction(10**4300), Fraction(-(10**4300), 3), Fraction(1, 10**4300)])
def test_unprintable_coefficient_raises_size_error_like_reference(coeff):
    poly = p("x*y") + XY.gen("x") * coeff
    for render in (str, render_polynomial):
        with pytest.raises(SizeError, match="more digits than Python converts"):
            render(poly)


def test_unprintable_exponent_raises_size_error():
    # (y^e)^e with e = 10^4299 has an exponent of 8,599 digits, past the
    # 4,300 that Python converts to text.
    exponent = "1" + "0" * 4299
    poly = parse_expression(f"x + (y^{exponent})^{exponent}", XY)
    assert poly.terms()[0][0] == (0, 10**8598)
    with pytest.raises(SizeError, match="more digits than Python converts"):
        str(poly)


def lambda_generators(genus):
    """The generators lambda1, ..., lambda_g with weights 1, ..., g."""
    return GeneratorSet((f"lambda{i}", i) for i in range(1, genus + 1))


class TestChernIdentity:
    def test_genus_two_expansion(self):
        gens = lambda_generators(2)
        relations = expand_chern_identity(2, gens)
        degrees = sorted(r.weighted_degree() for r in relations)
        assert degrees == [2, 4]
        by_degree = {r.weighted_degree(): r for r in relations}
        assert by_degree[2] == parse_expression("2*lambda2 - lambda1^2", gens)
        assert by_degree[4] == parse_expression("lambda2^2", gens)

    def test_genus_three_produces_odd_degrees_too(self):
        gens = lambda_generators(3)
        relations = expand_chern_identity(3, gens)
        degrees = sorted(r.weighted_degree() for r in relations)
        assert degrees == [2, 4, 6]

    def test_relations_vanish_under_alternating_substitution(self):
        # c(E) * c(E dual) = 1 is the defining property
        gens = lambda_generators(3)
        total = gens.one() + gens.gen("lambda1") + gens.gen("lambda2") + gens.gen("lambda3")
        dual = gens.one() - gens.gen("lambda1") + gens.gen("lambda2") - gens.gen("lambda3")
        product = total * dual - gens.one()
        parts = product.homogeneous_parts()
        for relation in expand_chern_identity(3, gens):
            assert parts[relation.weighted_degree()] == relation

    def test_lambda_weights_are_checked(self):
        gens = GeneratorSet([("lambda1", 1), ("lambda2", 1)])
        with pytest.raises(GeneratorMismatchError, match="lambda2 must have weight 2"):
            expand_chern_identity(2, gens)


coefficients = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@st.composite
def polynomials(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 3)),
            coefficients,
            max_size=5,
        )
    )
    return Polynomial(XY, terms)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + XY.zero() == a
    assert a * XY.one() == a
    assert a - a == XY.zero()


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_render_round_trip(a):
    assert parse_expression(str(a), XY) == a
