"""Buchberger completion and confluent reduction."""

import random

import pytest

from avchow import GeneratorSet, buchberger, ideal_membership, parse_expression
from avchow.groebner import reduce, s_polynomial

from helpers import random_homogeneous, random_polynomial

XYZ = GeneratorSet([("x", 1), ("y", 1), ("z", 1)])


def p(text, gens=XYZ):
    return parse_expression(text, gens)


def basis_of(*texts, gens=XYZ):
    return buchberger([p(t, gens) for t in texts])


class TestReduce:
    def test_reduces_leading_terms(self):
        basis = basis_of("x^2 - y^2")
        assert basis.reduce(p("x^2")) == p("y^2")
        assert basis.reduce(p("x^3*y")) == p("x*y^3")

    def test_normal_form_is_fixed_point(self):
        basis = basis_of("x^2 - y*z", "y^2 - x*z")
        q = p("x^3 + y^3 + z^3")
        nf = basis.reduce(q)
        assert basis.reduce(nf) == nf

    def test_difference_lies_in_ideal(self):
        basis = basis_of("x^2 - y*z", "y^2 - x*z")
        q = p("x^4 + 2*x*y - 7")
        assert basis.contains(q - basis.reduce(q))

    def test_randomized_path_gives_same_normal_form(self):
        basis = basis_of("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
        rng = random.Random(11)
        for _ in range(25):
            q = random_polynomial(rng, XYZ, max_degree=5, max_terms=5)
            deterministic = basis.reduce(q)
            for seed in range(4):
                assert basis.reduce(q, rng=random.Random(seed)) == deterministic


class TestSPolynomial:
    def test_cancels_leading_terms(self):
        f = p("x^2 - y^2")
        g = p("x*y - z^2")
        s = s_polynomial(f, g)
        # lcm(x^2, x*y) = x^2*y; the s-polynomial drops that monomial
        assert s.coefficient((2, 1, 0)) == 0
        assert s == p("x*z^2 - y^3")


class TestBuchberger:
    def test_completes_non_confluent_pair(self):
        basis = basis_of("x^2 - y^2", "x*y - z^2")
        # reduction must now be confluent: x^2*y reduces the same both ways
        assert basis.reduce(p("x^2*y")) == basis.reduce(p("y^3"))
        assert basis.contains(p("x*z^2 - y^3"))

    def test_output_is_monic_and_inter_reduced(self):
        basis = basis_of("2*x^2 - 2*y^2", "3*x*y - 3*z^2")
        for element in basis.elements:
            _, coeff = element.leading_term()
            assert coeff == 1
            for other in basis.elements:
                if other is element:
                    continue
                lead = other.leading_monomial()
                for mono, _ in element.terms():
                    assert not all(a >= b for a, b in zip(mono, lead))

    def test_deterministic(self):
        texts = ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
        first = basis_of(*texts)
        second = basis_of(*reversed(texts))
        assert [str(e) for e in first.elements] == [str(e) for e in second.elements]

    def test_homogeneous_in_homogeneous_out(self):
        basis = basis_of("x^2 - y*z", "x*y - z^2")
        assert all(e.is_homogeneous for e in basis.elements)

    def test_generators_reduce_to_zero(self):
        gens = GeneratorSet([("a", 1), ("b", 2), ("c", 3)])
        inputs = ["a^2 - b", "a*b - c", "b^2 - a*c"]
        basis = basis_of(*inputs, gens=gens)
        for text in inputs:
            assert basis.reduce(p(text, gens)).is_zero

    def test_all_s_polynomials_reduce_to_zero(self):
        basis = basis_of("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
        elements = basis.elements
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                s = s_polynomial(elements[i], elements[j])
                assert basis.reduce(s).is_zero

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_zero_ideal(self):
        basis = buchberger([XYZ.zero()])
        assert len(basis) == 0
        q = p("x*y - 3")
        assert basis.reduce(q) == q

    def test_inhomogeneous_input(self):
        basis = basis_of("x", "y", "z - 1")
        assert basis.reduce(p("z^5 + x")) == p("1")
        assert not basis.contains(p("1"))


class TestIdealMembership:
    def test_membership(self):
        basis = basis_of("x^2 - y^2", "x*y - z^2")
        assert ideal_membership(p("x^3 - x*y^2"), basis)
        assert ideal_membership(p("x*z^2 - y^3"), basis)
        assert not ideal_membership(p("x"), basis)

    def test_random_combinations_are_members(self):
        gens = GeneratorSet([("a", 1), ("b", 1)])
        generators = [p("a^2 - b^2", gens), p("a*b^3", gens)]
        basis = buchberger(generators)
        rng = random.Random(23)
        for _ in range(20):
            combo = gens.zero()
            for g in generators:
                combo = combo + random_homogeneous(rng, gens, rng.randint(0, 2)) * g
            assert ideal_membership(combo, basis)
