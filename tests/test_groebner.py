"""Buchberger completion and confluent reduction."""

import random
from pathlib import Path

import pytest

from avchow import RING_NAMES, GeneratorMismatchError, GeneratorSet, parse_expression
from avchow.groebner import BuchbergerStats, buchberger, reduce, s_polynomial

from helpers import random_homogeneous, random_polynomial

XYZ = GeneratorSet([("x", 1), ("y", 1), ("z", 1)])

# Every catalog ring's reduced basis, captured before the pair heap and the
# heap reducer replaced a rescan of all pairs and of all terms per step.
GROEBNER_GOLDEN = Path(__file__).with_name("groebner_golden.txt")


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


    def test_irreducible_largest_term_above_reducible_ones(self):
        basis = [p("y^2 - z^2")]
        # x^3 is the largest term and no leading monomial divides it.
        assert reduce(p("x^3 + 2*y^2 + x*y^2"), basis) == p("x^3 + x*z^2 + 2*z^2")
        assert reduce(p("x^3 + y^3"), basis) == p("x^3 + y*z^2")

    def test_inhomogeneous_input_against_plain_list(self):
        assert reduce(p("z^5 + x"), [p("x"), p("y"), p("z - 1")]) == p("1")

    def test_zero_polynomial_in_basis_is_skipped(self):
        q = p("x^2*y + y^3")
        assert reduce(q, [XYZ.zero(), p("x^2 - y*z"), XYZ.zero()]) == p("y^2*z + y^3")
        assert reduce(q, [XYZ.zero()]) == q
        assert reduce(q, [XYZ.zero()], rng=random.Random(1)) == q

    def test_basis_over_other_generators_rejected(self):
        other = GeneratorSet([("x", 1), ("y", 2)])
        q = p("x^2 + y")
        with pytest.raises(GeneratorMismatchError):
            reduce(q, [p("x^2 - y", other)])
        with pytest.raises(GeneratorMismatchError):
            reduce(q, [p("x^2 - y", other)], rng=random.Random(2))
        with pytest.raises(GeneratorMismatchError):
            basis_of("x^2 - y", gens=other).reduce(q)

    @pytest.mark.parametrize("name", ["a3_tilde", "x2_tilde"])
    def test_deterministic_and_random_paths_agree_on_catalog_rings(self, catalog, name):
        basis = catalog.ring(name).ring.groebner
        gens = basis.gens
        rng = random.Random(name)
        for _ in range(30):
            q = random_polynomial(rng, gens, max_degree=7, max_terms=6)
            deterministic = basis.reduce(q)
            assert reduce(q, basis.elements) == deterministic
            assert basis.reduce(q, rng=random.Random(rng.random())) == deterministic


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

    def test_generators_over_other_generators_rejected(self):
        other = GeneratorSet([("x", 1), ("y", 1)])
        with pytest.raises(GeneratorMismatchError, match="ideal generators over different generator sets"):
            buchberger([p("x"), p("y", other)])

    def test_zero_ideal(self):
        basis = buchberger([XYZ.zero()])
        assert len(basis) == 0
        q = p("x*y - 3")
        assert basis.reduce(q) == q

    def test_inhomogeneous_input(self):
        basis = basis_of("x", "y", "z - 1")
        assert basis.reduce(p("z^5 + x")) == p("1")
        assert not basis.contains(p("1"))


    def test_catalog_bases_match_golden(self, catalog):
        lines = []
        for name in RING_NAMES:
            lines.append(name)
            lines.extend(f"  {element}" for element in catalog.ring(name).ring.groebner.elements)
        assert "\n".join(lines) + "\n" == GROEBNER_GOLDEN.read_text(encoding="utf-8")

    def test_stats_of_a3_tilde(self, catalog):
        # Counted on the algorithm that rescanned every pair for the smallest
        # lcm; equal counts mean the pairs pop in the same order.
        basis = buchberger(catalog.ring("a3_tilde").ring.presentation.relations)
        assert basis.stats == BuchbergerStats(
            pairs_queued=253,
            pairs_popped=253,
            coprime_skipped=101,
            chain_skipped=91,
            s_polynomials_reduced=61,
            zero_reductions=47,
            reduction_steps=265,
        )

    def test_stats_add_up(self):
        stats = basis_of("x^2 - y*z", "y^2 - x*z", "z^2 - x*y").stats
        assert stats.pairs_popped == stats.pairs_queued > 0
        skipped = stats.coprime_skipped + stats.chain_skipped
        assert stats.pairs_popped == skipped + stats.s_polynomials_reduced
        assert buchberger([XYZ.zero()]).stats == BuchbergerStats()


class TestIdealMembership:
    def test_membership(self):
        basis = basis_of("x^2 - y^2", "x*y - z^2")
        assert basis.contains(p("x^3 - x*y^2"))
        assert basis.contains(p("x*z^2 - y^3"))
        assert not basis.contains(p("x"))

    def test_random_combinations_are_members(self):
        gens = GeneratorSet([("a", 1), ("b", 1)])
        generators = [p("a^2 - b^2", gens), p("a*b^3", gens)]
        basis = buchberger(generators)
        rng = random.Random(23)
        for _ in range(20):
            combo = gens.zero()
            for g in generators:
                combo = combo + random_homogeneous(rng, gens, rng.randint(0, 2)) * g
            assert basis.contains(combo)
