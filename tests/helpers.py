"""Random-input generators shared by several test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from avchow import GeneratorSet, Polynomial

from oracles import monomials_of_degree


def monomials_up_to(weights, degree) -> set:
    """Every exponent tuple of weighted degree at most ``degree``."""
    return {mono for d in range(degree + 1) for mono in monomials_of_degree(weights, d)}


def random_coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_polynomial(
    rng: random.Random,
    gens: GeneratorSet,
    max_degree: int = 4,
    max_terms: int = 4,
) -> Polynomial:
    """A random (possibly zero, possibly inhomogeneous) polynomial."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        degree = rng.randint(0, max_degree)
        monomials = monomials_of_degree(gens.weights, degree)
        if not monomials:
            continue
        mono = monomials[rng.randrange(len(monomials))]
        terms[mono] = terms.get(mono, Fraction(0)) + random_coefficient(rng)
    return Polynomial(gens, terms)


def random_homogeneous(
    rng: random.Random,
    gens: GeneratorSet,
    degree: int,
    max_terms: int = 3,
) -> Polynomial:
    """A random homogeneous polynomial of the given weighted degree."""
    monomials = monomials_of_degree(gens.weights, degree)
    terms = {}
    if monomials:
        for _ in range(rng.randint(1, max_terms)):
            mono = monomials[rng.randrange(len(monomials))]
            terms[mono] = terms.get(mono, Fraction(0)) + random_coefficient(rng)
    return Polynomial(gens, terms)
