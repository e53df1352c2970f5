"""Groebner bases for weighted-homogeneous ideals over Q.

Classic Buchberger with the two standard pair-elimination criteria
(coprime leading monomials, and the chain criterion), followed by
minimalization and inter-reduction, so the returned basis is the reduced
monic Groebner basis: unique for a given ideal under the monomial order of
``GeneratorSet.sort_key`` (weighted degree, then lex), hence byte-for-byte
deterministic.  Homogeneous input yields homogeneous basis elements;
nothing here assumes homogeneity, but the catalog relies on it.

Normal forms are computed by full reduction.  The deterministic strategy
reduces the order-largest reducible term first using the earliest-listed
divisor; passing an ``rng`` instead randomizes the choice of term and
divisor, which must not change the result against a Groebner basis (this
confluence is exercised by the test suite).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GeneratorMismatchError
from .poly import GeneratorSet, Monomial, Polynomial


def monomial_divides(divisor: Monomial, mono: Monomial) -> bool:
    return all(d <= m for d, m in zip(divisor, mono))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _monic(p: Polynomial) -> Polynomial:
    _, lead = p.leading_term()
    return p if lead == 1 else p * (Fraction(1) / lead)


def reduce(
    p: Polynomial,
    basis: Sequence[Polynomial],
    rng: random.Random | None = None,
) -> Polynomial:
    """Full normal form of p modulo the listed basis.

    No term of the result is divisible by any basis leading monomial.  The
    default strategy is deterministic (largest reducible term, earliest
    divisor); with ``rng`` the reducible term and the divisor are chosen at
    random, for confluence testing.
    """
    active: list[tuple[Monomial, Fraction, Polynomial]] = []
    for b in basis:
        if b.is_zero:
            continue
        if b.gens != p.gens:
            raise GeneratorMismatchError("basis element over a different generator set")
        lm, lc = b.leading_term()
        active.append((lm, lc, b))
    if not active:
        return p

    terms = dict(p._terms)
    key = p.gens.sort_key
    while True:
        if rng is None:
            chosen: tuple[Monomial, int] | None = None
            chosen_key = None
            for mono in terms:
                for i, (lm, _, _) in enumerate(active):
                    if monomial_divides(lm, mono):
                        k = key(mono)
                        if chosen is None or k > chosen_key:
                            chosen = (mono, i)
                            chosen_key = k
                        break
            if chosen is None:
                break
        else:
            candidates = [
                (mono, i)
                for mono in terms
                for i, (lm, _, _) in enumerate(active)
                if monomial_divides(lm, mono)
            ]
            if not candidates:
                break
            candidates.sort(key=lambda pair: (key(pair[0]), pair[1]))
            chosen = candidates[rng.randrange(len(candidates))]

        mono, i = chosen
        lm, lc, b = active[i]
        factor = terms[mono] / lc
        shift = tuple(m - l for m, l in zip(mono, lm))
        for bmono, bcoeff in b._terms.items():
            target = monomial_mul(shift, bmono)
            updated = terms.get(target, Fraction(0)) - factor * bcoeff
            if updated:
                terms[target] = updated
            else:
                terms.pop(target, None)
    return Polynomial._raw(p.gens, terms)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: cancel the leading terms of f and g against their lcm."""
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    l = monomial_lcm(lmf, lmg)
    uf = tuple(a - b for a, b in zip(l, lmf))
    ug = tuple(a - b for a, b in zip(l, lmg))
    return f.gens.monomial(uf, Fraction(1) / lcf) * f - f.gens.monomial(ug, Fraction(1) / lcg) * g


class GroebnerBasis:
    """Reduced monic Groebner basis, with the generators it was computed from."""

    __slots__ = ("gens", "elements", "source", "_leading")

    def __init__(
        self,
        gens: GeneratorSet,
        elements: Sequence[Polynomial],
        source: Sequence[Polynomial] = (),
    ):
        self.gens = gens
        self.elements = tuple(elements)
        self.source = tuple(source)
        self._leading = tuple(e.leading_monomial() for e in self.elements)

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return self._leading

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def reduce(self, p: Polynomial, rng: random.Random | None = None) -> Polynomial:
        return reduce(p, self.elements, rng=rng)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero

    def is_standard(self, mono: Monomial) -> bool:
        """True when no basis leading monomial divides the given monomial."""
        return not any(monomial_divides(lm, mono) for lm in self._leading)


def buchberger(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators."""
    source = tuple(generators)
    gens: GeneratorSet | None = None
    for g in source:
        if gens is None:
            gens = g.gens
        elif g.gens != gens:
            raise GeneratorMismatchError("ideal generators over different generator sets")
    if gens is None:
        raise ValueError("cannot infer the generator set of an empty ideal; pass at least one polynomial")

    basis = [_monic(g) for g in source if not g.is_zero]
    if not basis:
        return GroebnerBasis(gens, (), source)

    lead = [b.leading_monomial() for b in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def pair_key(ij: tuple[int, int]):
        return (gens.sort_key(monomial_lcm(lead[ij[0]], lead[ij[1]])), ij)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        lcm_ij = monomial_lcm(lead[i], lead[j])
        # Criterion 1: coprime leading monomials reduce to zero for free.
        if lcm_ij == monomial_mul(lead[i], lead[j]):
            continue
        # Criterion 2 (chain): some k divides the lcm and both mixed pairs
        # are already handled.
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lead[k], lcm_ij):
                continue
            ik = (min(i, k), max(i, k))
            jk = (min(j, k), max(j, k))
            if ik not in pairs and jk not in pairs:
                skip = True
                break
        if skip:
            continue
        remainder = reduce(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero:
            continue
        basis.append(_monic(remainder))
        lead.append(basis[-1].leading_monomial())
        new = len(basis) - 1
        pairs.update((t, new) for t in range(new))

    # Minimalize: keep only elements whose leading monomial is not divisible
    # by another kept one.
    by_lm = sorted(range(len(basis)), key=lambda i: gens.sort_key(lead[i]))
    kept: list[int] = []
    for i in by_lm:
        if not any(monomial_divides(lead[k], lead[i]) for k in kept):
            kept.append(i)
    reduced = [basis[i] for i in kept]

    # Inter-reduce: every element fully reduced against the others.
    changed = True
    while changed:
        changed = False
        for idx in range(len(reduced)):
            others = reduced[:idx] + reduced[idx + 1 :]
            if not others:
                continue
            replacement = _monic(reduce(reduced[idx], others))
            if replacement != reduced[idx]:
                reduced[idx] = replacement
                changed = True

    reduced.sort(key=lambda b: gens.sort_key(b.leading_monomial()), reverse=True)
    return GroebnerBasis(gens, reduced, source)


def ideal_membership(p: Polynomial, basis: GroebnerBasis) -> bool:
    """Exact ideal membership: does p reduce to zero against the basis?"""
    return basis.contains(p)
