"""Buchberger's algorithm and full reduction: the tests' reference.

``QuotientRing`` builds its basis by a degree-by-degree elimination (see
``avchow.quotient``), which also yields its standard monomials and normal
forms, and no package code imports this module.  It holds two algorithms
the tests check the sweep against: reduction and Buchberger's algorithm,
which returns the sweep's own record, ``quotient.GroebnerBasis``.  The
benchmark looks them up here by name.

Classic Buchberger with the two standard pair-elimination criteria
(coprime leading monomials, and the chain criterion), followed by
minimalization and inter-reduction, so the returned basis is the reduced
monic Groebner basis: unique for a given ideal under the monomial order of
``GeneratorSet.sort_key`` (weighted degree, then lex), hence byte-for-byte
deterministic.  Homogeneous input yields homogeneous basis elements;
nothing here assumes homogeneity, but the catalog relies on it.

Pending pairs wait in a heap keyed by the sort key of their lcm, then by
the pair's indices; key and lcm are computed once, when the pair is
queued, so the smallest pair pops without a rescan of the others.  A set
of the pending pairs sits beside the heap for the chain criterion's
membership test.

Normal forms are computed by full reduction.  The deterministic strategy
reduces the order-largest reducible term first using the earliest-listed
divisor.  It pops terms from a max-heap in monomial order, after the heap
division of Monagan and Pearce (J. Symbolic Comput. 46, 2011), except that
the heap holds the running remainder's terms rather than pending products.
A popped term that no leading monomial divides is final, because every
later step only adds smaller terms; a reducible one is cancelled by a
multiple of its earliest divisor, whose other terms go onto the heap.
Passing an ``rng`` instead randomizes the choice of term and divisor,
which must not change the result against a Groebner basis (this
confluence is exercised by the test suite).  Each divisor's leading term
is found once per list of divisors, not once per reduction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import GeneratorMismatchError
from .poly import GeneratorSet, Monomial, Polynomial
from .quotient import GroebnerBasis


def _leading_term(p: Polynomial) -> tuple[Monomial, Fraction]:
    """Largest term of a nonzero polynomial under ``GeneratorSet.sort_key``."""
    mono = max(p._terms, key=p.gens.sort_key)
    return mono, p._terms[mono]


def monomial_divides(divisor: Monomial, mono: Monomial) -> bool:
    return all(d <= m for d, m in zip(divisor, mono))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _monic(p: Polynomial) -> Polynomial:
    _, lead = _leading_term(p)
    return p if lead == 1 else p * (Fraction(1) / lead)


class _Divisors:
    """Nonzero polynomials of one generator set, with their leading terms.

    ``leading`` lists ``(lm, lc, polynomial)`` in the order the polynomials
    were added; ``steps`` counts the reduction steps taken against them.
    """

    __slots__ = ("gens", "leading", "steps")

    def __init__(self, gens: GeneratorSet, polys: Iterable[Polynomial] = ()):
        self.gens = gens
        self.leading: list[tuple[Monomial, Fraction, Polynomial]] = []
        self.steps = 0
        for b in polys:
            self.append(b)

    def append(self, b: Polynomial) -> None:
        if b.is_zero:
            return
        if b.gens != self.gens:
            raise GeneratorMismatchError("basis element over a different generator set")
        lm, lc = _leading_term(b)
        self.leading.append((lm, lc, b))

    def __len__(self) -> int:
        return len(self.leading)

    def __getitem__(self, i: int) -> Polynomial:
        return self.leading[i][2]


def _max_first(gens: GeneratorSet, mono: Monomial) -> tuple:
    """Heap entry for ``mono``: ``heappop`` returns the largest by ``gens.sort_key``."""
    return (-gens.weighted_degree(mono), tuple(-e for e in mono), mono)


def _cancel(terms: dict[Monomial, Fraction], mono: Monomial, divisor: tuple) -> list[Monomial]:
    """Remove the term at ``mono`` by subtracting a multiple of the divisor.

    ``divisor`` is ``(lm, lc, b)`` with ``lm`` dividing ``mono``; returns
    the monomials that were not terms before.
    """
    lm, lc, b = divisor
    factor = terms.pop(mono) / lc
    shift = tuple(m - l for m, l in zip(mono, lm))
    added = []
    for bmono, bcoeff in b._terms.items():
        if bmono == lm:
            continue
        target = monomial_mul(shift, bmono)
        old = terms.get(target)
        if old is None:
            terms[target] = -factor * bcoeff
            added.append(target)
        else:
            updated = old - factor * bcoeff
            if updated:
                terms[target] = updated
            else:
                del terms[target]
    return added


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
    # buchberger passes its _Divisors, with the leading terms found.
    divisors = basis if isinstance(basis, _Divisors) else _Divisors(p.gens, basis)
    active = divisors.leading
    if not active:
        return p

    gens = p.gens
    terms = dict(p._terms)
    if rng is None:
        heap = [_max_first(gens, mono) for mono in terms]
        heapify(heap)
        final: dict[Monomial, Fraction] = {}
        while heap:
            mono = heappop(heap)[2]
            if mono not in terms:
                # Cancelled after it was queued, or queued twice.
                continue
            for divisor in active:
                if monomial_divides(divisor[0], mono):
                    break
            else:
                final[mono] = terms.pop(mono)
                continue
            divisors.steps += 1
            for target in _cancel(terms, mono, divisor):
                heappush(heap, _max_first(gens, target))
        return Polynomial._raw(gens, final)

    key = gens.sort_key
    while True:
        candidates = [
            (mono, i)
            for mono in terms
            for i, (lm, _, _) in enumerate(active)
            if monomial_divides(lm, mono)
        ]
        if not candidates:
            return Polynomial._raw(gens, terms)
        candidates.sort(key=lambda pair: (key(pair[0]), pair[1]))
        mono, i = candidates[rng.randrange(len(candidates))]
        divisors.steps += 1
        _cancel(terms, mono, active[i])


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: cancel the leading terms of f and g against their lcm."""
    lmf, lcf = _leading_term(f)
    lmg, lcg = _leading_term(g)
    l = tuple(map(max, lmf, lmg))
    uf = tuple(a - b for a, b in zip(l, lmf))
    ug = tuple(a - b for a, b in zip(l, lmg))
    return f.gens.monomial(uf, Fraction(1) / lcf) * f - f.gens.monomial(ug, Fraction(1) / lcg) * g


class BuchbergerStats(SimpleNamespace):
    """Counts of the Buchberger run that built a basis; printed nowhere.

    Every count not given starts at 0.  ``reduction_steps`` counts over the
    S-polynomial reductions and the final inter-reduction.
    """

    COUNTS = (
        "pairs_queued", "pairs_popped", "coprime_skipped", "chain_skipped",
        "s_polynomials_reduced", "zero_reductions", "reduction_steps",
    )

    def __init__(self, **counts: int):
        super().__init__(**(dict.fromkeys(self.COUNTS, 0) | counts))


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

    stats = BuchbergerStats()
    basis = _Divisors(gens, (_monic(g) for g in source if not g.is_zero))
    if not basis:
        return GroebnerBasis(gens, (), (), stats)

    lead = [lm for lm, _, _ in basis.leading]
    queue: list[tuple[tuple[int, Monomial], tuple[int, int], Monomial]] = []
    pending: set[tuple[int, int]] = set()

    def enqueue(i: int, j: int) -> None:
        lcm_ij = tuple(map(max, lead[i], lead[j]))
        heappush(queue, (gens.sort_key(lcm_ij), (i, j), lcm_ij))
        pending.add((i, j))
        stats.pairs_queued += 1

    for j in range(len(basis)):
        for i in range(j):
            enqueue(i, j)

    while queue:
        _, (i, j), lcm_ij = heappop(queue)
        pending.remove((i, j))
        stats.pairs_popped += 1
        # Criterion 1: coprime leading monomials reduce to zero for free.
        if lcm_ij == monomial_mul(lead[i], lead[j]):
            stats.coprime_skipped += 1
            continue
        # Criterion 2 (chain): some k divides the lcm and both mixed pairs
        # are already handled.
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lead[k], lcm_ij):
                continue
            ik = (min(i, k), max(i, k))
            jk = (min(j, k), max(j, k))
            if ik not in pending and jk not in pending:
                skip = True
                break
        if skip:
            stats.chain_skipped += 1
            continue
        remainder = reduce(s_polynomial(basis[i], basis[j]), basis)
        stats.s_polynomials_reduced += 1
        if remainder.is_zero:
            stats.zero_reductions += 1
            continue
        basis.append(_monic(remainder))
        lead.append(basis.leading[-1][0])
        new = len(basis) - 1
        for t in range(new):
            enqueue(t, new)
    stats.reduction_steps = basis.steps

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
            others = _Divisors(gens, reduced[:idx] + reduced[idx + 1 :])
            if not others:
                continue
            replacement = _monic(reduce(reduced[idx], others))
            stats.reduction_steps += others.steps
            if replacement != reduced[idx]:
                reduced[idx] = replacement
                changed = True

    by_lead = {_leading_term(b)[0]: b for b in reduced}
    leading = sorted(by_lead, key=gens.sort_key, reverse=True)
    return GroebnerBasis(gens, tuple(by_lead[lm] for lm in leading), tuple(leading), stats)
