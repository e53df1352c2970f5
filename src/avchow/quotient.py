"""Finitely presented graded quotient rings and their degree functionals.

A presentation is a weighted generator set plus homogeneous relations; the
quotient ring carries the reduced Groebner basis of the relation ideal,
normal forms, per-degree standard-monomial bases, the Hilbert function,
and, when the top graded piece has rank one, a degree functional pinned by
one reference value.  All numbers are exact rationals.

Every catalog ring is Artinian: each generator has a pure power among the
Groebner leading monomials, so only finitely many monomials are standard
and every graded piece above the socle degree is zero.  On such a ring the
normal form is a linear map over a lazily filled cache of monomial normal
forms, and monomials above the socle degree map to 0 without reduction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .errors import DegreeError, GeneratorMismatchError, InconsistentSystemError, PairingError, SingularSystemError
from .groebner import GroebnerBasis, buchberger
from .linalg import solve_exact
from .poly import GeneratorSet, Monomial, Polynomial, expand_chern_identity

# An Artinian ring lists all its standard monomials when it is built, so
# this bounds the work a short presentation such as ``x^100000000`` can
# ask for.  The largest catalog ring has 20.
MAX_STANDARD_MONOMIALS = 10_000

# A ring that is not Artinian lists each degree's standard monomials on
# demand by examining every monomial of that degree; this bounds the
# monomials examined over all degrees of one ring, so ``hilbert --max N``
# on two degree-1 generators stops at degree 446 instead of running for
# minutes.
MAX_MONOMIALS_EXAMINED = 100_000


class RingPresentation:
    """Weighted generators plus homogeneous relations.

    With ``chern_identity_genus`` set, the homogeneous parts of
    (1 + sum lambda_i)(1 + sum (-1)^i lambda_i) - 1 for that genus are
    appended to the listed relations, so catalog files do not repeat them.
    """

    __slots__ = ("name", "gens", "relations", "chern_identity_genus")

    def __init__(
        self,
        name: str,
        gens: GeneratorSet,
        relations: Iterable[Polynomial],
        chern_identity_genus: int | None = None,
    ):
        self.name = name
        self.gens = gens
        listed = []
        for i, relation in enumerate(relations):
            if relation.gens != gens:
                raise GeneratorMismatchError(f"relation {i} is over a different generator set")
            if relation.is_zero:
                continue
            if not relation.is_homogeneous:
                raise DegreeError(f"relation {i} ({relation}) is not homogeneous")
            listed.append(relation)
        if chern_identity_genus is not None:
            listed.extend(expand_chern_identity(chern_identity_genus, gens))
        self.relations = tuple(listed)
        self.chern_identity_genus = chern_identity_genus

    def __repr__(self) -> str:
        return f"RingPresentation({self.name}, {len(self.relations)} relations)"


class QuotientRing:
    """Graded quotient of a polynomial ring by a homogeneous ideal.

    ``socle_degree`` is the top degree of a nonzero graded piece when the
    ring is Artinian (-1 for the zero ring) and None otherwise.  The
    counters ``nf_hits``, ``nf_misses`` and ``nf_dropped`` count the
    monomials ``normal_form`` found in its cache, reduced and stored, and
    sent to 0 for lying above the socle degree.
    """

    def __init__(self, presentation: RingPresentation):
        self.presentation = presentation
        self.gens = presentation.gens
        if presentation.relations:
            self.groebner: GroebnerBasis = buchberger(presentation.relations)
        else:
            self.groebner = GroebnerBasis(self.gens, ())
        self._standard: dict[int, tuple[Monomial, ...]] = {}
        self._examined = 0
        self.socle_degree: int | None = None
        if self._has_pure_powers():
            self.socle_degree = self._enumerate_standard()
        self._nf_cache: dict[Monomial, dict[Monomial, Fraction]] = {}
        self.nf_hits = 0
        self.nf_misses = 0
        self.nf_dropped = 0

    def _has_pure_powers(self) -> bool:
        """Does every generator have a pure power among the leading monomials?"""
        pure = set()
        for lm in self.groebner.leading_monomials:
            support = [i for i, e in enumerate(lm) if e]
            if len(support) <= 1:
                pure.update(support or range(len(self.gens)))
        return len(pure) == len(self.gens)

    def _enumerate_standard(self) -> int:
        """Fill the standard monomials of every degree; return the socle degree.

        Standard monomials are closed under division, so walking up from 1
        by one generator at a time reaches all of them; pure powers among
        the leading monomials make the walk finite, and the walk stops with
        a DegreeError beyond MAX_STANDARD_MONOMIALS of them.
        """
        one = (0,) * len(self.gens)
        seen = {one}
        found = [one] if self.groebner.is_standard(one) else []
        frontier = list(found)
        while frontier:
            mono = frontier.pop()
            for i in range(len(mono)):
                up = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                if up not in seen:
                    seen.add(up)
                    if self.groebner.is_standard(up):
                        if len(found) == MAX_STANDARD_MONOMIALS:
                            raise DegreeError(
                                f"{self.name} has more than MAX_STANDARD_MONOMIALS = "
                                f"{MAX_STANDARD_MONOMIALS} standard monomials"
                            )
                        found.append(up)
                        frontier.append(up)
        by_degree: dict[int, list[Monomial]] = {}
        for mono in found:
            by_degree.setdefault(self.gens.weighted_degree(mono), []).append(mono)
        socle = max(by_degree, default=-1)
        for degree in range(socle + 1):
            monos = by_degree.get(degree, [])
            self._standard[degree] = tuple(sorted(monos, key=self.gens.sort_key, reverse=True))
        return socle

    @property
    def artinian(self) -> bool:
        return self.socle_degree is not None

    @property
    def name(self) -> str:
        return self.presentation.name

    def __repr__(self) -> str:
        return f"QuotientRing({self.name})"

    # Element helpers.

    def zero(self) -> Polynomial:
        return self.gens.zero()

    def one(self) -> Polynomial:
        return self.gens.one()

    def gen(self, name: str) -> Polynomial:
        return self.gens.gen(name)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of the class of p.

        On an Artinian ring this sums the cached normal forms of the terms'
        monomials; on any other ring it reduces p against the basis.
        """
        if p.gens != self.gens:
            raise GeneratorMismatchError("element belongs to a different ring")
        if self.socle_degree is None:
            return self.groebner.reduce(p)
        cache = self._nf_cache
        hits = 0
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in p._terms.items():
            image = cache.get(mono)
            if image is None:
                image = self._monomial_normal_form(mono)
            else:
                hits += 1
            for target, factor in image.items():
                total = terms.get(target, 0) + coeff * factor
                if total:
                    terms[target] = total
                else:
                    del terms[target]
        self.nf_hits += hits
        return Polynomial._raw(self.gens, terms)

    def _monomial_normal_form(self, mono: Monomial) -> dict[Monomial, Fraction]:
        """Terms of the normal form of one monomial, cached up to the socle degree."""
        if self.gens.weighted_degree(mono) > self.socle_degree:
            self.nf_dropped += 1
            return {}
        self.nf_misses += 1
        image = self.groebner.reduce(self.gens.monomial(mono))._terms
        self._nf_cache[mono] = image
        return image

    def classes_equal(self, p: Polynomial, q: Polynomial) -> bool:
        """Exact equality in the quotient: p - q lies in the ideal."""
        if p.gens != self.gens or q.gens != self.gens:
            raise GeneratorMismatchError("elements belong to a different ring")
        return self.normal_form(p - q).is_zero

    def contains(self, p: Polynomial) -> bool:
        """Ideal membership of p."""
        return self.normal_form(p).is_zero

    # Graded structure.

    def standard_monomials(self, degree: int) -> tuple[Monomial, ...]:
        """Monomial basis of the degree-d piece, descending by the order.

        Standard monomials are the ones not divisible by any leading
        monomial of the reduced Groebner basis.  An Artinian ring has them
        all listed from construction, and none above the socle degree.
        """
        cached = self._standard.get(degree)
        if cached is None:
            if self.socle_degree is not None:
                return ()
            budget = MAX_MONOMIALS_EXAMINED - self._examined
            monomials = list(islice(self.gens.iter_monomials_of_degree(degree), budget + 1))
            if len(monomials) > budget:
                raise DegreeError(
                    f"{self.name} is not Artinian, and listing its degree-{degree} standard "
                    f"monomials would take the monomials examined past "
                    f"MAX_MONOMIALS_EXAMINED = {MAX_MONOMIALS_EXAMINED}"
                )
            self._examined += len(monomials)
            cached = tuple(m for m in monomials if self.groebner.is_standard(m))
            self._standard[degree] = cached
        return cached

    def standard_basis_polynomials(self, degree: int) -> list[Polynomial]:
        return [self.gens.monomial(m) for m in self.standard_monomials(degree)]

    def hilbert_function(self, max_degree: int) -> list[int]:
        """Ranks of the graded pieces in degrees 0..max_degree."""
        if max_degree < 0:
            raise DegreeError(f"largest degree must be non-negative, got {max_degree}")
        return [len(self.standard_monomials(d)) for d in range(max_degree + 1)]

    def coordinates(self, p: Polynomial) -> tuple[int, list[Fraction]]:
        """Degree and coordinate vector of a homogeneous class.

        Coordinates are taken against the standard-monomial basis of the
        degree of p (descending order).  Zero is rejected: it has no degree.
        """
        nf = self.normal_form(p)
        degree = nf.weighted_degree()
        if degree is None:
            raise DegreeError("zero class has no coordinate degree")
        basis = self.standard_monomials(degree)
        return degree, [nf.coefficient(m) for m in basis]


class DegreeFunctional:
    """Linear functional on the rank-one top graded piece of a ring.

    Normalized by one reference element and its exact value; every other
    degree-D class gets its value by exact proportionality.
    """

    def __init__(self, ring: QuotientRing, reference_element: Polynomial, reference_value: Fraction):
        self.ring = ring
        self.reference_element = reference_element
        self.reference_value = Fraction(reference_value)
        degree = reference_element.weighted_degree()
        if degree is None:
            raise DegreeError("reference element must be nonzero")
        if ring.socle_degree is not None and degree != ring.socle_degree:
            raise DegreeError(
                f"reference element has degree {degree}, but {ring.name} has socle degree {ring.socle_degree}"
            )
        self.top_degree = degree
        basis = ring.standard_monomials(degree)
        if len(basis) != 1:
            raise DegreeError(
                f"degree-{degree} piece of {ring.name} has rank {len(basis)}, need rank one"
            )
        self._top_monomial = basis[0]
        nf = ring.normal_form(reference_element)
        if nf.is_zero:
            raise DegreeError("reference element vanishes in the quotient")
        self._reference_coefficient = nf.coefficient(self._top_monomial)

    def degree(self, p: Polynomial) -> Fraction:
        """Exact value of the functional on a degree-D class.

        The zero class gives 0; any nonzero class must be homogeneous of
        the top degree.
        """
        if p.gens != self.ring.gens:
            raise GeneratorMismatchError("element belongs to a different ring")
        if p.is_zero:
            return Fraction(0)
        d = p.weighted_degree()
        if d != self.top_degree:
            raise DegreeError(f"expected degree {self.top_degree}, got {d}")
        nf = self.ring.normal_form(p)
        if nf.is_zero:
            return Fraction(0)
        coefficient = nf.coefficient(self._top_monomial)
        return coefficient / self._reference_coefficient * self.reference_value

    __call__ = degree

    def pairing_matrix(
        self,
        codimension: int,
        rows: Sequence[Polynomial],
        cols: Sequence[Polynomial],
    ) -> list[list[Fraction]]:
        """Matrix of degree(row * col) for homogeneous complementary inputs.

        Rows must be homogeneous of the given codimension and columns of
        the complementary one; zero entries are allowed on either side.
        """
        complement = self.top_degree - codimension
        for label, elements, expected in (("row", rows, codimension), ("column", cols, complement)):
            for i, element in enumerate(elements):
                d = element.weighted_degree()
                if d is not None and d != expected:
                    raise DegreeError(f"{label} {i} has degree {d}, expected {expected}")
        return [[self.degree(r * c) for c in cols] for r in rows]

    def solve_class(
        self,
        codimension: int,
        probes: Sequence[Polynomial],
        values: Sequence[Fraction],
    ) -> Polynomial:
        """Reconstruct the unique degree-k class with the given pairings.

        Probes are homogeneous classes of complementary degree; values are
        the expected degree(x * probe) numbers.  The system is solved
        exactly; rank deficiency means the pairing cannot see the class
        (singular pairing), and contradictory overdetermined data is
        reported rather than least-squares fitted.
        """
        if len(probes) != len(values):
            raise ValueError("need exactly one value per probe")
        complement = self.top_degree - codimension
        for i, probe in enumerate(probes):
            d = probe.weighted_degree()
            if d is not None and d != complement:
                raise DegreeError(f"probe {i} has degree {d}, expected {complement}")
        basis = self.ring.standard_basis_polynomials(codimension)
        matrix = [[self.degree(e * probe) for e in basis] for probe in probes]
        try:
            solution = solve_exact(matrix, [Fraction(v) for v in values])
        except SingularSystemError as err:
            raise PairingError(f"singular pairing in codimension {codimension}: {err}") from err
        except InconsistentSystemError as err:
            raise PairingError(f"inconsistent pairing data in codimension {codimension}: {err}") from err
        result = self.ring.zero()
        for coefficient, element in zip(solution, basis):
            result = result + coefficient * element
        return result


def presentations_equivalent(
    a: QuotientRing,
    b: QuotientRing,
    forward: Mapping[str, Polynomial],
    backward: Mapping[str, Polynomial],
) -> bool:
    """Do the given generator maps define mutually inverse isomorphisms?

    Checks that forward sends every relation of a into the ideal of b and
    backward the other way, and that both composites fix every generator
    up to the respective ideal.  Returns False as soon as one condition
    fails; malformed maps (missing images) raise instead.
    """
    for name in a.gens.names:
        if name not in forward:
            raise GeneratorMismatchError(f"forward map misses generator {name!r}")
    for name in b.gens.names:
        if name not in backward:
            raise GeneratorMismatchError(f"backward map misses generator {name!r}")

    for relation in a.presentation.relations:
        if not b.contains(relation.substitute(forward)):
            return False
    for relation in b.presentation.relations:
        if not a.contains(relation.substitute(backward)):
            return False
    for name in a.gens.names:
        round_trip = forward[name].substitute(backward)
        if not a.classes_equal(round_trip, a.gen(name)):
            return False
    for name in b.gens.names:
        round_trip = backward[name].substitute(forward)
        if not b.classes_equal(round_trip, b.gen(name)):
            return False
    return True
