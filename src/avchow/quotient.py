"""Finitely presented graded quotient rings and their degree functionals.

A presentation is a weighted generator set plus homogeneous relations; the
quotient ring carries the reduced Groebner basis of the relation ideal
(the ``GroebnerBasis`` record defined here), normal forms, per-degree
standard-monomial bases, the Hilbert function, and, when the top graded
piece has rank one, a degree functional pinned by one reference value.
All numbers are exact rationals.  No code here reduces against the basis
or runs Buchberger's algorithm; ``avchow.groebner`` holds both as the
tests' independent reference, and nothing in the package imports it.

A ring is built by one sweep over the degrees 0, 1, 2, ...: in each
degree the relations and the generator multiples of the rows found below
are eliminated one by one into reduced row echelon form, which is kept
as each row arrives (Macaulay's matrices, as Lazard used them; the
choice of multipliers follows Faugere's F4).  The pivots of a degree are
its nonstandard monomials, each pivot row is that monomial minus its
normal form, and the rows that no smaller pivot explains form the
reduced Groebner basis.  Each degree's normal forms enter the table as
soon as the degree is done.  The sweep stops once max(w) consecutive
degrees have no standard monomial: the ring is Artinian.  A presentation
is refused with DegreeError once the sweep is past every S-pair of its
basis while some generator has no pure power (the ring is not Artinian),
or once the sweep passes one of its caps.

So every ring is Artinian: only finitely many monomials are standard and
every graded piece above the socle degree is zero.  The normal form is a
linear map over the table of monomial normal forms the sweep filled up to
the socle degree (``poly.apply_linear``); a monomial with no entry (above
the socle degree, or with normal form 0) maps to 0.
The degree functional is read from the same table: at construction it
gives each monomial whose normal form reaches the top monomial its value,
stored as an integer numerator over one common denominator for the ring.
A degree is then the dot product of a class's coefficients with those
values, summed as one integer fraction and made a Fraction once, with no
normal form built.  Every monomial in the table has the top degree, so
the homogeneity check computes the degree only of the monomials missing
from it.  A pairing is the bilinear form sum a_m * b_n * V[m + n] on the
same table, with both sides scaled to integer numerators, so no product
polynomial is formed.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DegreeError, GeneratorMismatchError, InconsistentSystemError, PairingError, SingularSystemError
from .linalg import solve_exact
from .poly import GeneratorSet, Monomial, Polynomial, add_scaled, apply_linear, integer_terms

# The degree sweep lists the standard monomials of every degree it passes,
# so this bounds the work a short presentation such as ``x^100000000`` can
# ask for.  The largest catalog ring has 20.
MAX_STANDARD_MONOMIALS = 10_000

# The degree sweep that builds a ring looks at the monomials of each degree
# that may be standard or have a nonzero normal form, until it has decided
# whether the ring is Artinian; past this many it refuses the presentation.
# The catalog rings look at most at 204.
MAX_SWEEP_MONOMIALS = 100_000

# The sweep also passes every degree in between, even one where it looks at
# no monomial; past this many degrees it refuses the presentation, so a
# generator of weight 10^9 with its square a relation is refused at once
# instead of after hours of empty degrees.
MAX_SWEEP_DEGREES = 20_000


class RingPresentation:
    """Weighted generators plus their nonzero relations, in order, each homogeneous over ``gens``."""

    __slots__ = ("name", "gens", "relations")

    def __init__(self, name: str, gens: GeneratorSet, relations: Iterable[Polynomial]):
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
        self.relations = tuple(listed)


class QuotientRing:
    """Graded quotient of a polynomial ring by a homogeneous ideal.

    The ring must be Artinian: a presentation that is not, or whose sweep
    passes a cap, raises DegreeError at construction.  ``socle_degree`` is
    the top degree of a nonzero graded piece (-1 for the zero ring).  The
    counters ``nf_hits`` and ``nf_dropped`` count the monomials
    ``normal_form`` found in its table and those it sent to 0 for having
    no entry there.
    """

    def __init__(self, presentation: RingPresentation):
        self.presentation = presentation
        self.gens = presentation.gens
        self.nf_hits = 0
        self.nf_dropped = 0
        self.groebner, self.socle_degree, self._standard, self._nf_cache = _sweep(
            self.name, self.gens, presentation.relations
        )

    @property
    def name(self) -> str:
        return self.presentation.name

    # Element helpers.

    def gen(self, name: str) -> Polynomial:
        return self.gens.gen(name)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of the class of p.

        This sums the tabulated normal forms of the terms' monomials, and a
        monomial missing from the table maps to 0.
        """
        if p.gens != self.gens:
            raise GeneratorMismatchError("element belongs to a different ring")
        table = self._nf_cache
        hits = len(table.keys() & p._terms.keys())
        self.nf_hits += hits
        self.nf_dropped += len(p._terms) - hits
        return Polynomial._raw(self.gens, apply_linear(p._terms.items(), table))

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
        monomial of the reduced Groebner basis.  They are all listed from
        construction, and there are none above the socle degree.
        """
        return self._standard.get(degree, ())

    def standard_basis_polynomials(self, degree: int) -> list[Polynomial]:
        return [self.gens.monomial(m) for m in self.standard_monomials(degree)]

    def hilbert_function(self, max_degree: int) -> list[int]:
        """Ranks of the graded pieces in degrees 0..max_degree."""
        if max_degree < 0:
            raise DegreeError(f"largest degree must be non-negative, got {max_degree}")
        return [len(self.standard_monomials(d)) for d in range(max_degree + 1)]


class GroebnerBasis(NamedTuple):
    """Reduced monic Groebner basis of a ring's relations, as the degree sweep found it.

    ``elements`` descend by leading monomial, and ``leading_monomials``
    lists their leading monomials in the same order.  ``stats`` holds the
    counts of the run that built it: the sweep's ``degrees_swept``,
    ``candidate_rows``, ``zero_rows`` and ``pivots``, or the tests'
    reference ``groebner.buchberger``'s.  As with any named tuple, ``len``
    and iteration run over these four fields, not over the elements.
    """

    gens: GeneratorSet
    elements: tuple[Polynomial, ...]
    leading_monomials: tuple[Monomial, ...]
    stats: SimpleNamespace


def _sweep(
    name: str, gens: GeneratorSet, relations: Sequence[Polynomial]
) -> tuple[GroebnerBasis, int, dict[int, tuple[Monomial, ...]], dict[Monomial, dict[Monomial, Fraction]]]:
    """Reduced Groebner basis of the relations by elimination, degree by degree.

    Returns the basis, the socle degree, the standard monomials of each
    degree that has some, and the table of monomial normal forms.

    Each nonstandard monomial t gets a row t + tail(t) in the ideal, with
    the tail on standard monomials, so NF(t) = -tail(t); a row with an
    empty tail is bare.  In degree d the candidate rows are the relations
    of degree d and, for each monomial m with some m/x_i nonstandard, the
    products x_i * row(m/x_i), which have leading monomial m.  Those x_i
    are joined when m/(x_i*x_j) is nonstandard too, and one candidate per
    joined group suffices: the difference of two joined products lies in
    the span of candidates with smaller leading monomials (the chain
    criterion).  The rows are kept in reduced row echelon form as they
    arrive (``_reduce``), so the pivots of degree d are its nonstandard
    monomials, each with its tail on standard monomials.  The pivot rows
    whose leading monomial has no nonstandard divisor m/x_i are the
    reduced Groebner basis.  As each degree is done, its nonempty tails
    (negated) and its standard monomials enter the normal-form table.

    Only two kinds of monomial of degree d are looked at: x_i * s for a
    standard s, which may be standard, and x_i * t for a t with a nonempty
    tail.  Any other monomial of degree d has only nonstandard divisors,
    all with bare rows, so its own row is bare: it is in the ideal, its
    normal form is 0, and it is dropped from the relations.  So each degree
    keeps its standard monomials and the tails that are not empty, and the
    work follows them rather than the number of monomials.

    Nothing is decided before the top relation degree.  The ring is
    Artinian once max(w) consecutive degrees have no standard monomial:
    every monomial of higher degree has a nonstandard divisor in that
    window, so no basis element lies above it.  One such degree is not
    enough: with weights 1, 2, 3 a monomial of degree 8 can have no divisor
    of degree 7.  The ring is not Artinian once the sweep has passed the
    degree of every lcm of two basis leading monomials while some generator
    has no pure power among them: every S-polynomial then reduces to 0
    (Buchberger's criterion), so the basis is complete, and the sweep
    raises DegreeError naming those generators.  It also raises DegreeError
    once it has looked at more than MAX_SWEEP_MONOMIALS monomials or found
    more than MAX_STANDARD_MONOMIALS standard ones, or passed
    MAX_SWEEP_DEGREES degrees.
    """
    weights = gens.weights
    window = max(weights, default=1)
    relations_of: dict[int, list[dict[Monomial, Fraction]]] = {}
    for relation in relations:
        relations_of.setdefault(relation.weighted_degree(), []).append(relation._terms)
    top_relation = max(relations_of, default=0)
    standard: dict[int, tuple[Monomial, ...]] = {}  # the degrees that have standard monomials
    standard_sets: list[set[Monomial]] = []
    tails_of: list[dict[Monomial, dict[Monomial, Fraction]]] = []  # the tails that are not empty
    normal_forms: dict[Monomial, dict[Monomial, Fraction]] = {}
    elements: list[tuple[Monomial, Polynomial]] = []
    stats = SimpleNamespace(degrees_swept=0, candidate_rows=0, zero_rows=0, pivots=0)
    lcm_top = 0  # the largest degree of the lcm of two leading monomials
    looked = found = full_run = 0
    socle = -1
    degree = 0
    while True:
        products = {(0,) * len(weights)} if degree == 0 else set()
        looked_at = set()
        for i, weight in enumerate(weights):
            if weight <= degree:
                products.update(s[:i] + (s[i] + 1,) + s[i + 1 :] for s in standard_sets[degree - weight])
                looked_at.update(t[:i] + (t[i] + 1,) + t[i + 1 :] for t in tails_of[degree - weight])
        looked_at |= products
        looked += len(looked_at)
        if looked > MAX_SWEEP_MONOMIALS:
            raise DegreeError(
                f"{name}: the degree sweep looked at more than MAX_SWEEP_MONOMIALS = "
                f"{MAX_SWEEP_MONOMIALS} monomials before it decided whether the ring is Artinian"
            )

        # For each monomial, its nonstandard divisors m/x_i with their tails.
        lower: dict[Monomial, list[tuple[int, Monomial, dict[Monomial, Fraction]]]] = {}
        for m in looked_at:
            under = []
            for i, e in enumerate(m):
                if e:
                    t = m[:i] + (e - 1,) + m[i + 1 :]
                    below = degree - weights[i]
                    if t not in standard_sets[below]:
                        under.append((i, t, tails_of[below].get(t, _BARE)))
            if under:
                lower[m] = under

        # A monomial with no nonstandard divisor may be standard; the others
        # are in the ideal, and bare, if one of their rows is.
        if len(lower) < len(looked_at) or not all(any(not tail for _, _, tail in under) for under in lower.values()):
            rows = _candidate_rows(lower, standard_sets, degree, weights)
            for relation in relations_of.get(degree, ()):
                rows.append({m: c for m, c in relation.items() if m in looked_at})
            tails = _reduce(rows, stats)
        else:
            # Every monomial of this degree has a bare row: the degree is
            # full, and neither elimination nor its relations add anything.
            tails = dict.fromkeys(lower, _BARE)
        stats.degrees_swept += 1
        stats.pivots += len(tails)
        for lead, tail in tails.items():
            if tail:
                normal_forms[lead] = {s: -c for s, c in tail.items()}
            if lead not in lower:
                for other, _ in elements:
                    lcm_top = max(lcm_top, gens.weighted_degree(tuple(map(max, lead, other))))
                terms = dict(tail)
                terms[lead] = Fraction(1)
                elements.append((lead, Polynomial._raw(gens, terms)))
        tails_of.append({lead: tail for lead, tail in tails.items() if tail})
        here = sorted((m for m in products if m not in tails), reverse=True)
        standard_sets.append(set(here))

        if here:
            standard[degree] = tuple(here)
            normal_forms.update((m, {m: Fraction(1)}) for m in here)
            found += len(here)
            if found > MAX_STANDARD_MONOMIALS:
                raise DegreeError(
                    f"{name} has more than MAX_STANDARD_MONOMIALS = {MAX_STANDARD_MONOMIALS} standard monomials"
                )
            socle = degree
            full_run = 0
        else:
            full_run += 1
        if degree >= top_relation:
            if full_run >= window:
                break
            if degree >= lcm_top:
                lacking = _lacking_pure_powers((lead for lead, _ in elements), gens.names)
                if lacking:
                    raise DegreeError(
                        f"{name} is not Artinian: no power of {', '.join(lacking)} is a leading "
                        f"monomial of its Groebner basis"
                    )
        degree += 1
        if degree > MAX_SWEEP_DEGREES:
            raise DegreeError(
                f"{name}: the degree sweep passed MAX_SWEEP_DEGREES = {MAX_SWEEP_DEGREES} degrees "
                f"before it decided whether the ring is Artinian"
            )

    elements.sort(key=lambda item: gens.sort_key(item[0]), reverse=True)
    basis = GroebnerBasis(
        gens, tuple(element for _, element in elements), tuple(lead for lead, _ in elements), stats
    )
    return basis, socle, standard, normal_forms


# The tail of a bare row; shared, and never changed.
_BARE: dict[Monomial, Fraction] = {}


def _lacking_pure_powers(leading: Iterable[Monomial], names: Sequence[str]) -> list[str]:
    """The names of the generators with no pure power among the leading monomials."""
    pure = set()
    for lm in leading:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) <= 1:
            pure.update(support or range(len(names)))
    return [name for i, name in enumerate(names) if i not in pure]


def _candidate_rows(lower, standard_sets, degree, weights):
    """Rows x_i * row(m/x_i), one per group, each led by its monomial m."""
    rows = []
    for m, under in lower.items():
        for i, _, tail in _one_per_group(under, standard_sets, degree, weights):
            row = {m: Fraction(1)}
            for s, c in tail.items():
                row[s[:i] + (s[i] + 1,) + s[i + 1 :]] = c
            rows.append(row)
    return rows


def _one_per_group(under, standard_sets, degree, weights):
    """One (i, m/x_i, tail) from each group of ``under``, joined where m/(x_i*x_j) is nonstandard.

    Each group keeps its member with the shortest tail, so a bare monomial
    row is preferred; members with bare rows give the same candidate m and
    are joined without a lookup.
    """
    if len(under) == 1:
        return under
    under.sort(key=lambda item: len(item[2]))
    group = list(range(len(under)))
    for a in range(1, len(under)):
        i, t, tail = under[a]
        for b in range(a):
            if group[b] == group[a]:
                continue
            j = under[b][0]
            if tail or under[b][2]:
                u = t[:j] + (t[j] - 1,) + t[j + 1 :]
                if u in standard_sets[degree - weights[i] - weights[j]]:
                    continue
            keep, drop = sorted((group[a], group[b]))
            group = [keep if g == drop else g for g in group]
    return [member for a, member in enumerate(under) if group[a] == a]


def _reduce(rows, stats):
    """The reduced row echelon form of the rows, as {pivot: tail}.

    All rows lie in one degree, where the monomial order is the order of
    the exponent tuples, so ``max`` finds a leading monomial.  The pivots
    are kept reduced as rows arrive: a row loses every pivot it holds, one
    substitution each, since no tail holds a pivot; what is left leads
    with a new pivot at coefficient 1, which is then eliminated from the
    earlier tails.  Each substitution is one ``poly.add_scaled`` call.  Each
    tail lies on monomials that are not pivots.  Rows are consumed, and may
    be empty; ``stats`` counts the candidates and those reduced to zero.
    """
    stats.candidate_rows += len(rows)
    tails: dict[Monomial, dict[Monomial, Fraction]] = {}
    for row in rows:
        for pivot in [m for m in row if m in tails]:
            add_scaled(row, -row.pop(pivot), tails[pivot])
        if not row:
            stats.zero_rows += 1
            continue
        lead = max(row)
        factor = row.pop(lead)
        tail = row if factor == 1 else {mono: c / factor for mono, c in row.items()}
        for other in tails.values():
            if lead in other:
                add_scaled(other, -other.pop(lead), tail)
        tails[lead] = tail
    return tails


class DegreeFunctional:
    """Linear functional on the rank-one top graded piece of a ring.

    Normalized by one reference element and its exact, nonzero value;
    every other degree-D class gets its value by exact proportionality.  The value of
    every monomial whose normal form reaches the top monomial is tabulated
    at construction, as an integer V[m] over the common denominator
    ``_denominator``, so a degree is a dot product of the coefficients
    with that table.  Pairings are read from the same table: with a row
    and a column scaled to integer numerators a_m and b_n over the lcm of
    their denominators, the degree of their product is
    sum a_m * b_n * V[m + n] over that lcm, the two scales and the common
    denominator.
    """

    def __init__(self, ring: QuotientRing, reference_element: Polynomial, reference_value: Fraction):
        self.ring = ring
        self.reference_element = reference_element
        self.reference_value = Fraction(reference_value)
        if not self.reference_value:
            raise DegreeError("reference value must be nonzero, or every degree would be 0")
        degree = reference_element.weighted_degree()
        if degree is None:
            raise DegreeError("reference element must be nonzero")
        if degree != ring.socle_degree:
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
        top = self._top_monomial
        scale = self.reference_value / nf.coefficient(top)
        self._values, self._denominator = integer_terms(
            {mono: image[top] * scale for mono, image in ring._nf_cache.items() if top in image}
        )

    def degree(self, p: Polynomial) -> Fraction:
        """Exact value of the functional on a degree-D class.

        The zero class gives 0; any nonzero class must be homogeneous of
        the top degree.  Every monomial in the table has the top degree, so
        only the others have their degree computed, and the sum is kept as
        one integer fraction until the end.
        """
        if p.gens != self.ring.gens:
            raise GeneratorMismatchError("element belongs to a different ring")
        if p.is_zero:
            return Fraction(0)
        values = self._values
        weights = self.ring.gens.weights
        top_degree = self.top_degree
        numerator, denominator = 0, 1
        for mono, coeff in p._terms.items():
            value = values.get(mono)
            if value is None:
                if sum(map(mul, mono, weights)) != top_degree:
                    raise DegreeError(f"expected degree {top_degree}, got {p.weighted_degree()}")
                continue
            if coeff.denominator == denominator:
                numerator += coeff.numerator * value
            else:
                numerator = numerator * coeff.denominator + coeff.numerator * value * denominator
                denominator *= coeff.denominator
        return Fraction(numerator, denominator * self._denominator)

    __call__ = degree

    def pairing_matrix(
        self,
        codimension: int,
        rows: Sequence[Polynomial],
        cols: Sequence[Polynomial],
    ) -> list[list[Fraction]]:
        """Matrix of degree(row * col) for homogeneous complementary inputs.

        Rows must be homogeneous of the given codimension and columns of
        the complementary one; zero entries are allowed on either side.  No
        product is formed: each row and column is scaled to integers, each
        entry is the bilinear form sum a_m * b_n * V[m + n] over the value
        table, and one Fraction is made per entry.
        """
        self._check("row", rows, codimension)
        self._check("column", cols, self.top_degree - codimension)
        return self._matrix([r._terms for r in rows], [c._terms for c in cols])

    def solve_class(
        self,
        codimension: int,
        probes: Sequence[Polynomial],
        values: Sequence[Fraction],
    ) -> Polynomial:
        """Reconstruct the unique degree-k class with the given pairings.

        Probes are homogeneous classes of complementary degree; values are
        the expected degree(x * probe) numbers.  The equations are the
        pairing matrix of the probes against the standard monomials of
        degree k, and ``solve_exact`` solves them exactly; rank deficiency
        means the pairing cannot see the class (singular pairing), and
        contradictory overdetermined data is reported rather than
        least-squares fitted.
        """
        if len(probes) != len(values):
            raise ValueError("need exactly one value per probe")
        self._check("probe", probes, self.top_degree - codimension)
        basis = self.ring.standard_monomials(codimension)
        equations = self._matrix([p._terms for p in probes], [{m: 1} for m in basis])
        try:
            solution = solve_exact(equations, values)
        except SingularSystemError as err:
            raise PairingError(f"singular pairing in codimension {codimension}: {err}") from err
        except InconsistentSystemError as err:
            raise PairingError(f"inconsistent pairing data in codimension {codimension}: {err}") from err
        return Polynomial._raw(self.ring.gens, {m: c for m, c in zip(basis, solution) if c})

    def _check(self, label: str, elements: Sequence[Polynomial], expected: int) -> None:
        """Refuse an element of another ring, or a nonzero one not of the expected degree."""
        gens = self.ring.gens
        for i, element in enumerate(elements):
            d = element.weighted_degree()
            if d is not None and d != expected:
                raise DegreeError(f"{label} {i} has degree {d}, expected {expected}")
            if element.gens != gens:
                raise GeneratorMismatchError("element belongs to a different ring")

    def _matrix(
        self, rows: Sequence[Mapping[Monomial, Fraction]], cols: Sequence[Mapping[Monomial, Fraction]]
    ) -> list[list[Fraction]]:
        """degree(row * col) for each row and column, given as term dicts, with nothing checked."""
        scaled_cols = [integer_terms(c) for c in cols]
        matrix = []
        for r in rows:
            row_terms, row_scale = integer_terms(r)
            row_scale *= self._denominator
            matrix.append(
                [
                    Fraction(self._pairing(row_terms, col_terms), row_scale * col_scale)
                    for col_terms, col_scale in scaled_cols
                ]
            )
        return matrix

    def _pairing(self, left: Mapping[Monomial, int], right: Mapping[Monomial, int]) -> int:
        """Sum of a * b * V[m + n] over the terms (m, a) of left and (n, b) of right."""
        values = self._values
        total = 0
        for m, a in left.items():
            for n, b in right.items():
                value = values.get(tuple(map(add, m, n)))
                if value is not None:
                    total += a * b * value
        return total


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
