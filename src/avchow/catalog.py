"""Built-in catalog of rings, pushforward tables, and the check suite.

The catalog owns a fixed family of ring presentations shipped as JSON
data files, plus two auxiliary data sets: a tabulated pushforward of
boundary classes into the genus-3 ring, and a pair of presentation
equivalences.  From these it builds one flat list of named checks; each
check recomputes a stored value from the presentations alone and
compares.  Every stored value that is compared with ``==`` (a table entry,
a Hilbert function, a degree, an identity, a recovered class, a
pushforward, a level count) is a ``Cell``: its key, citation, stored value
and recompute, turned into a check by one function, ``_cell_checks``.
Every table kind has one function that lists its cells; the checks and the
``tables`` command both read them.  The few checks whose verdict is not
``==`` (determinants, the support of a tabulated image, equivalences, a
non-integral count, the level identity) keep their own evaluations.
``run_verification`` filters the checks by scope and runs them.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from typing import Callable, NamedTuple

from .errors import DegreeError, UnknownScopeError
from .exprparse import parse_expression
from .levels import cusp_count_mu, group_order_gamma, verify_level_identity
from .linalg import det_exact
from .poly import GeneratorSet, Polynomial
from .pushforward import PushforwardRule, RelativeRing, TabulatedPushforward
from .quotient import DegreeFunctional, QuotientRing, presentations_equivalent
from .ringspec import DegreesTable, LoadedRing, PairingTable, PairingVectorTable, load_ring_spec
from .verify import FAIL, PASS, SKIPPED, Check, VerificationReport, run_checks

RING_NAMES = (
    "a1_tilde",
    "a2_tilde",
    "a2_tilde_2gen",
    "a2_partial",
    "a3_tilde",
    "a3_taut",
    "a3_partial",
    "lambda1_quartic",
    "x2_tilde",
)

GROUP_NAMES = ("levels", "torelli", "equivalences")


def _read_data(filename: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data", filename), encoding="utf-8") as file:
        return json.load(file)


class TorelliTable(NamedTuple):
    """Tabulated pushforward plus the raw data it was read from."""

    push: TabulatedPushforward
    symbols: GeneratorSet
    raw: dict

    def parse_combination(self, text: str) -> Polynomial:
        """Parse a linear combination of the tabulated symbols."""
        return parse_expression(text, self.symbols)


class FiberedSurface(NamedTuple):
    """A relative ring together with its integration rule and base data."""

    relative: RelativeRing
    rule: PushforwardRule
    base: LoadedRing
    combined: LoadedRing

    def degree(self, element: Polynomial) -> Fraction:
        """Degree of the pushforward of ``element`` to the base."""
        return self.relative.relative_degree(element, self.base.functional, self.rule)


class Cell(NamedTuple):
    """One stored value: where it sits, the value, and its recompute.

    The value is a number (a table entry, a degree, a count), a list (a
    Hilbert function) or a class (an identity side, a recovered class, a
    pushforward), and the check is ``recompute() == expected``.
    ``recompute`` is None for a value that is recorded but cannot be
    expressed in the ring generators.  ``note`` follows the stored value
    wherever it is shown.
    """

    key: str
    citation: str
    expected: object
    recompute: Callable[[], object] | None
    note: str = ""

    @property
    def shown(self) -> str:
        return f"{self.expected}{self.note}"


class Catalog:
    """Lazy access to the built-in rings and check suite."""

    def __init__(self):
        self._rings: dict[str, LoadedRing] = {}
        self._torelli: TorelliTable | None = None
        self._surface: FiberedSurface | None = None
        self._equivalences: dict | None = None
        self._checks: list[Check] | None = None

    # ------------------------------------------------------------------
    # data access

    def ring(self, name: str) -> LoadedRing:
        """Load (once) and return a catalog ring by name."""
        if name not in self._rings:
            if name not in RING_NAMES:
                raise KeyError(f"unknown catalog ring {name!r}")
            self._rings[name] = load_ring_spec(_read_data(name + ".json"))
        return self._rings[name]

    def torelli(self) -> TorelliTable:
        """The tabulated boundary pushforward into the genus-3 ring."""
        if self._torelli is None:
            raw = _read_data("torelli.json")
            target = self.ring(raw["target"])
            symbols = GeneratorSet(
                (entry["name"], entry["codim"]) for entry in raw["symbols"]
            )
            images = {
                entry["name"]: target.parse(entry["image"])
                for entry in raw["symbols"]
            }
            push = TabulatedPushforward(
                symbols,
                target.ring,
                images,
                stack_degree=raw.get("stack_degree", 1),
            )
            self._torelli = TorelliTable(push=push, symbols=symbols, raw=raw)
        return self._torelli

    def fibered_surface(self) -> FiberedSurface:
        """The rank-2 bundle over the genus-2 base, with its integration rule."""
        if self._surface is None:
            combined = self.ring("x2_tilde")
            fib = combined.raw["fibration"]
            base = self.ring(fib["base"])
            relative = RelativeRing(base.ring, combined.ring)
            rule = PushforwardRule(*(parse_expression(fib["rule"][slot], base.ring.gens) for slot in ("one", "t", "s")))
            self._surface = FiberedSurface(
                relative=relative, rule=rule, base=base, combined=combined
            )
        return self._surface

    def equivalences(self) -> dict:
        if self._equivalences is None:
            self._equivalences = _read_data("equivalences.json")
        return self._equivalences

    # ------------------------------------------------------------------
    # table cells, shared by the checks and the ``tables`` command

    def table_cells(self, loaded: LoadedRing, table) -> list[Cell]:
        """The cells of one of a ring's tables, in row-major order."""
        if table.kind == "pairing":
            return _grid_cells(table, partial(_degree, loaded.functional))
        if table.kind == "relative_pairing":
            return _grid_cells(table, self.fibered_surface().degree)
        if table.kind == "degrees":
            return _degree_entry_cells(table, loaded.functional)
        # ringspec builds only the four kinds, so the last is a pairing vector.
        return _vector_cells(table, loaded.functional)

    def table_4a_cells(self) -> list[Cell]:
        """Table 4a: coefficients of half of each tabulated image, by symbol."""
        data = self.torelli()
        table = data.raw["table_4a"]
        basis = _basis_monomials(table["basis"], data.push.target.gens)
        return [
            Cell(
                f"{row['symbol']}:{label}",
                f"{table['source']}, {row['symbol']} against {label}",
                Fraction(value),
                partial(_half_image_coefficient, data.push, row["symbol"], monomial),
            )
            for row in table["rows"]
            for label, monomial, value in zip(table["basis"], basis, row["values"])
        ]

    # ------------------------------------------------------------------
    # scopes and the check suite

    def table_ids(self) -> list[str]:
        ids = []
        for name in RING_NAMES:
            for table in self.ring(name).tables:
                ids.append(table.id)
        ids.append("4a")
        return sorted(ids)

    def scopes(self) -> list[str]:
        """Every scope accepted by run_verification."""
        scopes = ["all"]
        scopes.extend(RING_NAMES)
        scopes.extend(GROUP_NAMES)
        scopes.extend("table:" + tid for tid in self.table_ids())
        return scopes

    def checks(self) -> list[Check]:
        """The full check suite, built once and cached."""
        if self._checks is None:
            built: list[Check] = []
            for name in RING_NAMES:
                built.extend(self._ring_checks(self.ring(name)))
            built.extend(self._surface_checks())
            built.extend(self._torelli_checks())
            built.extend(self._equivalence_checks())
            built.extend(self._level_checks())
            counts = Counter(check.id for check in built)
            duplicates = [cid for cid, n in counts.items() if n > 1]
            if duplicates:
                raise ValueError(f"duplicate check ids: {duplicates}")
            self._checks = built
        return self._checks

    def select(self, scope: str = "all") -> list[Check]:
        """Checks whose group or parent matches the scope."""
        checks = self.checks()
        if scope in ("all", None, ""):
            return list(checks)
        normalized = scope
        if "table:" + scope in self.scopes():
            normalized = "table:" + scope
        if normalized not in self.scopes():
            known = ", ".join(self.scopes())
            raise UnknownScopeError(
                f"unknown scope {scope!r}; known scopes: {known}"
            )
        return [
            check
            for check in checks
            if check.group == normalized or check.parent == normalized
        ]

    def run_verification(self, scope: str = "all") -> VerificationReport:
        """Run every check matching the scope and return the report."""
        return run_checks(self.select(scope))

    # ------------------------------------------------------------------
    # check builders

    def _ring_checks(self, loaded: LoadedRing) -> list[Check]:
        name, ring, functional = loaded.name, loaded.ring, loaded.functional
        cells = []
        if loaded.expected_hilbert is not None:
            expected = list(loaded.expected_hilbert)
            hilbert = partial(ring.hilbert_function, len(expected) - 1)
            cells.append(Cell("hilbert", f"{loaded.source}, dimension count", expected, hilbert))
        if functional is not None:
            reference = partial(functional.degree, functional.reference_element)
            citation = f"{loaded.source}, degree normalization"
            cells.append(Cell("normalization", citation, functional.reference_value, reference))
        for ident in loaded.identities:
            expected = _class_of(ring, ident.mode, ident.rhs)
            lhs = partial(_class_of, ring, ident.mode, ident.lhs)
            cells.append(Cell(f"identity:{ident.id}", ident.source, expected, lhs))
        for entry in loaded.degrees:
            degree = partial(_degree, functional, entry.element)
            cells.append(Cell(f"degree:{entry.expr_text}", entry.source, entry.value, degree))
        vectors = loaded.pairing_vectors + [
            table for table in loaded.tables if table.kind == "pairing_vector"
        ]
        for vector in vectors:
            if vector.solve:
                citation = f"{vector.source}, recovered from its pairings"
                expected = ring.normal_form(vector.class_poly)
                solved = partial(_solved_class, ring, functional, vector)
                cells.append(Cell(f"solve:{vector.class_name}", citation, expected, solved))
        checks = _cell_checks(cells, name, name)

        for vector in loaded.pairing_vectors:
            cells = _vector_cells(vector, functional)
            checks.extend(_cell_checks(cells, f"{name}:pairings:{vector.id}", name))

        for table in loaded.tables:
            group = f"table:{table.id}"
            cells = self.table_cells(loaded, table)
            checks.extend(_cell_checks(cells, group, group, parent=name))
            if table.kind == "pairing":
                checks.append(
                    Check(
                        id=f"{name}:det:{table.id}",
                        group=name,
                        citation=f"{table.source}, determinant",
                        evaluate=partial(_check_determinant, functional, table),
                    )
                )
        return checks

    def _surface_checks(self) -> list[Check]:
        """Each stored pushforward, in base normal form, against the fibre integration."""
        surface = self.fibered_surface()
        combined, base = surface.combined, surface.base
        cells = []
        for case in combined.raw["fibration"].get("pushforwards", []):
            expected = base.ring.normal_form(base.parse(case["expected"]))
            pushed = partial(surface.relative.pushforward, combined.parse(case["expr"]), surface.rule)
            cells.append(Cell(f"push:{case['expr']}", case["source"], expected, pushed))
        return _cell_checks(cells, combined.name, combined.name)

    def _torelli_checks(self) -> list[Check]:
        """Table 4a, then one check of push(combo) + plus against expected per identity."""
        data = self.torelli()
        push = data.push
        target_loaded = self.ring(data.raw["target"])
        target = target_loaded.ring

        table = data.raw["table_4a"]
        group = "table:4a"
        checks = _cell_checks(self.table_4a_cells(), group, group, parent="torelli")
        basis = frozenset(_basis_monomials(table["basis"], target.gens))
        for row in table["rows"]:
            symbol = row["symbol"]
            checks.append(
                Check(
                    id=f"{group}:{symbol}:support",
                    group=group,
                    parent="torelli",
                    citation=f"{table['source']}, {symbol} support",
                    evaluate=partial(_check_half_image_support, push, symbol, basis),
                )
            )

        cells = []
        for ident in data.raw["identities"]:
            pushed = push.push_combination(data.parse_combination(ident["combo"]))
            lhs = pushed + target_loaded.parse(ident.get("plus", "0"))
            expected = _class_of(target, ident["mode"], target_loaded.parse(ident["expected"]))
            recompute = partial(_class_of, target, ident["mode"], lhs)
            cells.append(Cell(ident["id"], ident["source"], expected, recompute))
        return checks + _cell_checks(cells, "torelli", "torelli")

    def _equivalence_checks(self) -> list[Check]:
        checks = []
        for pair in self.equivalences()["pairs"]:
            first = self.ring(pair["a"])
            second = self.ring(pair["b"])
            forward = {
                name: parse_expression(text, second.ring.gens)
                for name, text in pair["forward"].items()
            }
            backward = {
                name: parse_expression(text, first.ring.gens)
                for name, text in pair["backward"].items()
            }
            checks.append(
                Check(
                    id=f"equivalences:{pair['id']}",
                    group="equivalences",
                    citation=pair["source"],
                    evaluate=partial(
                        _check_equivalence, first.ring, second.ring, forward, backward
                    ),
                )
            )
        return checks

    def _level_checks(self) -> list[Check]:
        orders = "level structure counts, group order"
        cusps = "level structure counts, boundary components"
        cells = [
            Cell(f"gamma:g{genus}:l{level}", orders, expected, partial(group_order_gamma, genus, level))
            for genus, level, expected in ((1, 3, 24), (2, 3, 51840), (3, 1, 1))
        ] + [
            Cell(f"mu:g{genus}:l{level}:{kind}", cusps, Fraction(n), partial(cusp_count_mu, genus, level, kind))
            for genus, level, kind, n in (
                (1, 3, "single-factor", 4), (1, 3, "as-printed", 4), (2, 3, "single-factor", 40)
            )
        ]
        checks = _cell_checks(cells, "levels", "levels")
        checks.append(
            Check(
                id="levels:mu:g2:l3:as-printed",
                group="levels",
                citation=cusps,
                evaluate=partial(_check_mu_non_integer, 2, 3),
            )
        )
        for level in (3, 4, 5, 6, 7):
            checks.append(
                Check(
                    id=f"levels:identity:l{level}",
                    group="levels",
                    citation="level structure counts, compatibility identity",
                    evaluate=partial(_check_level_identity, level),
                )
            )
        return checks


# ----------------------------------------------------------------------
# cells and their recomputes


def _degree(functional: DegreeFunctional | None, element: Polynomial) -> Fraction:
    if functional is None:
        raise DegreeError("no degree functional on this ring")
    return functional.degree(element)


def _grid_cells(table: PairingTable, degree: Callable[[Polynomial], Fraction]) -> list[Cell]:
    """Pairing-table cells: the degree of each row class times each column class."""
    return [
        Cell(
            f"r{i}c{j}",
            f"{table.source}, row {row_label}, col {col_label}",
            table.values[i][j],
            partial(degree, row * col),
        )
        for i, (row_label, row) in enumerate(zip(table.row_labels, table.rows))
        for j, (col_label, col) in enumerate(zip(table.col_labels, table.cols))
    ]


def _degree_entry_cells(
    table: DegreesTable, functional: DegreeFunctional | None
) -> list[Cell]:
    """Degrees-table cells; an entry outside the ring generators is not recomputed."""
    return [
        Cell(
            entry.label,
            f"{table.source}, {entry.label}",
            entry.value,
            partial(_degree, functional, entry.element) if entry.checkable else None,
            "" if entry.alt_value is None else f" (alternate reading {entry.alt_value})",
        )
        for entry in table.entries
    ]


def _vector_cells(
    vector: PairingVectorTable, functional: DegreeFunctional | None
) -> list[Cell]:
    """Pairings of one class against a basis; stored values are divided by ``divide_by``."""
    return [
        Cell(
            label,
            f"{vector.source}, against {label}",
            value / vector.divide_by,
            partial(_degree, functional, vector.class_poly * element),
        )
        for label, element, value in zip(vector.basis_labels, vector.basis, vector.values)
    ]


def _basis_monomials(labels: list[str], gens: GeneratorSet) -> list[tuple]:
    """Exponent vectors of the monic monomials the labels name."""
    monomials = []
    for label in labels:
        ((monomial, coeff),) = parse_expression(label, gens).terms()
        if coeff != 1:
            raise ValueError(f"basis entry {label!r} is not monic")
        monomials.append(monomial)
    return monomials


def _half_image_coefficient(
    push: TabulatedPushforward, symbol: str, monomial: tuple
) -> Fraction:
    return dict((push.image(symbol) / push.stack_degree).terms()).get(monomial, Fraction(0))


def _class_of(ring: QuotientRing, mode: str, p: Polynomial) -> Polynomial:
    """An identity side as compared: the literal polynomial, or its normal form in ``class`` mode."""
    return p if mode == "polynomial" else ring.normal_form(p)


def _solved_class(
    ring: QuotientRing, functional: DegreeFunctional, vector: PairingVectorTable
) -> Polynomial:
    """The class recovered from its stored pairings against the basis, in normal form."""
    values = [value / vector.divide_by for value in vector.values]
    solved = functional.solve_class(vector.class_poly.weighted_degree(), list(vector.basis), values)
    return ring.normal_form(solved)


# ----------------------------------------------------------------------
# check evaluations
#
# Each returns the triple (expected, computed, status); the builders above
# bind their arguments with ``partial``.  Every Cell is judged by
# ``_compare``; the rest are the checks whose verdict is not ``==``.


def _cell_checks(
    cells: list[Cell], prefix: str, group: str, parent: str | None = None
) -> list[Check]:
    return [
        Check(
            id=f"{prefix}:{cell.key}",
            group=group,
            parent=parent,
            citation=cell.citation,
            evaluate=partial(_compare, cell),
        )
        for cell in cells
    ]


def _compare(cell: Cell):
    """Recompute a stored value and compare it with ``==``."""
    if cell.recompute is None:
        return cell.shown, "recorded only; not expressible in the ring generators", SKIPPED
    computed = cell.recompute()
    return cell.shown, str(computed), PASS if computed == cell.expected else FAIL


def _check_determinant(functional: DegreeFunctional, table: PairingTable):
    det = det_exact(functional.pairing_matrix(table.codim, table.rows, table.cols))
    if table.det_nonzero:
        return "nonzero determinant", str(det), PASS if det != 0 else FAIL
    return "determinant recorded", str(det), PASS


def _check_half_image_support(
    push: TabulatedPushforward, symbol: str, allowed: frozenset
):
    half = push.image(symbol) / push.stack_degree
    extra = [m for m, _ in half.terms() if m not in allowed]
    if not extra:
        return "support within the basis columns", "no stray monomials", PASS
    names = ", ".join(str(half.gens.monomial(m, Fraction(1))) for m in extra)
    return "support within the basis columns", f"stray monomials: {names}", FAIL


def _check_equivalence(
    first: QuotientRing, second: QuotientRing, forward: dict, backward: dict
):
    equal = presentations_equivalent(first, second, forward, backward)
    return "equivalent presentations", "equivalent" if equal else "not equivalent", (
        PASS if equal else FAIL
    )


def _check_mu_non_integer(genus: int, level: int):
    computed = cusp_count_mu(genus, level, "as-printed")
    if computed.denominator == 1:
        return "a non-integral value, flagged but not asserted", str(computed), FAIL
    return (
        "a non-integral value, flagged but not asserted",
        f"{computed} (not an integer; recorded, not asserted)",
        SKIPPED,
    )


def _check_level_identity(level: int):
    holds = verify_level_identity(level)
    return "identity holds", "holds" if holds else "violated", PASS if holds else FAIL


@cache
def default_catalog() -> Catalog:
    """Shared catalog instance used by the command line interface."""
    return Catalog()
