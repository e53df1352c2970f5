"""Ring spec files: JSON in, validated rings out, canonical JSON back.

A spec file declares weighted generators, homogeneous relations (plus an
optional Chern identity genus whose relations are appended automatically),
an optional degree normalization, named classes, and expected data: the
Hilbert function, degree values, identities, and tables.  Rationals are
always strings like "-4103/144", never floats.  Validation is aggregated:
a bad file reports every problem it contains, each tagged with a JSON
pointer, in one RingSpecError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .errors import AvchowError, ParseError, RingSpecError
from .exprparse import parse_expression
from .poly import GeneratorSet, Polynomial, parse_rational
from .quotient import DegreeFunctional, QuotientRing, RingPresentation

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

TABLE_KINDS = ("pairing", "degrees", "pairing_vector", "relative_pairing")


class DegreeEntry(NamedTuple):
    """One row of a degrees table: a label, maybe an element, a value."""

    label: str
    element: Polynomial | None
    value: Fraction
    alt_value: Fraction | None
    checkable: bool


class DegreesTable(NamedTuple):
    id: str
    entries: tuple[DegreeEntry, ...]
    source: str
    kind: str = "degrees"


class PairingTable(NamedTuple):
    id: str
    codim: int
    row_labels: tuple[str, ...]
    rows: tuple[Polynomial, ...]
    col_labels: tuple[str, ...]
    cols: tuple[Polynomial, ...]
    values: tuple[tuple[Fraction, ...], ...]
    det_nonzero: bool
    source: str
    kind: str = "pairing"


class PairingVectorTable(NamedTuple):
    id: str
    class_name: str
    class_poly: Polynomial
    basis_labels: tuple[str, ...]
    basis: tuple[Polynomial, ...]
    values: tuple[Fraction, ...]
    divide_by: int
    solve: bool
    source: str
    kind: str = "pairing_vector"


class RelativePairingTable(NamedTuple):
    id: str
    row_labels: tuple[str, ...]
    rows: tuple[Polynomial, ...]
    col_labels: tuple[str, ...]
    cols: tuple[Polynomial, ...]
    values: tuple[tuple[Fraction, ...], ...]
    source: str
    kind: str = "relative_pairing"


class Identity(NamedTuple):
    id: str
    lhs: Polynomial
    rhs: Polynomial
    mode: str  # "class" or "polynomial"
    source: str


class DegreeExpectation(NamedTuple):
    expr_text: str
    element: Polynomial
    value: Fraction
    source: str


class LoadedRing(NamedTuple):
    """A ring spec file after parsing and validation."""

    name: str
    description: str
    source: str
    ring: QuotientRing
    functional: DegreeFunctional | None
    named: dict[str, Polynomial]
    listed_relations: tuple[Polynomial, ...]
    expected_hilbert: list[int] | None
    degrees: list[DegreeExpectation]
    identities: list[Identity]
    tables: list[Any]
    pairing_vectors: list[PairingVectorTable]
    raw: dict

    def parse(self, text: str) -> Polynomial:
        """Parse an expression over this ring, named classes included."""
        return parse_expression(text, self.ring.gens, self.named)

    def parse_class(self, text: str) -> Polynomial:
        """Parse an expression as a class of this ring, for input from outside.

        Products and powers drop their monomials above the socle degree as
        they are formed, so ``(x + y)^100000`` costs a few products.  The
        class, and so every normal form, is unchanged.
        """
        return parse_expression(text, self.ring.gens, self.named, self.ring.socle_degree)


class _Collector:
    """Accumulates (json_pointer, message) problems for one file."""

    def __init__(self) -> None:
        self.problems: list[tuple[str, str]] = []

    def add(self, pointer: str, message: str) -> None:
        self.problems.append((pointer, message))

    def raise_if_any(self) -> None:
        if self.problems:
            raise RingSpecError(self.problems)


def _read_source(source: str | Path | Mapping[str, Any]) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as err:
        raise RingSpecError([("", f"cannot read {path}: {err}")]) from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise RingSpecError([("", f"invalid JSON: {err}")]) from err
    if not isinstance(data, dict):
        raise RingSpecError([("", "top level must be a JSON object")])
    return data


def _get_str(data: Mapping[str, Any], key: str, problems: _Collector, default: str = "") -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        problems.add(f"/{key}", f"expected a string, got {type(value).__name__}")
        return default
    return value


def _parse_value(text: Any, pointer: str, problems: _Collector) -> Fraction | None:
    if not isinstance(text, str):
        problems.add(pointer, "rational values must be strings like \"-11/12\"")
        return None
    try:
        return parse_rational(text)
    except ValueError as err:
        problems.add(pointer, str(err))
        return None


def _parse_expr(
    text: Any,
    gens: GeneratorSet,
    named: Mapping[str, Polynomial],
    pointer: str,
    problems: _Collector,
    require_homogeneous: bool = True,
) -> Polynomial | None:
    if not isinstance(text, str):
        problems.add(pointer, "expressions must be strings")
        return None
    try:
        poly = parse_expression(text, gens, named)
    except ParseError as err:
        problems.add(pointer, str(err))
        return None
    if require_homogeneous and not poly.is_homogeneous:
        problems.add(pointer, f"expression {text!r} is not homogeneous")
        return None
    return poly


def _load_generators(data: Mapping[str, Any], problems: _Collector) -> GeneratorSet | None:
    listed = data.get("generators")
    if not isinstance(listed, list) or not listed:
        problems.add("/generators", "expected a non-empty list of {name, degree} objects")
        return None
    pairs: list[tuple[str, int]] = []
    seen: set[str] = set()
    ok = True
    for i, item in enumerate(listed):
        if not isinstance(item, Mapping):
            problems.add(f"/generators/{i}", "expected an object with name and degree")
            ok = False
            continue
        name = item.get("name")
        degree = item.get("degree")
        if not isinstance(name, str) or not _IDENTIFIER.match(name):
            problems.add(f"/generators/{i}/name", f"invalid generator name {name!r}")
            ok = False
            continue
        if name in seen:
            problems.add(f"/generators/{i}/name", f"duplicate generator {name!r}")
            ok = False
            continue
        seen.add(name)
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            problems.add(f"/generators/{i}/degree", f"degree must be a positive integer, got {degree!r}")
            ok = False
            continue
        pairs.append((name, degree))
    if not ok:
        return None
    return GeneratorSet(pairs)


def _load_tables(
    data: Mapping[str, Any],
    gens: GeneratorSet,
    named: Mapping[str, Polynomial],
    problems: _Collector,
) -> list[Any]:
    tables: list[Any] = []
    listed = data.get("tables", [])
    if not isinstance(listed, list):
        problems.add("/tables", "expected a list")
        return tables
    for i, item in enumerate(listed):
        pointer = f"/tables/{i}"
        if not isinstance(item, Mapping):
            problems.add(pointer, "expected an object")
            continue
        table_id = item.get("id")
        kind = item.get("kind")
        source = item.get("source", "")
        if not isinstance(table_id, str) or not table_id:
            problems.add(f"{pointer}/id", "table id must be a non-empty string")
            continue
        if kind not in TABLE_KINDS:
            problems.add(f"{pointer}/kind", f"unknown table kind {kind!r}")
            continue
        if kind == "degrees":
            entries: list[DegreeEntry] = []
            listed_entries = item.get("entries", [])
            if not isinstance(listed_entries, list) or not listed_entries:
                problems.add(f"{pointer}/entries", "expected a non-empty list")
                continue
            for j, entry in enumerate(listed_entries):
                entry_pointer = f"{pointer}/entries/{j}"
                if not isinstance(entry, Mapping):
                    problems.add(entry_pointer, "expected an object")
                    continue
                checkable = bool(entry.get("checkable", "expr" in entry))
                value = _parse_value(entry.get("value"), f"{entry_pointer}/value", problems)
                alt_value = None
                if "alt_value" in entry:
                    alt_value = _parse_value(entry["alt_value"], f"{entry_pointer}/alt_value", problems)
                element = None
                label = entry.get("label")
                if "expr" in entry:
                    element = _parse_expr(entry["expr"], gens, named, f"{entry_pointer}/expr", problems)
                    if label is None:
                        label = entry["expr"]
                if not isinstance(label, str) or not label:
                    problems.add(entry_pointer, "entry needs an expr or a label")
                    continue
                if checkable and element is None:
                    problems.add(entry_pointer, "checkable entry needs a parsable expr")
                    continue
                if value is None:
                    continue
                entries.append(DegreeEntry(label, element, value, alt_value, checkable))
            tables.append(DegreesTable(table_id, tuple(entries), source))
        elif kind in ("pairing", "relative_pairing"):
            row_labels = item.get("rows")
            col_labels = item.get("cols")
            values = item.get("values")
            if not isinstance(row_labels, list) or not row_labels:
                problems.add(f"{pointer}/rows", "expected a non-empty list of expressions")
                continue
            if not isinstance(col_labels, list) or not col_labels:
                problems.add(f"{pointer}/cols", "expected a non-empty list of expressions")
                continue
            rows = [
                _parse_expr(text, gens, named, f"{pointer}/rows/{j}", problems)
                for j, text in enumerate(row_labels)
            ]
            cols = [
                _parse_expr(text, gens, named, f"{pointer}/cols/{j}", problems)
                for j, text in enumerate(col_labels)
            ]
            if not isinstance(values, list) or len(values) != len(rows):
                problems.add(f"{pointer}/values", f"expected {len(rows)} rows of values")
                continue
            matrix: list[tuple[Fraction, ...]] = []
            dims_ok = True
            for r, row in enumerate(values):
                if not isinstance(row, list) or len(row) != len(cols):
                    problems.add(f"{pointer}/values/{r}", f"expected {len(cols)} entries")
                    dims_ok = False
                    continue
                parsed_row = [
                    _parse_value(cell, f"{pointer}/values/{r}/{c}", problems)
                    for c, cell in enumerate(row)
                ]
                if any(v is None for v in parsed_row):
                    dims_ok = False
                    continue
                matrix.append(tuple(parsed_row))
            if not dims_ok or any(p is None for p in rows) or any(p is None for p in cols):
                continue
            if kind == "pairing":
                codim = item.get("codim")
                if not isinstance(codim, int) or isinstance(codim, bool) or codim < 0:
                    problems.add(f"{pointer}/codim", "pairing table needs a non-negative integer codim")
                    continue
                tables.append(
                    PairingTable(
                        table_id,
                        codim,
                        tuple(row_labels),
                        tuple(rows),
                        tuple(col_labels),
                        tuple(cols),
                        tuple(matrix),
                        bool(item.get("det_nonzero", False)),
                        source,
                    )
                )
            else:
                tables.append(
                    RelativePairingTable(
                        table_id,
                        tuple(row_labels),
                        tuple(rows),
                        tuple(col_labels),
                        tuple(cols),
                        tuple(matrix),
                        source,
                    )
                )
        else:  # pairing_vector
            vector = _load_pairing_vector(item, pointer, gens, named, problems)
            if vector is not None:
                tables.append(vector)
    return tables


def _load_pairing_vector(
    item: Mapping[str, Any],
    pointer: str,
    gens: GeneratorSet,
    named: Mapping[str, Polynomial],
    problems: _Collector,
) -> PairingVectorTable | None:
    table_id = item.get("id")
    class_name = item.get("class")
    if not isinstance(table_id, str) or not table_id:
        problems.add(f"{pointer}/id", "needs a non-empty id")
        return None
    if not isinstance(class_name, str):
        problems.add(f"{pointer}/class", "needs the name of the paired class")
        return None
    class_poly = _parse_expr(class_name, gens, named, f"{pointer}/class", problems)
    basis_labels = item.get("basis")
    values = item.get("values")
    if not isinstance(basis_labels, list) or not basis_labels:
        problems.add(f"{pointer}/basis", "expected a non-empty list of expressions")
        return None
    basis = [
        _parse_expr(text, gens, named, f"{pointer}/basis/{j}", problems)
        for j, text in enumerate(basis_labels)
    ]
    if not isinstance(values, list) or len(values) != len(basis):
        problems.add(f"{pointer}/values", f"expected {len(basis)} values")
        return None
    parsed = [_parse_value(v, f"{pointer}/values/{j}", problems) for j, v in enumerate(values)]
    divide_by = item.get("divide_by", 1)
    if not isinstance(divide_by, int) or isinstance(divide_by, bool) or divide_by == 0:
        problems.add(f"{pointer}/divide_by", "divide_by must be a nonzero integer")
        return None
    if class_poly is None or any(b is None for b in basis) or any(v is None for v in parsed):
        return None
    return PairingVectorTable(
        table_id,
        class_name,
        class_poly,
        tuple(basis_labels),
        tuple(basis),
        tuple(parsed),
        divide_by,
        bool(item.get("solve", False)),
        item.get("source", ""),
    )


def load_ring_spec(source: str | Path | Mapping[str, Any]) -> LoadedRing:
    """Load and validate one ring spec; raises RingSpecError with every problem."""
    data = _read_source(source)
    problems = _Collector()

    name = _get_str(data, "name", problems)
    if not name:
        problems.add("/name", "ring needs a non-empty name")
    description = _get_str(data, "description", problems)
    file_source = _get_str(data, "source", problems)

    gens = _load_generators(data, problems)
    if gens is None:
        problems.raise_if_any()
        raise AssertionError("unreachable")

    chern_genus = data.get("chern_identity_genus")
    if chern_genus is not None:
        if not isinstance(chern_genus, int) or isinstance(chern_genus, bool) or chern_genus < 1:
            problems.add("/chern_identity_genus", f"must be a positive integer, got {chern_genus!r}")
            chern_genus = None
        else:
            for i in range(1, chern_genus + 1):
                lam = f"lambda{i}"
                if lam not in gens.names:
                    problems.add("/chern_identity_genus", f"generator {lam} missing for genus {chern_genus}")
                    chern_genus = None
                    break
                elif gens.weights[gens.index(lam)] != i:
                    problems.add("/chern_identity_genus", f"generator {lam} must have degree {i}")
                    chern_genus = None
                    break

    listed_relations: list[Polynomial] = []
    relations_raw = data.get("relations", [])
    if not isinstance(relations_raw, list):
        problems.add("/relations", "expected a list of expression strings")
        relations_raw = []
    for i, text in enumerate(relations_raw):
        poly = _parse_expr(text, gens, {}, f"/relations/{i}", problems)
        if poly is not None:
            listed_relations.append(poly)

    named: dict[str, Polynomial] = {}
    named_raw = data.get("named_classes", {})
    if not isinstance(named_raw, Mapping):
        problems.add("/named_classes", "expected an object of name -> expression")
        named_raw = {}
    for class_name, text in named_raw.items():
        pointer = f"/named_classes/{class_name}"
        if not _IDENTIFIER.match(class_name):
            problems.add(pointer, f"invalid class name {class_name!r}")
            continue
        if class_name in gens.names:
            problems.add(pointer, f"named class {class_name!r} shadows a generator")
            continue
        poly = _parse_expr(text, gens, named, pointer, problems)
        if poly is not None:
            named[class_name] = poly

    problems.raise_if_any()

    ring = QuotientRing(RingPresentation(name, gens, listed_relations, chern_genus))

    functional = None
    normalization = data.get("normalization")
    if normalization is not None:
        if not isinstance(normalization, Mapping):
            problems.add("/normalization", "expected an object with element and value")
        else:
            element = _parse_expr(normalization.get("element"), gens, named, "/normalization/element", problems)
            value = _parse_value(normalization.get("value"), "/normalization/value", problems)
            if element is not None and value is not None:
                try:
                    functional = DegreeFunctional(ring, element, value)
                except AvchowError as err:
                    problems.add("/normalization", str(err))

    identities: list[Identity] = []
    identities_raw = data.get("identities", [])
    if not isinstance(identities_raw, list):
        problems.add("/identities", "expected a list")
        identities_raw = []
    for i, item in enumerate(identities_raw):
        pointer = f"/identities/{i}"
        if not isinstance(item, Mapping):
            problems.add(pointer, "expected an object")
            continue
        identity_id = item.get("id")
        if not isinstance(identity_id, str) or not identity_id:
            problems.add(f"{pointer}/id", "identity needs a non-empty id")
            continue
        mode = item.get("mode", "class")
        if mode not in ("class", "polynomial"):
            problems.add(f"{pointer}/mode", f"unknown mode {mode!r}")
            continue
        lhs = _parse_expr(item.get("lhs"), gens, named, f"{pointer}/lhs", problems)
        rhs = _parse_expr(item.get("rhs"), gens, named, f"{pointer}/rhs", problems)
        if lhs is None or rhs is None:
            continue
        identities.append(Identity(identity_id, lhs, rhs, mode, item.get("source", "")))

    expected_hilbert: list[int] | None = None
    degrees: list[DegreeExpectation] = []
    expected_raw = data.get("expected", {})
    if not isinstance(expected_raw, Mapping):
        problems.add("/expected", "expected an object")
        expected_raw = {}
    if "hilbert" in expected_raw:
        hilbert = expected_raw["hilbert"]
        if not isinstance(hilbert, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in hilbert
        ):
            problems.add("/expected/hilbert", "expected a list of non-negative integers")
        else:
            expected_hilbert = list(hilbert)
    degrees_raw = expected_raw.get("degrees", [])
    if not isinstance(degrees_raw, list):
        problems.add("/expected/degrees", "expected a list")
        degrees_raw = []
    for i, item in enumerate(degrees_raw):
        pointer = f"/expected/degrees/{i}"
        if not isinstance(item, Mapping):
            problems.add(pointer, "expected an object")
            continue
        element = _parse_expr(item.get("expr"), gens, named, f"{pointer}/expr", problems)
        value = _parse_value(item.get("value"), f"{pointer}/value", problems)
        if element is None or value is None:
            continue
        degrees.append(DegreeExpectation(item.get("expr"), element, value, item.get("source", "")))

    tables = _load_tables(data, gens, named, problems)
    pairing_vectors: list[PairingVectorTable] = []
    vectors_raw = data.get("pairing_vectors", [])
    if not isinstance(vectors_raw, list):
        problems.add("/pairing_vectors", "expected a list")
        vectors_raw = []
    for i, item in enumerate(vectors_raw):
        pointer = f"/pairing_vectors/{i}"
        if not isinstance(item, Mapping):
            problems.add(pointer, "expected an object")
            continue
        vector = _load_pairing_vector(item, pointer, gens, named, problems)
        if vector is not None:
            pairing_vectors.append(vector)

    problems.raise_if_any()

    return LoadedRing(
        name=name,
        description=description,
        source=file_source,
        ring=ring,
        functional=functional,
        named=named,
        listed_relations=tuple(listed_relations),
        expected_hilbert=expected_hilbert,
        degrees=degrees,
        identities=identities,
        tables=tables,
        pairing_vectors=pairing_vectors,
        raw=data,
    )
