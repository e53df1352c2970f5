"""Ring spec files: JSON in, validated rings out.

A spec file (UTF-8 JSON) declares weighted generators, homogeneous
relations (plus an optional Chern identity genus, whose relations the
loader appends to the listed ones), an optional degree normalization,
named classes, and expected data: the Hilbert function, degree values,
identities, tables and pairing vectors.  Rationals are always strings like
"-4103/144", never floats; flags are JSON booleans.  A fact the entries
already state is not declared again: a degrees-table entry is recomputed
exactly when it has an expression, and a pairing grid's codimension is
the common degree of its rows.

Every field is read by one reader per JSON shape (``_Collector.text``,
``integer``, ``flag``, ``items``, ``objects``, ``rational``, ``expr`` and
their list forms), which reports a bad value as a problem at its JSON
pointer.  Validation is aggregated: a bad file reports every problem it
contains in one RingSpecError.  Problems come in the order the fields
are read: name, description, source and generators (a bad generator ends
the checks there), Chern genus, relations and named classes; then, once
the ring is built, the file's own keys, normalization, identities,
expected data, tables and pairing vectors.  The items of a list come in
order, and within an item a bad field that the rest depends on (an id, a
kind, a list's shape) ends the item's checks.  An object's keys are
checked before its fields (a table's once its id and kind are read,
since its keys depend on its kind): each key the format does not know
is one problem at its own pointer, such as ``unknown key 'det_nonzer'``,
and the object's other checks go on.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from .errors import AvchowError, ParseError, RingSpecError
from .exprparse import parse_expression
from .poly import GeneratorSet, Polynomial, expand_chern_identity, parse_rational
from .quotient import DegreeFunctional, QuotientRing, RingPresentation

_is_identifier = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch

# A spec file is read up to this many characters, and a longer one is
# refused, so that a path such as /dev/zero cannot be read without end.
# The largest catalog spec has about 7,600 characters.
MAX_SPEC_CHARS = 1_000_000

# The keys each object may have; any other key is reported.  The file's
# "fibration" is read by ``Catalog.fibered_surface``, and a degrees table's
# "scale_note" is a note for the reader, checked as a string.
_SPEC_KEYS = frozenset(
    {
        "name", "description", "source", "generators", "chern_identity_genus", "relations", "named_classes",
        "normalization", "identities", "expected", "tables", "pairing_vectors", "fibration",
    }
)
_GENERATOR_KEYS = frozenset({"name", "degree"})
_NORMALIZATION_KEYS = frozenset({"element", "value"})
_IDENTITY_KEYS = frozenset({"id", "lhs", "rhs", "mode", "source"})
_EXPECTED_KEYS = frozenset({"hilbert", "degrees"})
_EXPECTED_DEGREE_KEYS = frozenset({"expr", "value", "source"})
_ENTRY_KEYS = frozenset({"label", "expr", "value", "alt_value"})
_VECTOR_KEYS = frozenset({"id", "class", "basis", "values", "divide_by", "solve", "source"})
_GRID_KEYS = frozenset({"id", "kind", "rows", "cols", "values", "source"})
_TABLE_KEYS = {
    "pairing": _GRID_KEYS | {"det_nonzero"},
    "degrees": frozenset({"id", "kind", "entries", "source", "scale_note"}),
    "pairing_vector": _VECTOR_KEYS | {"kind"},
    "relative_pairing": _GRID_KEYS,
}


class DegreeEntry(NamedTuple):
    """One row of a degrees table: a label, maybe an element, a value."""

    label: str
    element: Polynomial | None
    value: Fraction
    alt_value: Fraction | None

    @property
    def checkable(self) -> bool:
        """Whether the entry is recomputed: it is when it has an element."""
        return self.element is not None


class DegreesTable(NamedTuple):
    id: str
    entries: tuple[DegreeEntry, ...]
    source: str
    kind: str = "degrees"


class PairingTable(NamedTuple):
    """Stored degrees of row class times column class; a "relative_pairing" is integrated over the fibre.

    ``codim`` is the rows' common degree, and ``det_nonzero`` is read for a "pairing" only.
    """

    id: str
    codim: int
    row_labels: tuple[str, ...]
    rows: tuple[Polynomial, ...]
    col_labels: tuple[str, ...]
    cols: tuple[Polynomial, ...]
    values: tuple[tuple[Fraction, ...], ...]
    det_nonzero: bool
    source: str
    kind: str


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
        """Parse an expression as a class of this ring, for a normal form of input from outside.

        Products and powers keep only the monomials of the ring's
        normal-form table as they are formed, so ``(x + y)^100000`` costs a
        few products.  A monomial missing from the table has normal form 0,
        so the class, and every normal form, is unchanged, but the degree of
        the input is lost: a power above the socle degree reads as 0.  Input
        whose degree is checked (a degree, a pairing, a probe) is read with
        ``parse``.
        """
        return parse_expression(text, self.ring.gens, self.named, self.ring._nf_cache)


class _Collector:
    """Accumulates (json_pointer, message) problems for one file, and reads fields.

    Each reader takes a JSON value and its pointer.  It returns what it
    read, or adds one problem at that pointer and returns None; the list
    readers report each bad item at the item's pointer.  The loaders build
    their records from whatever the readers return: a record holding such
    a None is never seen, because every problem is raised before a ring is
    returned.  ``expr`` parses over ``gens`` and the classes named so far.
    """

    def __init__(self) -> None:
        self.problems: list[tuple[str, str]] = []
        self.gens: GeneratorSet | None = None
        self.named: dict[str, Polynomial] = {}

    def add(self, pointer: str, message: str) -> None:
        self.problems.append((pointer, message))

    def raise_if_any(self) -> None:
        if self.problems:
            raise RingSpecError(self.problems)

    def known_keys(self, item: Mapping[str, Any], pointer: str, keys: frozenset) -> None:
        """Report each key of the object ``item`` that is not in ``keys``, at its own pointer."""
        for key in item:
            if key not in keys:
                self.add(_pointer(pointer, key), f"unknown key {key!r}")

    def check(self, ok: Any, pointer: str, message: str) -> bool:
        if not ok:
            self.add(pointer, message)
        return bool(ok)

    def integer(self, value: Any, pointer: str, ok: Callable[[int], bool], message: str) -> int | None:
        """An int (not a bool) for which ``ok`` holds; ``message`` is formatted with the value."""
        if isinstance(value, int) and not isinstance(value, bool) and ok(value):
            return value
        self.add(pointer, message.format(value))
        return None

    def flag(self, value: Any, pointer: str) -> bool | None:
        if isinstance(value, bool):
            return value
        self.add(pointer, "expected true or false")
        return None

    def text(self, value: Any, pointer: str, message: str = "", empty: bool = False) -> str | None:
        """A string, non-empty unless ``empty``."""
        if isinstance(value, str) and (empty or value):
            return value
        self.add(pointer, message or f"expected a string, got {type(value).__name__}")
        return None

    def items(self, value: Any, pointer: str, message: str = "expected a list", nonempty: bool = False) -> list | None:
        if isinstance(value, list) and (value or not nonempty):
            return value
        self.add(pointer, message)
        return None

    def objects(
        self,
        value: Any,
        pointer: str,
        message: str = "expected a list",
        nonempty: bool = False,
        item_message: str = "expected an object",
    ) -> Iterator[tuple[str, Mapping[str, Any]]]:
        """Yield (pointer, item) for each object of a list, reporting the items that are not.

        Lazy, so the problems of one item come before those of the next.
        """
        for i, item in enumerate(self.items(value, pointer, message, nonempty) or ()):
            item_pointer = f"{pointer}/{i}"
            if self.check(isinstance(item, Mapping), item_pointer, item_message):
                yield item_pointer, item

    def rational(self, value: Any, pointer: str) -> Fraction | None:
        if self.check(isinstance(value, str), pointer, "rational values must be strings like \"-11/12\""):
            try:
                return parse_rational(value)
            except ValueError as err:
                self.add(pointer, str(err))
        return None

    def rationals(self, value: Any, count: int, pointer: str, message: str) -> tuple | None:
        """A list of ``count`` rationals; a bad one is reported and left as None."""
        if not isinstance(value, list) or len(value) != count:
            self.add(pointer, message)
            return None
        return tuple([self.rational(cell, f"{pointer}/{i}") for i, cell in enumerate(value)])

    def expr(self, value: Any, pointer: str) -> Polynomial | None:
        """A homogeneous expression."""
        if self.check(isinstance(value, str), pointer, "expressions must be strings"):
            try:
                poly = parse_expression(value, self.gens, self.named)
            except ParseError as err:
                self.add(pointer, str(err))
                return None
            if self.check(poly.is_homogeneous, pointer, f"expression {value!r} is not homogeneous"):
                return poly
        return None

    def exprs(self, values: list, pointer: str) -> tuple:
        """Every expression of a list; a bad one is reported and left as None."""
        return tuple([self.expr(text, f"{pointer}/{i}") for i, text in enumerate(values)])


def _pointer(parent: str, key: Any) -> str:
    """The pointer of an object's ``key``, escaped as RFC 6901 asks: '~' as '~0', then '/' as '~1'."""
    return f"{parent}/" + str(key).replace("~", "~0").replace("/", "~1")


def _read_source(source: str | os.PathLike | Mapping[str, Any]) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    try:
        # fspath refuses an int, which open would take for a file descriptor.
        with open(os.fspath(source), encoding="utf-8") as file:
            text = file.read(MAX_SPEC_CHARS + 1)
    except OSError as err:
        raise RingSpecError([("", f"cannot read {source}: {err}")]) from err
    except UnicodeDecodeError as err:
        raise RingSpecError([("", f"not UTF-8 text: {err}")]) from err
    if len(text) > MAX_SPEC_CHARS:
        raise RingSpecError([("", f"longer than MAX_SPEC_CHARS = {MAX_SPEC_CHARS} characters")])
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:  # ValueError includes JSONDecodeError
        raise RingSpecError([("", f"invalid JSON: {err}")]) from err
    if not isinstance(data, dict):
        raise RingSpecError([("", "top level must be a JSON object")])
    return data


def _source(item: Mapping[str, Any], pointer: str, problems: _Collector) -> str | None:
    """The optional citation of the file or of one of its items."""
    return problems.text(item.get("source", ""), f"{pointer}/source", empty=True)


def _load_generators(listed: Any, problems: _Collector) -> GeneratorSet | None:
    """The generators, or None when any of them is bad."""
    before = len(problems.problems)
    pairs: dict[str, int | None] = {}
    for pointer, item in problems.objects(
        listed,
        "/generators",
        "expected a non-empty list of {name, degree} objects",
        nonempty=True,
        item_message="expected an object with name and degree",
    ):
        problems.known_keys(item, pointer, _GENERATOR_KEYS)
        name = item.get("name")
        if problems.check(
            isinstance(name, str) and _is_identifier(name), f"{pointer}/name", f"invalid generator name {name!r}"
        ) and problems.check(name not in pairs, f"{pointer}/name", f"duplicate generator {name!r}"):
            pairs[name] = problems.integer(
                item.get("degree"), f"{pointer}/degree", lambda n: n >= 1, "degree must be a positive integer, got {!r}"
            )
    if len(problems.problems) > before:
        return None
    return GeneratorSet(pairs.items())


def _chern_relations(value: Any, gens: GeneratorSet, problems: _Collector) -> tuple[Polynomial, ...]:
    """The relations of the Chern identity of the genus ``value``, once its lambda generators are checked."""
    if value is None:
        return ()
    pointer = "/chern_identity_genus"
    genus = problems.integer(value, pointer, lambda n: n >= 1, "must be a positive integer, got {!r}")
    if genus is None:
        return ()
    for i in range(1, genus + 1):
        lam = f"lambda{i}"
        if not problems.check(lam in gens.names, pointer, f"generator {lam} missing for genus {genus}"):
            return ()
        if not problems.check(gens.weights[gens.index(lam)] == i, pointer, f"generator {lam} must have degree {i}"):
            return ()
    return tuple(expand_chern_identity(genus, gens))


def _load_degree_entries(listed: Any, pointer: str, problems: _Collector) -> tuple[DegreeEntry, ...]:
    entries = []
    for entry_pointer, entry in problems.objects(listed, pointer, "expected a non-empty list", nonempty=True):
        problems.known_keys(entry, entry_pointer, _ENTRY_KEYS)
        value = problems.rational(entry.get("value"), f"{entry_pointer}/value")
        alt_value = problems.rational(entry["alt_value"], f"{entry_pointer}/alt_value") if "alt_value" in entry else None
        element = problems.expr(entry["expr"], f"{entry_pointer}/expr") if "expr" in entry else None
        label = entry.get("label")
        if label is None:
            label = entry.get("expr")
        problems.text(label, entry_pointer, "entry needs an expr or a label")
        entries.append(DegreeEntry(label, element, value, alt_value))
    return tuple(entries)


def _load_grid(item: Mapping[str, Any], pointer: str, table_id: str, kind: str, problems: _Collector) -> PairingTable | None:
    """A pairing or relative pairing grid: row and column expressions and their values."""
    row_labels = problems.items(item.get("rows"), f"{pointer}/rows", "expected a non-empty list of expressions", nonempty=True)
    if row_labels is None:
        return None
    col_labels = problems.items(item.get("cols"), f"{pointer}/cols", "expected a non-empty list of expressions", nonempty=True)
    if col_labels is None:
        return None
    before = len(problems.problems)
    rows = problems.exprs(row_labels, f"{pointer}/rows")
    cols = problems.exprs(col_labels, f"{pointer}/cols")
    values = item.get("values")
    if not problems.check(
        isinstance(values, list) and len(values) == len(rows), f"{pointer}/values", f"expected {len(rows)} rows of values"
    ):
        return None
    matrix = tuple(
        [problems.rationals(row, len(cols), f"{pointer}/values/{r}", f"expected {len(cols)} entries") for r, row in enumerate(values)]
    )
    if len(problems.problems) > before:  # a bad row, column or value
        return None
    codims = {row.weighted_degree() for row in rows}  # None for a zero row
    if not problems.check(len(codims) == 1 and None not in codims, f"{pointer}/rows", "rows must share one degree"):
        return None
    det_nonzero = kind == "pairing" and problems.flag(item.get("det_nonzero", False), f"{pointer}/det_nonzero")
    source = _source(item, pointer, problems)
    return PairingTable(
        table_id, codims.pop(), tuple(row_labels), rows, tuple(col_labels), cols, matrix, det_nonzero, source, kind
    )


def _load_pairing_vector(item: Mapping[str, Any], pointer: str, problems: _Collector) -> PairingVectorTable | None:
    table_id = problems.text(item.get("id"), f"{pointer}/id", "needs a non-empty id")
    class_name = item.get("class")
    if table_id is None or not problems.check(
        isinstance(class_name, str), f"{pointer}/class", "needs the name of the paired class"
    ):
        return None
    class_poly = problems.expr(class_name, f"{pointer}/class")
    basis_labels = problems.items(
        item.get("basis"), f"{pointer}/basis", "expected a non-empty list of expressions", nonempty=True
    )
    if basis_labels is None:
        return None
    basis = problems.exprs(basis_labels, f"{pointer}/basis")
    values = problems.rationals(item.get("values"), len(basis), f"{pointer}/values", f"expected {len(basis)} values")
    if values is None:
        return None
    divide_by = problems.integer(
        item.get("divide_by", 1), f"{pointer}/divide_by", lambda n: n != 0, "divide_by must be a nonzero integer"
    )
    solve = problems.flag(item.get("solve", False), f"{pointer}/solve")
    source = _source(item, pointer, problems)
    return PairingVectorTable(table_id, class_name, class_poly, tuple(basis_labels), basis, values, divide_by, solve, source)


def _load_tables(listed: Any, problems: _Collector) -> list[Any]:
    tables: list[Any] = []
    for pointer, item in problems.objects(listed, "/tables"):
        table_id = problems.text(item.get("id"), f"{pointer}/id", "table id must be a non-empty string")
        kind = item.get("kind")
        if table_id is None or not problems.check(
            isinstance(kind, str) and kind in _TABLE_KEYS, f"{pointer}/kind", f"unknown table kind {kind!r}"
        ):
            continue
        problems.known_keys(item, pointer, _TABLE_KEYS[kind])
        if kind == "degrees":
            entries = _load_degree_entries(item.get("entries", []), f"{pointer}/entries", problems)
            problems.text(item.get("scale_note", ""), f"{pointer}/scale_note", empty=True)
            tables.append(DegreesTable(table_id, entries, _source(item, pointer, problems)))
        elif kind == "pairing_vector":
            tables.append(_load_pairing_vector(item, pointer, problems))
        else:
            tables.append(_load_grid(item, pointer, table_id, kind, problems))
    return tables


def load_ring_spec(source: str | os.PathLike | Mapping[str, Any]) -> LoadedRing:
    """Load and validate one ring spec; raises RingSpecError with every problem."""
    data = _read_source(source)
    problems = _Collector()

    name = problems.text(data.get("name"), "/name", "ring needs a non-empty name")
    description = problems.text(data.get("description", ""), "/description", empty=True)
    file_source = _source(data, "", problems)

    gens = problems.gens = _load_generators(data.get("generators"), problems)
    if gens is None:
        raise RingSpecError(problems.problems)
    chern_relations = _chern_relations(data.get("chern_identity_genus"), gens, problems)

    # Read before any class is named: relations may use generators only.
    relations = problems.items(data.get("relations", []), "/relations", "expected a list of expression strings")
    listed_relations = problems.exprs(relations or [], "/relations")

    named = problems.named
    named_raw = data.get("named_classes", {})
    if not problems.check(isinstance(named_raw, Mapping), "/named_classes", "expected an object of name -> expression"):
        named_raw = {}
    for class_name, text in named_raw.items():
        pointer = _pointer("/named_classes", class_name)
        if problems.check(
            isinstance(class_name, str) and _is_identifier(class_name), pointer, f"invalid class name {class_name!r}"
        ) and problems.check(class_name not in gens.names, pointer, f"named class {class_name!r} shadows a generator"):
            poly = problems.expr(text, pointer)
            if poly is not None:
                named[class_name] = poly

    problems.raise_if_any()

    ring = QuotientRing(RingPresentation(name, gens, listed_relations + chern_relations))
    problems.known_keys(data, "", _SPEC_KEYS)

    functional = None
    normalization = data.get("normalization")
    if normalization is not None and problems.check(
        isinstance(normalization, Mapping), "/normalization", "expected an object with element and value"
    ):
        problems.known_keys(normalization, "/normalization", _NORMALIZATION_KEYS)
        element = problems.expr(normalization.get("element"), "/normalization/element")
        value = problems.rational(normalization.get("value"), "/normalization/value")
        if element is not None and value is not None:
            try:
                functional = DegreeFunctional(ring, element, value)
            except AvchowError as err:
                problems.add("/normalization", str(err))

    identities: list[Identity] = []
    for pointer, item in problems.objects(data.get("identities", []), "/identities"):
        problems.known_keys(item, pointer, _IDENTITY_KEYS)
        identity_id = problems.text(item.get("id"), f"{pointer}/id", "identity needs a non-empty id")
        mode = item.get("mode", "class")
        if identity_id is None or not problems.check(
            mode in ("class", "polynomial"), f"{pointer}/mode", f"unknown mode {mode!r}"
        ):
            continue
        lhs = problems.expr(item.get("lhs"), f"{pointer}/lhs")
        rhs = problems.expr(item.get("rhs"), f"{pointer}/rhs")
        identities.append(Identity(identity_id, lhs, rhs, mode, _source(item, pointer, problems)))

    expected = data.get("expected", {})
    if not problems.check(isinstance(expected, Mapping), "/expected", "expected an object"):
        expected = {}
    problems.known_keys(expected, "/expected", _EXPECTED_KEYS)
    expected_hilbert = expected.get("hilbert")
    if "hilbert" in expected and not problems.check(
        isinstance(expected_hilbert, list)
        and expected_hilbert
        and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in expected_hilbert),
        "/expected/hilbert",
        "expected a non-empty list of non-negative integers",
    ):
        expected_hilbert = None
    degrees: list[DegreeExpectation] = []
    for pointer, item in problems.objects(expected.get("degrees", []), "/expected/degrees"):
        problems.known_keys(item, pointer, _EXPECTED_DEGREE_KEYS)
        element = problems.expr(item.get("expr"), f"{pointer}/expr")
        value = problems.rational(item.get("value"), f"{pointer}/value")
        degrees.append(DegreeExpectation(item.get("expr"), element, value, _source(item, pointer, problems)))

    tables = _load_tables(data.get("tables", []), problems)
    pairing_vectors = []
    for pointer, item in problems.objects(data.get("pairing_vectors", []), "/pairing_vectors"):
        problems.known_keys(item, pointer, _VECTOR_KEYS)
        pairing_vectors.append(_load_pairing_vector(item, pointer, problems))

    problems.raise_if_any()

    return LoadedRing(
        name=name,
        description=description,
        source=file_source,
        ring=ring,
        functional=functional,
        named=named,
        listed_relations=listed_relations,
        expected_hilbert=None if expected_hilbert is None else list(expected_hilbert),
        degrees=degrees,
        identities=identities,
        tables=tables,
        pairing_vectors=pairing_vectors,
        raw=data,
    )
