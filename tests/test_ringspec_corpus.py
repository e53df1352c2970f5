"""Pinned outcomes of ``load_ring_spec`` on a corpus of malformed specs.

Each case is a base spec (a small toy spec, or a catalog ring) with a few
edits, or a JSON text, together with what the loader did with it: the
exact list of ``(pointer, message)`` problems in order, another
``AvchowError`` with its text, or a digest of the loaded ring.  The hand
cases reach every place where the loader reports a problem; the drawn
cases replace one field, at depth 1 to 4, of a catalog spec with a hostile
value: ``PER_SPEC`` cases for each spec, from that spec's own seeded
stream, so an edit of one spec moves only that spec's drawn cases.

The outcomes live in ``ringspec_corpus.json``, which is the record: a
recorded catalog case stays in it after the draw stops producing it, as
long as its edits still apply to its spec.  To record the outcomes again
after a deliberate change of the loader's behaviour or of a catalog spec,
run from the repository root:

    PYTHONPATH=src python tests/test_ringspec_corpus.py

Before it rewrites the file, the script prints each case whose outcome
differs from the recorded one, old and new in full, each recorded case
that is gone, and the count of cases whose ``loads`` digest alone changed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from avchow import AvchowError, RingSpecError, load_ring_spec
from avchow.catalog import RING_NAMES

CORPUS = Path(__file__).with_name("ringspec_corpus.json")
DELETE = "<delete>"  # an edit with this value removes the field

TOY = {
    "name": "toy",
    "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
    "relations": ["x^4", "x^2 - 2*y"],
    "normalization": {"element": "x^3", "value": "1/6"},
    "named_classes": {"A": "2*x"},
    "identities": [{"id": "i", "lhs": "x^2", "rhs": "2*y", "mode": "class", "source": "s"}],
    "expected": {"hilbert": [1, 1, 1, 1], "degrees": [{"expr": "x*y", "value": "1/12", "source": "s"}]},
    "tables": [
        {
            "id": "d",
            "kind": "degrees",
            "entries": [{"expr": "x^3", "value": "1/6"}, {"label": "other", "value": "1"}],
            "source": "s",
        },
        {
            "id": "p",
            "kind": "pairing",
            "rows": ["x"],
            "cols": ["x^2"],
            "values": [["1/6"]],
            "det_nonzero": True,
            "source": "s",
        },
        {"id": "r", "kind": "relative_pairing", "rows": ["x"], "cols": ["y"], "values": [["1/12"]], "source": "s"},
        {
            "id": "v",
            "kind": "pairing_vector",
            "class": "A",
            "basis": ["x^2"],
            "values": ["1/3"],
            "divide_by": 1,
            "solve": True,
            "source": "s",
        },
    ],
    "pairing_vectors": [{"id": "w", "class": "x", "basis": ["y"], "values": ["1/12"], "source": "s"}],
}

# (name, edits) on the toy spec; each edit is (pointer, value).
HAND_CASES = [
    ("toy-loads", []),
    ("name-not-string", [("/name", 5)]),
    ("name-missing", [("/name", DELETE)]),
    ("description-not-string", [("/description", [])]),
    ("source-not-string", [("/source", None)]),
    ("generators-missing", [("/generators", DELETE)]),
    ("generators-empty", [("/generators", [])]),
    ("generator-not-object", [("/generators/0", "x")]),
    ("generator-name-invalid", [("/generators/0/name", "1x")]),
    ("generator-name-not-string", [("/generators/0/name", 3)]),
    ("generator-name-newline", [("/generators/0/name", "x\n")]),
    ("generator-duplicate", [("/generators/1/name", "x")]),
    ("generator-degree-zero", [("/generators/0/degree", 0)]),
    ("generator-degree-bool", [("/generators/0/degree", True)]),
    ("generator-stray-key", [("/generators/1/weight", 2)]),
    ("generators-all-bad", [("/generators", [1, {"name": "", "degree": 1}, {"name": "z", "degree": 1.0}])]),
    ("chern-not-int", [("/chern_identity_genus", "2")]),
    ("chern-bool", [("/chern_identity_genus", True)]),
    ("chern-zero", [("/chern_identity_genus", 0)]),
    ("chern-missing-lambda", [("/chern_identity_genus", 1)]),
    ("chern-wrong-degree", [("/generators/1/name", "lambda1"), ("/chern_identity_genus", 1)]),
    ("relations-not-list", [("/relations", "x^4")]),
    ("relation-not-string", [("/relations/0", 4)]),
    ("relation-parse-error", [("/relations/0", "x^")]),
    ("relation-inhomogeneous", [("/relations/0", "x + y")]),
    ("relation-named-class", [("/relations/0", "A^4")]),
    ("not-artinian", [("/relations", ["x^2 - 2*y"])]),
    ("named-not-object", [("/named_classes", ["A"])]),
    ("named-invalid-name", [("/named_classes", {"1A": "x", "A": "2*x"})]),
    ("named-newline", [("/named_classes", {"A": "2*x", "B\n": "x"})]),
    ("named-slash", [("/named_classes", {"A": "2*x", "a/b": "x"})]),
    ("named-tilde", [("/named_classes", {"A": "2*x", "c~d": "x"})]),
    ("named-shadows", [("/named_classes", {"x": "y", "A": "2*x"})]),
    ("named-bad-expr", [("/named_classes/A", "q")]),
    ("named-inhomogeneous", [("/named_classes/A", "x + y")]),
    ("named-not-string", [("/named_classes/A", 2)]),
    ("normalization-not-object", [("/normalization", "x^3")]),
    ("normalization-element-missing", [("/normalization/element", DELETE)]),
    ("normalization-value-float", [("/normalization/value", 0.5)]),
    ("normalization-value-bad", [("/normalization/value", "0.5")]),
    ("normalization-value-zero-denominator", [("/normalization/value", "1/0")]),
    ("normalization-value-zero", [("/normalization/value", "0")]),
    ("normalization-wrong-degree", [("/normalization/element", "x^2")]),
    ("normalization-zero-element", [("/normalization/element", "0")]),
    ("identities-not-list", [("/identities", {})]),
    ("identity-not-object", [("/identities/0", 1)]),
    ("identity-id-missing", [("/identities/0/id", DELETE)]),
    ("identity-id-empty", [("/identities/0/id", "")]),
    ("identity-mode-unknown", [("/identities/0/mode", "maybe")]),
    ("identity-lhs-bad", [("/identities/0/lhs", "x +")]),
    ("identity-both-sides-bad", [("/identities/0/lhs", "x + y"), ("/identities/0/rhs", None)]),
    ("identity-source-int", [("/identities/0/source", 5)]),
    ("expected-not-object", [("/expected", [])]),
    ("hilbert-not-list", [("/expected/hilbert", 3)]),
    ("hilbert-negative", [("/expected/hilbert", [1, -1])]),
    ("hilbert-bool", [("/expected/hilbert", [True])]),
    ("hilbert-empty", [("/expected/hilbert", [])]),
    ("degrees-not-list", [("/expected/degrees", {})]),
    ("degree-not-object", [("/expected/degrees/0", "x")]),
    ("degree-expr-missing", [("/expected/degrees/0/expr", DELETE)]),
    ("degree-value-missing", [("/expected/degrees/0/value", DELETE)]),
    ("degree-source-list", [("/expected/degrees/0/source", [])]),
    ("tables-not-list", [("/tables", {})]),
    ("table-not-object", [("/tables/0", None)]),
    ("table-id-missing", [("/tables/0/id", DELETE)]),
    ("table-kind-unknown", [("/tables/0/kind", "other")]),
    ("degrees-entries-empty", [("/tables/0/entries", [])]),
    ("degrees-entries-missing", [("/tables/0/entries", DELETE)]),
    ("degree-entry-not-object", [("/tables/0/entries/0", 3)]),
    ("degree-entry-no-label", [("/tables/0/entries/1", {"value": "1"})]),
    ("degree-entry-label-not-string", [("/tables/0/entries/1/label", 7)]),
    ("degree-entry-label-from-bad-expr", [("/tables/0/entries/0/expr", 7)]),
    ("degree-entry-checkable-no-expr", [("/tables/0/entries/1/checkable", True)]),
    ("degree-entry-bad-expr", [("/tables/0/entries/0/expr", "x^")]),
    ("degree-entry-bad-expr-not-checkable", [("/tables/0/entries/0/expr", "x^"), ("/tables/0/entries/0/checkable", False)]),
    ("degree-entry-bad-value", [("/tables/0/entries/0/value", 1)]),
    ("degree-entry-bad-alt-value", [("/tables/0/entries/0/alt_value", "a")]),
    ("degree-entry-checkable-string", [("/tables/0/entries/0/checkable", "no")]),
    ("degree-table-scale-note-int", [("/tables/0/scale_note", 2)]),
    ("degree-table-source-int", [("/tables/0/source", 5)]),
    ("pairing-rows-empty", [("/tables/1/rows", [])]),
    ("pairing-cols-not-list", [("/tables/1/cols", "x^2")]),
    ("pairing-row-bad-expr", [("/tables/1/rows/0", "x +")]),
    ("pairing-values-wrong-count", [("/tables/1/values", [])]),
    ("pairing-values-row-wrong-length", [("/tables/1/values/0", ["1", "2"])]),
    ("pairing-value-bad", [("/tables/1/values/0/0", "x")]),
    ("pairing-every-part-bad", [("/tables/1/rows/0", "x +"), ("/tables/1/cols/0", 2), ("/tables/1/values/0/0", "x")]),
    ("pairing-rows-mixed-degrees", [("/tables/1/rows", ["x", "y"]), ("/tables/1/values", [["1/6"], ["1/12"]])]),
    ("pairing-row-zero", [("/tables/1/rows/0", "0")]),
    ("pairing-codim-negative", [("/tables/1/codim", -1)]),
    ("pairing-codim-bool", [("/tables/1/codim", True)]),
    ("pairing-det-string", [("/tables/1/det_nonzero", "false")]),
    ("pairing-det-misspelt", [("/tables/1/det_nonzer", True)]),
    ("pairing-source-int", [("/tables/1/source", 5)]),
    ("relative-rows-missing", [("/tables/2/rows", DELETE)]),
    ("relative-value-not-string", [("/tables/2/values/0/0", 0.5)]),
    ("relative-codim-ignored", [("/tables/2/codim", "x")]),
    ("relative-det-nonzero", [("/tables/2/det_nonzero", True)]),
    ("vector-id-empty", [("/tables/3/id", "")]),
    ("vector-class-missing", [("/tables/3/class", DELETE)]),
    ("vector-class-bad", [("/tables/3/class", "q")]),
    ("vector-basis-empty", [("/tables/3/basis", [])]),
    ("vector-values-count", [("/tables/3/values", [])]),
    ("vector-value-bad", [("/tables/3/values/0", "1/0")]),
    ("vector-divide-by-zero", [("/tables/3/divide_by", 0)]),
    ("vector-divide-by-bool", [("/tables/3/divide_by", True)]),
    ("vector-everything-bad", [("/tables/3/class", "q"), ("/tables/3/basis/0", "x^"), ("/tables/3/values/0", 1), ("/tables/3/divide_by", 0)]),
    ("vector-solve-string", [("/tables/3/solve", "no")]),
    ("pairing-vectors-not-list", [("/pairing_vectors", {})]),
    ("pairing-vector-not-object", [("/pairing_vectors/0", [])]),
    ("pairing-vector-id-missing", [("/pairing_vectors/0/id", DELETE)]),
    ("pairing-vector-class-not-string", [("/pairing_vectors/0/class", 1)]),
    ("pairing-vectors-order", [("/pairing_vectors", [{}, None])]),
    ("pairing-vector-source-int", [("/pairing_vectors/0/source", 1)]),
    (
        "stray-key-in-every-object",
        [
            (f"{pointer}/zz~", 1)
            for pointer in (
                "", "/normalization", "/identities/0", "/expected", "/expected/degrees/0", "/tables/0",
                "/tables/0/entries/0", "/tables/1", "/tables/2", "/tables/3", "/pairing_vectors/0",
            )
        ],
    ),
    ("construction-problems-in-order", [("/name", ""), ("/relations/1", "x + y"), ("/named_classes/A", "z")]),
    (
        "expectation-problems-in-order",
        [
            ("/normalization/value", "a"),
            ("/identities/0/mode", "other"),
            ("/expected/hilbert", ["1"]),
            ("/expected/degrees/0/expr", "z"),
            ("/tables/1/rows", []),
            ("/tables/3/basis", None),
            ("/pairing_vectors/0/values", ["1", "2"]),
        ],
    ),
]

# (name, JSON text) read from a file.
TEXT_CASES = [
    ("json-invalid", "{"),
    ("json-top-level-list", "[]"),
    ("json-top-level-string", '"toy"'),
]

HOSTILE = [
    DELETE, None, True, False, 0, 1, -1, 2.5, "", "x", "false", "1/0", "0.5", "x^2 +", "lambda1 + lambda1^2", "zz",
    [], [None], ["1"], [[]], {}, {"a": 1},
]
PER_SPEC = 13
SEED = 17


CATALOG = {
    name: json.loads((resources.files("avchow") / "data" / f"{name}.json").read_text(encoding="utf-8"))
    for name in RING_NAMES
}


def _pointers(value, pointer: str = "", depth: int = 0):
    if depth:
        yield depth, pointer
    if depth == 4:
        return
    keys = value.keys() if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        yield from _pointers(value[key], f"{pointer}/{key}", depth + 1)


def drawn_cases(specs: dict[str, dict]) -> list[tuple[str, str, list]]:
    """(name, base, edits): for each spec, ``PER_SPEC`` fields replaced by a hostile value, from its own stream."""
    cases = []
    for base, spec in specs.items():
        rng = random.Random(f"{SEED}:{base}")
        by_depth: dict[int, list[str]] = {}
        for depth, pointer in _pointers(spec):
            by_depth.setdefault(depth, []).append(pointer)
        names: set[str] = set()
        while len(names) < PER_SPEC:
            pointer = rng.choice(by_depth[rng.choice(sorted(by_depth))])
            value = rng.choice(HOSTILE)
            name = f"{base}{pointer}={json.dumps(value)}"
            if name not in names:
                names.add(name)
                cases.append((name, base, [(pointer, value)]))
    return cases


def apply_edits(spec: dict, edits) -> dict:
    spec = copy.deepcopy(spec)
    for pointer, value in edits:
        *path, last = pointer[1:].split("/")
        node = spec
        for key in path:
            node = node[int(key) if isinstance(node, list) else key]
        key = int(last) if isinstance(node, list) else last
        if value == DELETE:
            del node[key]
        else:
            node[key] = value
    return spec


def digest(loaded) -> str:
    functional = loaded.functional
    state = (
        loaded.name,
        loaded.description,
        loaded.source,
        loaded.ring.gens.names,
        loaded.ring.gens.weights,
        loaded.listed_relations,
        sorted(loaded.named.items()),
        loaded.expected_hilbert,
        loaded.degrees,
        loaded.identities,
        loaded.tables,
        loaded.pairing_vectors,
        None if functional is None else (functional.reference_element, functional.reference_value),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def outcome(source) -> dict:
    try:
        loaded = load_ring_spec(source)
    except RingSpecError as err:
        return {"problems": [list(problem) for problem in err.problems]}
    except AvchowError as err:
        return {"raises": [type(err).__name__, str(err)]}
    return {"loads": digest(loaded)}


def text_outcome(text: str) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "spec.json"
        path.write_text(text, encoding="utf-8")
        return outcome(path)


def build_corpus(recorded: list[dict]) -> list[dict]:
    """The hand, text and drawn cases, then each ``recorded`` catalog case outside them whose edits still apply."""
    corpus = [
        {"name": name, "base": "toy", "edits": edits, "outcome": outcome(apply_edits(TOY, edits))}
        for name, edits in HAND_CASES
    ]
    corpus += [{"name": name, "text": text, "outcome": text_outcome(text)} for name, text in TEXT_CASES]
    corpus += [
        {"name": name, "base": base, "edits": edits, "outcome": outcome(apply_edits(CATALOG[base], edits))}
        for name, base, edits in drawn_cases(CATALOG)
    ]
    names = {case["name"] for case in corpus}
    for case in recorded:
        if case.get("base") in CATALOG and case["name"] not in names:
            try:
                spec = apply_edits(CATALOG[case["base"]], case["edits"])
            except (LookupError, TypeError, ValueError):  # the spec lost the edited field
                continue
            corpus.append(dict(case, outcome=outcome(spec)))
    return corpus


RECORDED = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []


def test_corpus_is_complete():
    names = [case["name"] for case in RECORDED]
    expected = [name for name, _ in HAND_CASES] + [name for name, _ in TEXT_CASES]
    expected += [name for name, _, _ in drawn_cases(CATALOG)]
    assert names[: len(expected)] == expected and len(set(names)) == len(names)
    assert all(case["base"] in CATALOG for case in RECORDED[len(expected) :])
    assert sum("loads" in case["outcome"] for case in RECORDED) < len(RECORDED) // 2


def test_an_edit_moves_only_its_own_spec_draw():
    # The first spec, so that a stream shared with the specs after it would move their cases.
    first = RING_NAMES[0]
    edited = {**CATALOG, first: apply_edits(CATALOG[first], [("/expected/hilbert", DELETE)])}
    before, after = drawn_cases(CATALOG), drawn_cases(edited)
    assert [case for case in before if case[1] != first] == [case for case in after if case[1] != first]
    assert [case for case in before if case[1] == first] != [case for case in after if case[1] == first]


@pytest.mark.parametrize("case", RECORDED, ids=[case["name"] for case in RECORDED])
def test_outcome_is_pinned(case):
    if "text" in case:
        assert text_outcome(case["text"]) == case["outcome"]
    else:
        base = TOY if case["base"] == "toy" else CATALOG[case["base"]]
        assert outcome(apply_edits(base, case["edits"])) == case["outcome"]


def report_changes(recorded: list[dict], corpus: list[dict]) -> None:
    """Print how ``corpus`` differs from the ``recorded`` outcomes, case by case."""
    before = {case["name"]: case["outcome"] for case in recorded}
    digests = 0
    for case in corpus:
        old, new = before.pop(case["name"], None), case["outcome"]
        if old is not None and "loads" in old and "loads" in new:
            digests += old != new
        elif old != new:
            print(f"{case['name']}\n  was: {json.dumps(old)}\n  now: {json.dumps(new)}")
    for name in before:
        print(f"{name}\n  gone")
    print(f"{digests} cases changed only their loads digest")


if __name__ == "__main__":
    corpus = build_corpus(RECORDED)
    report_changes(RECORDED, corpus)
    lines = ",\n".join(json.dumps(case) for case in corpus)  # one case a line, so diffs name the case
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.exit(0)
