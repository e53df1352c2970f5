"""Pinned outcomes of ``load_ring_spec`` on a corpus of malformed specs.

Each case is a base spec (a small toy spec, or a catalog ring) with a few
edits, or a JSON text, together with what the loader did with it: the
exact list of ``(pointer, message)`` problems in order, another
``AvchowError`` with its text, or a digest of the loaded ring.  The hand
cases reach every place where the loader reports a problem; the drawn
cases replace one field, at depth 1 to 4, of a catalog spec with a hostile
value, from a fixed seed.

The outcomes live in ``ringspec_corpus.json``.  To record them again
after a deliberate change of the loader's behaviour, run from the
repository root:

    PYTHONPATH=src python tests/test_ringspec_corpus.py
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
            "entries": [{"expr": "x^3", "value": "1/6"}, {"label": "other", "value": "1", "checkable": False}],
            "source": "s",
        },
        {
            "id": "p",
            "kind": "pairing",
            "codim": 1,
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
    ("named-shadows", [("/named_classes", {"x": "y", "A": "2*x"})]),
    ("named-bad-expr", [("/named_classes/A", "q")]),
    ("named-inhomogeneous", [("/named_classes/A", "x + y")]),
    ("named-not-string", [("/named_classes/A", 2)]),
    ("normalization-not-object", [("/normalization", "x^3")]),
    ("normalization-element-missing", [("/normalization/element", DELETE)]),
    ("normalization-value-float", [("/normalization/value", 0.5)]),
    ("normalization-value-bad", [("/normalization/value", "0.5")]),
    ("normalization-value-zero-denominator", [("/normalization/value", "1/0")]),
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
    ("degree-table-source-int", [("/tables/0/source", 5)]),
    ("pairing-rows-empty", [("/tables/1/rows", [])]),
    ("pairing-cols-not-list", [("/tables/1/cols", "x^2")]),
    ("pairing-row-bad-expr", [("/tables/1/rows/0", "x +")]),
    ("pairing-values-wrong-count", [("/tables/1/values", [])]),
    ("pairing-values-row-wrong-length", [("/tables/1/values/0", ["1", "2"])]),
    ("pairing-value-bad", [("/tables/1/values/0/0", "x")]),
    ("pairing-every-part-bad", [("/tables/1/rows/0", "x +"), ("/tables/1/cols/0", 2), ("/tables/1/values/0/0", "x")]),
    ("pairing-codim-missing", [("/tables/1/codim", DELETE)]),
    ("pairing-codim-negative", [("/tables/1/codim", -1)]),
    ("pairing-codim-bool", [("/tables/1/codim", True)]),
    ("pairing-det-string", [("/tables/1/det_nonzero", "false")]),
    ("pairing-source-int", [("/tables/1/source", 5)]),
    ("relative-rows-missing", [("/tables/2/rows", DELETE)]),
    ("relative-value-not-string", [("/tables/2/values/0/0", 0.5)]),
    ("relative-codim-ignored", [("/tables/2/codim", "x")]),
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
DRAWN = 100
SEED = 17


def catalog_spec(name: str) -> dict:
    return json.loads((resources.files("avchow") / "data" / f"{name}.json").read_text(encoding="utf-8"))


def _pointers(value, pointer: str = "", depth: int = 0):
    if depth:
        yield depth, pointer
    if depth == 4:
        return
    keys = value.keys() if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        yield from _pointers(value[key], f"{pointer}/{key}", depth + 1)


def drawn_cases() -> list[tuple[str, str, list]]:
    """One field of a catalog spec replaced by a hostile value, from a fixed seed."""
    rng = random.Random(SEED)
    cases, seen = [], set()
    while len(cases) < DRAWN:
        base = rng.choice(RING_NAMES)
        by_depth: dict[int, list[str]] = {}
        for depth, pointer in _pointers(catalog_spec(base)):
            by_depth.setdefault(depth, []).append(pointer)
        pointer = rng.choice(by_depth[rng.choice(sorted(by_depth))])
        value = rng.choice(HOSTILE)
        key = (base, pointer, json.dumps(value))
        if key not in seen:
            seen.add(key)
            cases.append((f"{base}{pointer}={json.dumps(value)}", base, [(pointer, value)]))
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


def build_corpus() -> list[dict]:
    corpus = [
        {"name": name, "base": "toy", "edits": edits, "outcome": outcome(apply_edits(TOY, edits))}
        for name, edits in HAND_CASES
    ]
    corpus += [{"name": name, "text": text, "outcome": text_outcome(text)} for name, text in TEXT_CASES]
    corpus += [
        {"name": name, "base": base, "edits": edits, "outcome": outcome(apply_edits(catalog_spec(base), edits))}
        for name, base, edits in drawn_cases()
    ]
    return corpus


RECORDED = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []


def test_corpus_is_complete():
    names = [case["name"] for case in RECORDED]
    expected = [name for name, _ in HAND_CASES] + [name for name, _ in TEXT_CASES]
    expected += [name for name, _, _ in drawn_cases()]
    assert names == expected
    assert sum("loads" in case["outcome"] for case in RECORDED) < len(RECORDED) // 2


@pytest.mark.parametrize("case", RECORDED, ids=[case["name"] for case in RECORDED])
def test_outcome_is_pinned(case):
    if "text" in case:
        assert text_outcome(case["text"]) == case["outcome"]
    else:
        base = TOY if case["base"] == "toy" else catalog_spec(case["base"])
        assert outcome(apply_edits(base, case["edits"])) == case["outcome"]


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(case) for case in build_corpus())  # one case a line, so diffs name the case
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.exit(0)
