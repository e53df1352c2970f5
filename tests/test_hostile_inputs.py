"""Hostile input at the two outside boundaries: ring spec files and the command line.

``load_ring_spec`` may only return a ring or raise an ``AvchowError``, and
``cli.main`` may only return 0, 1 or 2 (argparse exits with 0 or 2 by
itself); any other exception fails the test, and a hang or a flood of
output fails the per-example deadline.  The strategies draw arbitrary JSON
and, to reach past the first type check, spec-shaped objects and argument
lists built from the real keys, commands and options mixed with arbitrary
values.
"""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from avchow import AvchowError, cli, load_ring_spec
from avchow.catalog import RING_NAMES

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def maybe(strategy, instead=JSON_VALUES):
    """Mostly the strategy; one time in eight ``instead``, by default an arbitrary JSON value."""
    return st.sampled_from(range(8)).flatmap(lambda k: instead if k == 7 else strategy)


NAMES = st.sampled_from(["x", "y", "z", "lambda1", "lambda2", "lambda3", "_", "1x", "x y", ""]) | st.text(max_size=4)
EXPONENTS = st.integers(0, 4) | st.integers(min_value=0)


def expressions(atoms):
    """Expression text from the atoms, often well formed: sums of products of powers."""
    powers = st.tuples(atoms, EXPONENTS).map(lambda pair: f"{pair[0]}^{pair[1]}")
    factors = atoms | powers | st.lists(atoms, min_size=2, max_size=3).map(lambda xs: "(" + " + ".join(xs) + ")")
    grouped = st.tuples(factors, EXPONENTS).map(lambda pair: f"({pair[0]})^{pair[1]}")
    terms = st.lists(factors | grouped, min_size=1, max_size=3).map("*".join)
    return st.lists(terms, min_size=1, max_size=3).map(" - ".join)


ATOMS = st.sampled_from(["x", "y", "z", "2", "1/2", "-3", "0"])
EXPRESSIONS = maybe(expressions(ATOMS)) | st.text(alphabet="xyz123^*+-/() ", max_size=14)
RATIONALS = st.sampled_from(["1", "-1/2", "0", "7/0"]) | st.text(alphabet="0123456789/- ", max_size=6) | JSON_SCALARS

WELL_FORMED_GENERATORS = st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True).flatmap(
    lambda names: st.lists(maybe(st.integers(1, 3)), min_size=len(names), max_size=len(names)).map(
        lambda degrees: [{"name": name, "degree": degree} for name, degree in zip(names, degrees)]
    )
)
GENERATORS = maybe(
    WELL_FORMED_GENERATORS,
    st.lists(maybe(st.fixed_dictionaries({"name": NAMES, "degree": st.integers() | JSON_SCALARS})), max_size=3),
)
DEGREE_ENTRIES = st.lists(st.fixed_dictionaries({"expr": EXPRESSIONS, "value": RATIONALS}), max_size=2)
TABLE = st.fixed_dictionaries(
    {
        "id": maybe(st.text(max_size=3)),
        "kind": maybe(st.sampled_from(["pairing", "degrees", "pairing_vector", "relative_pairing", "other"])),
        "rows": maybe(st.lists(EXPRESSIONS, max_size=2)),
        "cols": maybe(st.lists(EXPRESSIONS, max_size=2)),
        "values": maybe(st.lists(st.lists(RATIONALS, max_size=2), max_size=2)),
        "entries": maybe(DEGREE_ENTRIES),
    }
)
SPECS = st.fixed_dictionaries(
    {"name": maybe(st.just("hostile")), "generators": GENERATORS, "relations": maybe(st.lists(EXPRESSIONS, max_size=3))},
    optional={
        "chern_identity_genus": maybe(st.none(), st.integers(1, 3) | st.integers() | JSON_SCALARS),
        "named_classes": maybe(st.dictionaries(NAMES, EXPRESSIONS, max_size=2)),
        "normalization": maybe(st.fixed_dictionaries({"element": EXPRESSIONS, "value": RATIONALS})),
        "identities": maybe(
            st.lists(
                st.fixed_dictionaries(
                    {"id": NAMES, "lhs": EXPRESSIONS, "rhs": EXPRESSIONS, "mode": maybe(st.sampled_from(["class", "polynomial"]))}
                ),
                max_size=2,
            )
        ),
        "expected": maybe(
            st.fixed_dictionaries(
                {},
                optional={"hilbert": maybe(st.lists(st.integers(), max_size=4)), "degrees": maybe(DEGREE_ENTRIES)},
            )
        ),
        "tables": maybe(st.lists(maybe(TABLE), max_size=2)),
        "pairing_vectors": maybe(st.lists(JSON_VALUES, max_size=2)),
    },
)


def load_or_refuse(source):
    try:
        load_ring_spec(source)
    except AvchowError:
        pass


@settings(max_examples=150, deadline=2000)
@given(JSON_VALUES | SPECS)
def test_ring_spec_file_of_arbitrary_json(document):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "spec.json"
        path.write_text(json.dumps(document))
        load_or_refuse(path)


@settings(max_examples=200, deadline=2000)
@given(SPECS)
def test_ring_spec_of_hostile_fields(spec):
    load_or_refuse(spec)


COMMANDS = ["nf", "degree", "hilbert", "pairing", "solve-class", "push", "tables", "verify"]
ARBITRARY = st.text(max_size=10) | st.integers().map(str)
WORDS = st.sampled_from(
    [*COMMANDS, *RING_NAMES, "--ring", "--max", "--deg", "--rows", "--cols", "--values", "--probes", "--map", "--id",
     "--scope", "--format", "--help", "torelli", "json", "all", "levels", "table:3g", "4a"]
)
ARGV = st.lists(WORDS | ARBITRARY, max_size=7)

# Command lines that argparse accepts, with values from the catalog or arbitrary.
RINGS = st.sampled_from(RING_NAMES) | ARBITRARY
CLASSES = expressions(
    st.sampled_from(["lambda1", "lambda2", "lambda3", "sigma1", "sigma2", "t", "s", "A111", "xi0", "xi1", "delta0", "qa", "2", "1/3"])
) | ARBITRARY
NUMBERS = st.integers(-2, 8).map(str) | ARBITRARY
SIGNED = st.integers(-2, 8) | st.integers()
COMMAND_LINES = st.one_of(
    st.tuples(st.sampled_from(["nf", "degree"]), RINGS, CLASSES).map(lambda t: [t[0], "--ring", t[1], t[2]]),
    st.tuples(RINGS, st.none() | SIGNED).map(lambda t: ["hilbert", "--ring", t[0]] + ([] if t[1] is None else [f"--max={t[1]}"])),
    st.tuples(RINGS, SIGNED, st.lists(CLASSES, max_size=3), st.lists(CLASSES, max_size=3)).map(
        lambda t: ["pairing", "--ring", t[0], f"--deg={t[1]}"] + (["--rows", *t[2]] if t[2] else []) + (["--cols", *t[3]] if t[3] else [])
    ),
    st.tuples(RINGS, SIGNED, st.lists(NUMBERS, min_size=1, max_size=4), st.lists(CLASSES, max_size=3)).map(
        lambda t: ["solve-class", "--ring", t[0], f"--deg={t[1]}", "--values", *t[2]] + (["--probes", *t[3]] if t[3] else [])
    ),
    st.tuples(st.sampled_from(cli.MAP_NAMES), CLASSES).map(lambda t: ["push", "--map", t[0], t[1]]),
    st.tuples(st.sampled_from(["tables", "verify"]), st.sampled_from(["--id", "--scope"]), st.sampled_from(["3g", "4a", "all", "torelli", "a1_tilde", "table:3b"]) | ARBITRARY).map(
        lambda t: [t[0]] + ([f"{t[1]}={t[2]}"] if (t[0], t[1]) in (("tables", "--id"), ("verify", "--scope")) else [])
    ),
)


class _Discard:
    """A text stream that keeps nothing, so a long answer costs no memory."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@settings(max_examples=150, deadline=5000)
@given(COMMAND_LINES | ARGV)
def test_command_line_of_arbitrary_arguments(argv):
    sink = _Discard()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exit:  # argparse: --help, or a malformed command line
            code = exit.code
    assert code in (0, 1, 2), argv
