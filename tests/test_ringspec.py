"""JSON ring-spec loading, validation, and round-tripping."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from avchow import RingSpecError, cli, load_ring_spec

MINIMAL = {
    "name": "toy",
    "generators": [
        {"name": "x", "degree": 1},
        {"name": "y", "degree": 2},
    ],
    "relations": ["x^4", "x^2 - 2*y"],
}


def spec(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


class TestLoad:
    def test_minimal(self):
        loaded = load_ring_spec(spec())
        assert loaded.name == "toy"
        assert loaded.ring.gens.names == ("x", "y")
        assert loaded.ring.hilbert_function(4) == [1, 1, 1, 1, 0]
        assert loaded.functional is None

    def test_from_file(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(spec()))
        loaded = load_ring_spec(path)
        assert loaded.name == "toy"

    def test_normalization_builds_functional(self):
        loaded = load_ring_spec(
            spec(normalization={"element": "x^3", "value": "1/6"})
        )
        assert loaded.functional is not None
        assert loaded.functional.top_degree == 3
        assert loaded.functional.degree(loaded.parse("x*y")) == Fraction(1, 12)

    def test_named_classes_in_order(self):
        loaded = load_ring_spec(
            spec(named_classes={"double": "2*x", "quad": "2*double"})
        )
        assert loaded.parse("quad") == loaded.parse("4*x")

    def test_chern_identity_appended(self):
        data = {
            "name": "chern",
            "generators": [
                {"name": "lambda1", "degree": 1},
                {"name": "lambda2", "degree": 2},
            ],
            "chern_identity_genus": 2,
            "relations": [],
        }
        loaded = load_ring_spec(data)
        assert loaded.ring.classes_equal(
            loaded.parse("lambda1^2"), loaded.parse("2*lambda2")
        )


class TestValidation:
    def test_inhomogeneous_relation(self):
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(spec(relations=["x + y"]))
        assert any("/relations/0" in pointer for pointer, _ in info.value.problems)

    def test_unknown_generator_in_relation(self):
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(spec(relations=["z^2"]))
        assert any("/relations/0" in pointer for pointer, _ in info.value.problems)

    def test_bad_rational(self):
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(
                spec(normalization={"element": "x^4", "value": "0.5"})
            )
        assert any(
            "/normalization/value" in pointer for pointer, _ in info.value.problems
        )

    def test_duplicate_generator(self):
        bad = spec()
        bad["generators"].append({"name": "x", "degree": 3})
        with pytest.raises(RingSpecError):
            load_ring_spec(bad)

    def test_nonpositive_weight(self):
        bad = spec()
        bad["generators"][0]["degree"] = 0
        with pytest.raises(RingSpecError):
            load_ring_spec(bad)

    def test_construction_errors_are_aggregated(self):
        bad = spec(relations=["x + y", "z^2", "x^3"])
        bad["named_classes"] = {"x": "y"}
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(bad)
        pointers = [pointer for pointer, _ in info.value.problems]
        assert len(info.value.problems) >= 3
        assert any("/relations/0" in q for q in pointers)
        assert any("/relations/1" in q for q in pointers)
        assert any("/named_classes/x" in q for q in pointers)

    def test_expectation_errors_are_aggregated(self):
        bad = spec()
        bad["expected"] = {
            "hilbert": [1, "two"],
            "degrees": [{"expr": "nope", "value": "1/2"}],
        }
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(bad)
        pointers = [pointer for pointer, _ in info.value.problems]
        assert len(info.value.problems) >= 2
        assert any("/expected/hilbert" in q for q in pointers)
        assert any("/expected/degrees/0" in q for q in pointers)

    def test_non_list_degrees_reported(self):
        path = resources.files("avchow") / "data" / "a2_tilde.json"
        bad = json.loads(path.read_text(encoding="utf-8"))
        bad["expected"]["degrees"] = 5
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(bad)
        assert ("/expected/degrees", "expected a list") in info.value.problems

    def test_booleans_are_not_integers(self):
        pairing = {
            "id": "t",
            "kind": "pairing",
            "rows": ["x"],
            "cols": ["x^2"],
            "values": [["1"]],
        }
        vector = {
            "id": "v",
            "kind": "pairing_vector",
            "class": "x",
            "basis": ["x^2"],
            "values": ["1"],
            "divide_by": True,
        }
        identity = {"id": "i", "lhs": "x", "rhs": "x", "source": 5}
        for bad, pointer, expected in (
            (spec(tables=[vector]), "/tables/0/divide_by", "integer"),
            (spec(chern_identity_genus=True), "/chern_identity_genus", "integer"),
            # and flags are not strings, nor citations numbers
            (spec(tables=[dict(pairing, det_nonzero="false")]), "/tables/0/det_nonzero", "true or false"),
            (spec(tables=[dict(vector, divide_by=1, solve="no")]), "/tables/0/solve", "true or false"),
            (spec(identities=[identity]), "/identities/0/source", "expected a string, got int"),
        ):
            with pytest.raises(RingSpecError) as info:
                load_ring_spec(bad)
            messages = [m for q, m in info.value.problems if q == pointer]
            assert messages and expected in messages[0], pointer
        loaded = load_ring_spec(spec(tables=[dict(pairing, det_nonzero=False), dict(vector, divide_by=1, solve=True)]))
        assert [loaded.tables[0].det_nonzero, loaded.tables[1].solve] == [False, True]

    def test_names_may_not_end_in_a_newline(self):
        bad = spec()
        bad["generators"][0]["name"] = "x\n"
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(bad)
        assert info.value.problems == [("/generators/0/name", "invalid generator name 'x\\n'")]
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(spec(named_classes={"A\n": "x"}))
        assert info.value.problems == [("/named_classes/A\n", "invalid class name 'A\\n'")]

    def test_class_name_pointers_are_escaped(self):
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(spec(named_classes={"a/b": "x", "c~d": "x", "e\nf\u2028": "x"}))
        assert [pointer for pointer, _ in info.value.problems] == [
            "/named_classes/a~1b",
            "/named_classes/c~0d",
            "/named_classes/e\nf\u2028",
        ]
        assert str(info.value).splitlines()[1:] == [
            "  /named_classes/a~1b: invalid class name 'a/b'",
            "  /named_classes/c~0d: invalid class name 'c~d'",
            "  /named_classes/e\\nf\\u2028: invalid class name 'e\\nf\\u2028'",
        ]

    @pytest.mark.parametrize(
        "content",
        [b"[" * 200_000, b"\xff", b'{"name": ' + b"1" * 5000 + b"}"],
        ids=["nested-too-deeply", "not-utf8", "integer-too-long"],
    )
    def test_unreadable_file_is_one_problem(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(path)
        assert [pointer for pointer, _ in info.value.problems] == [""]
        assert cli.main(["hilbert", "--ring", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == ["error: invalid ring spec:"]
        assert "Traceback" not in captured.err

    def test_normalization_must_sit_in_socle_degree(self):
        cubic = {"name": "cubic", "generators": [{"name": "x", "degree": 1}], "relations": ["x^3"]}
        with pytest.raises(RingSpecError) as info:
            load_ring_spec(dict(cubic, normalization={"element": "1", "value": "1"}))
        messages = [m for q, m in info.value.problems if q == "/normalization"]
        assert messages and "socle degree 2" in messages[0]
        loaded = load_ring_spec(dict(cubic, normalization={"element": "x^2", "value": "1"}))
        assert loaded.functional.top_degree == 2

    def test_named_class_cannot_shadow_generator(self):
        with pytest.raises(RingSpecError):
            load_ring_spec(spec(named_classes={"x": "2*y"}))

    def test_chern_identity_needs_lambda_generators(self):
        with pytest.raises(RingSpecError):
            load_ring_spec(spec(chern_identity_genus=2))
