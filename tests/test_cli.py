"""Command line interface: outputs and exit codes."""

import hashlib
import json
import runpy
import sys
import time
import tracemalloc
from itertools import combinations
from math import perm
from importlib import resources
from pathlib import Path

import pytest

from avchow import GeneratorSet, Polynomial, cli
from avchow.verify import FAIL, Check, run_checks

TOY_SPEC = {
    "name": "toy",
    "generators": [{"name": "x", "degree": 1}],
    "relations": ["x^4"],
    "normalization": {"element": "x^3", "value": "1"},
}


# Two degree-1 generators with x*y a relation: x^n and y^n are standard for
# every n, so the ring is not Artinian.
AXES_SPEC = {
    "name": "axes",
    "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
    "relations": ["x*y"],
}
AXES_REFUSAL = "error: axes is not Artinian: no power of x, y is a leading monomial of its Groebner basis\n"


TABLES_GOLDEN = Path(__file__).with_name("tables_golden.txt")
# The verifier output the benchmark compares against; read, never written.
VERIFY_GOLDEN = Path(__file__).parents[1] / "perfbench" / "verify_golden.txt"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_nf(self, capsys):
        code, out, _ = run(capsys, "nf", "--ring", "a2_tilde", "lambda1^2")
        assert code == 0
        assert out.strip() == "2*lambda2"

    def test_degree_table_value(self, capsys):
        code, out, _ = run(capsys, "degree", "--ring", "a3_tilde", "sigma1^6")
        assert code == 0
        assert out.strip() == "-4103/144"

    def test_degree_accepts_named_classes(self, capsys):
        code, out, _ = run(capsys, "degree", "--ring", "a3_tilde", "A111*lambda1*sigma2")
        assert code == 0
        assert out.strip() == "1/192"

    def test_hilbert(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--ring", "a2_tilde")
        assert code == 0
        assert out.strip() == "1,2,2,1"

    # The module is imported already, and runpy warns that it runs it again.
    @pytest.mark.filterwarnings("ignore:'avchow.cli' found in sys.modules:RuntimeWarning")
    def test_module_runs_as_a_script(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["avchow", "hilbert", "--ring", "a1_tilde"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("avchow.cli", run_name="__main__")
        assert info.value.code == 0
        assert capsys.readouterr().out == "1,1\n"

    def test_hilbert_with_max(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--ring", "a1_tilde", "--max", "3")
        assert code == 0
        assert out.strip() == "1,1,0,0"

    def test_hilbert_negative_max_is_usage_error(self, capsys):
        code, out, err = run(capsys, "hilbert", "--ring", "a1_tilde", "--max", "-3")
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_hilbert_far_above_socle(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--ring", "a3_tilde", "--max", "400")
        assert code == 0
        assert out.strip() == ",".join(["1,2,4,6,4,2,1"] + ["0"] * 394)

    def test_hilbert_far_above_socle_streams_zeros(self, monkeypatch):
        class CountingWriter:
            def __init__(self):
                self.digest = hashlib.sha256()
                self.size = 0

            def write(self, text):
                self.digest.update(text.encode())
                self.size += len(text)

        top = 2_000_000
        ring = cli.default_catalog().ring("a1_tilde").ring
        expected = (",".join(str(d) for d in ring.hilbert_function(top)) + "\n").encode()
        writer = CountingWriter()
        monkeypatch.setattr("sys.stdout", writer)
        tracemalloc.start()
        try:
            code = cli.main(["hilbert", "--ring", "a1_tilde", "--max", str(top)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (writer.size, writer.digest.digest()) == (len(expected), hashlib.sha256(expected).digest())
        assert peak < 2_000_000

    def test_hilbert_max_above_cap_is_usage_error(self, capsys):
        # A 20-digit --max streamed zeros for practically ever (64 MB in 10 s).
        for top in ("99999999999999999999", str(cli.MAX_HILBERT_DEGREE + 1)):
            code, out, err = run(capsys, "hilbert", "--ring", "a1_tilde", "--max", top)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "MAX_HILBERT_DEGREE" in err
        assert cli.MAX_HILBERT_DEGREE > 2_000_000  # the streaming test above stays accepted

    def test_pairing_default_bases(self, capsys):
        code, out, _ = run(capsys, "pairing", "--ring", "a1_tilde", "--deg", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rows:")
        assert lines[1].startswith("cols:")
        assert lines[2] == "1/2"

    def test_pairing_explicit(self, capsys):
        code, out, _ = run(
            capsys,
            "pairing",
            "--ring",
            "a2_tilde",
            "--deg",
            "2",
            "--rows",
            "lambda1^2",
            "lambda1*sigma1",
            "--cols",
            "lambda1",
            "sigma1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2:] == ["1/2880,0", "0,-1/24"]

    def test_solve_class(self, capsys):
        code, out, _ = run(
            capsys,
            "solve-class",
            "--ring",
            "a1_tilde",
            "--deg",
            "1",
            "--values",
            "1/2",
        )
        assert code == 0
        assert out.strip() == "sigma1"

    @pytest.mark.parametrize("value", ["1e999999999", "0.5", "1/0", "1/2/3", "nan", "5/-8", "٣"])
    def test_solve_class_bad_value_is_usage_error(self, capsys, value):
        # Values are p or p/q with ASCII digits, the grammar of spec files.
        start = time.perf_counter()
        code, out, err = run(capsys, "solve-class", "--ring", "a1_tilde", "--deg", "1", "--values", value)
        # Fraction("1e999999999") computes 10^999999999 in full; a hang
        # guard, not a timing gate.
        assert time.perf_counter() - start < 10
        assert (code, out, err) == (2, "", f"error: bad rational value {value!r}\n")

    def test_solve_class_value_count_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "solve-class",
            "--ring",
            "a3_tilde",
            "--deg",
            "3",
            "--values",
            "1,2",
        )
        assert code == 2
        assert "values" in err

    def test_push_fiber(self, capsys):
        code, out, _ = run(capsys, "push", "--map", "x2_tilde", "t^3")
        assert code == 0
        assert out.strip() == "1/4*sigma1"

    def test_push_torelli(self, capsys):
        code, out, _ = run(capsys, "push", "--map", "torelli", "xi0 + 2*xi1")
        assert code == 0
        assert out.strip() == "18*lambda1*sigma1 - 2*sigma1^2"

    def test_push_torelli_names_a_constant_term(self, capsys):
        for text, constant in (("1", "1"), ("2 + delta0", "2"), ("delta0 - 1/3", "-1/3")):
            code, out, err = run(capsys, "push", "--map", "torelli", text)
            assert code == 2
            assert out == ""
            assert f"constant term {constant} is not tabulated" in err
            assert "products" not in err
        code, _, err = run(capsys, "push", "--map", "torelli", "delta0*delta1")
        assert code == 2
        assert "products are not tabulated" in err


class TestFileRings:
    def test_ring_from_file(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(TOY_SPEC))
        code, out, _ = run(capsys, "degree", "--ring", str(path), "x^3")
        assert code == 0
        assert out.strip() == "1"

    def test_hilbert_finds_top_without_expectations(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(TOY_SPEC))
        code, out, _ = run(capsys, "hilbert", "--ring", str(path))
        assert code == 0
        assert out.strip() == "1,1,1,1"

    def test_hilbert_without_expectations_runs_to_socle(self, capsys, tmp_path):
        # Degree 1 is empty, so the piece in degree 0 is not the top one.
        path = tmp_path / "even.json"
        data = {"name": "even", "generators": [{"name": "y", "degree": 2}], "relations": ["y^3"]}
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "hilbert", "--ring", str(path))
        assert code == 0
        assert out.strip() == "1,0,1,0,1"

    def test_hilbert_of_non_artinian_ring_is_refused(self, capsys, tmp_path):
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(AXES_SPEC))
        for extra in ((), ("--max", "3")):
            code, out, err = run(capsys, "hilbert", "--ring", str(path), *extra)
            assert (code, out, err) == (2, "", AXES_REFUSAL)

    def test_hilbert_of_non_artinian_ring_is_bounded(self, capsys, tmp_path):
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(AXES_SPEC))
        start = time.perf_counter()
        for top in ("445", "800"):
            code, out, err = run(capsys, "hilbert", "--ring", str(path), "--max", top)
            assert (code, out, err) == (2, "", AXES_REFUSAL)
        # Examining all 321,201 monomials of degree <= 800 took 19 s; a hang
        # guard, not a timing gate.
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize(
        "argv",
        [("nf", "x"), ("degree", "x^3"), ("hilbert",), ("hilbert", "--max", "5"), ("pairing", "--deg", "1")],
    )
    @pytest.mark.parametrize(
        "relations, message",
        [
            (["x*y"], "axes is not Artinian: no power of x, y is a leading monomial of its Groebner basis"),
            (["y^2", "x*y"], "axes is not Artinian: no power of x is a leading monomial of its Groebner basis"),
            (["x^200", "y^200"], "axes has more than MAX_STANDARD_MONOMIALS = 10000 standard monomials"),
        ],
    )
    def test_refused_spec_is_usage_error(self, capsys, tmp_path, argv, relations, message):
        path = tmp_path / "refused.json"
        data = dict(AXES_SPEC, relations=relations, normalization={"element": "x^3", "value": "1"})
        path.write_text(json.dumps(data))
        command, *rest = argv
        code, out, err = run(capsys, command, "--ring", str(path), *rest)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_normalization_below_socle_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cubic.json"
        bad = dict(TOY_SPEC, relations=["x^3"], normalization={"element": "1", "value": "1"})
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "nf", "--ring", str(path), "x")
        assert code == 2
        assert "/normalization" in err
        assert "socle degree 2" in err

    def test_huge_standard_monomial_walk_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        data = {"name": "huge", "generators": [{"name": "x", "degree": 1}], "relations": ["x^100000000"]}
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, "hilbert", "--ring", str(path))
        # Walking all 10^8 standard monomials would take minutes.
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "MAX_STANDARD_MONOMIALS" in err

    def test_non_list_degrees_is_usage_error(self, capsys, tmp_path):
        data = json.loads(
            (resources.files("avchow") / "data" / "a2_tilde.json").read_text(encoding="utf-8")
        )
        data["expected"]["degrees"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "nf", "--ring", str(path), "lambda1")
        assert code == 2
        assert "/expected/degrees" in err

    def test_invalid_spec_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        bad = dict(TOY_SPEC, relations=["x + 1"])
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "nf", "--ring", str(path), "x")
        assert code == 2
        assert "/relations/0" in err


class TestTables:
    def test_all_tables(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        for tid in ("2a", "2b", "3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "4a"):
            assert f"table {tid}" in out

    def test_tables_are_the_table_scopes(self, capsys, catalog):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        printed = [line.removeprefix("table ") for line in out.splitlines() if line.startswith("table ")]
        scoped = [scope.removeprefix("table:") for scope in catalog.scopes() if scope.startswith("table:")]
        assert printed == sorted(scoped)

    def test_single_table(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "3e")
        assert code == 0
        assert out.startswith("table 3e")
        assert "1/181440" in out
        assert "table 3f" not in out

    def test_unknown_table(self, capsys):
        code, _, err = run(capsys, "tables", "--id", "9x")
        assert code == 2
        assert "unknown table" in err

    def test_output_matches_golden(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert out == TABLES_GOLDEN.read_text(encoding="utf-8")

    def test_single_tables_match_golden_blocks(self, capsys):
        blocks = TABLES_GOLDEN.read_text(encoding="utf-8").rstrip("\n").split("\n\n")
        assert len(blocks) == 11
        for block in blocks:
            table_id = block.split()[1]
            code, out, _ = run(capsys, "tables", "--id", table_id)
            assert code == 0
            assert out == block + "\n"

    def test_recomputed_values_match_catalog(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "3g")
        assert code == 0
        assert "-1/16" in out and "-47/16" in out and "1/1451520" in out


class TestVerify:
    def test_output_matches_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "all")
        assert code == 0
        assert out == VERIFY_GOLDEN.read_text(encoding="utf-8")

    def test_scope_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "a1_tilde")
        assert code == 0
        assert "4 checks: 4 passed, 0 failed, 0 skipped" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "table:3b", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"checks", "summary"}
        assert len(data["checks"]) == 25
        assert data["summary"] == {"pass": 25, "fail": 0, "skipped": 0}

    def test_unknown_scope_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "nope")
        assert code == 2
        assert "unknown scope" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        class Fake:
            def run_verification(self, scope="all"):
                bad = Check(
                    id="x",
                    group="g",
                    citation="c",
                    evaluate=lambda: ("1", "2", FAIL),
                )
                return run_checks([bad])

        monkeypatch.setattr(cli, "default_catalog", lambda: Fake())
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "[FAIL]" in out


class TestLargeExpressions:
    @pytest.mark.parametrize("expr", ["7^6000", "7^3000*7^3000"])
    def test_unprintable_result_is_usage_error(self, capsys, expr):
        # 5,071 decimal digits, past the 4,300 that Python converts to text.
        code, out, err = run(capsys, "nf", "--ring", "a1_tilde", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "digits" in err

    def test_unprintable_degree_is_usage_error(self, capsys):
        code, out, err = run(capsys, "degree", "--ring", "a1_tilde", "7^6000*lambda1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, position",
        [
            (("nf", "--ring", "a1_tilde", "lambda1^{}"), 8),
            (("degree", "--ring", "a1_tilde", "{}/3*lambda1"), 0),
            (("degree", "--ring", "a1_tilde", "2/{}*lambda1"), 2),
            (("push", "--map", "torelli", "{}*xi0"), 0),
        ],
    )
    def test_overlong_integer_is_usage_error(self, capsys, argv, position):
        # int() refuses more than 4,300 digits where Python has the limit;
        # the scanner refuses the token first, on every version.
        *head, expr = argv
        code, out, err = run(capsys, *head, expr.format("7" * 5000))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "MAX_LITERAL_DIGITS" in err
        assert f"(at position {position})" in err

    def test_integer_of_the_most_digits_parses(self, capsys):
        code, out, _ = run(capsys, "nf", "--ring", "a1_tilde", "1" + "0" * 4299 + " - lambda1^0")
        assert code == 0
        assert out.strip() == "9" * 4299

    def test_huge_literal_power_is_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "nf", "--ring", "a1_tilde", "7^1000000000000")
        # Computing the power would exhaust memory; a hang guard, not a timing gate.
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "MAX_COEFFICIENT_BITS" in err

    @pytest.mark.parametrize("exponent", ["3000", "100000"])
    def test_power_above_socle_is_truncated(self, capsys, exponent):
        start = time.perf_counter()
        code, out, _ = run(capsys, "nf", "--ring", "a1_tilde", f"(lambda1+sigma1)^{exponent}")
        # Expanding ^3000 in full was killed after 20 s; a hang guard, not a timing gate.
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out.strip() == "0"

    def test_truncated_power_keeps_low_degrees(self, capsys):
        code, out, _ = run(capsys, "nf", "--ring", "a1_tilde", "(1+lambda1)^1000000000000")
        assert code == 0
        assert out.strip() == "250000000000/3*sigma1 + 1"

    def test_power_on_ring_with_many_monomials_below_its_socle(self, capsys, tmp_path):
        # 30 * 2^5 = 960 standard monomials and socle degree 34.  Every
        # monomial of degree at most 34 used to be kept until the normal
        # form, so ^12 formed 126 by 1287 terms and passed MAX_PRODUCT_PAIRS.
        names = "abcdef"
        path = tmp_path / "six.json"
        data = {
            "name": "six",
            "generators": [{"name": name, "degree": 1} for name in names],
            "relations": ["a^30"] + [f"{name}^2" for name in names[1:]],
        }
        path.write_text(json.dumps(data))
        gens = GeneratorSet([(name, 1) for name in names])
        # a^(12-k) times k distinct generators of b..f, with coefficient 12!/(12-k)!.
        expected = {
            (12 - k, *(int(i in chosen) for i in range(5))): perm(12, k)
            for k in range(6)
            for chosen in combinations(range(5), k)
        }
        code, out, err = run(capsys, "nf", "--ring", str(path), "(a+b+c+d+e+f)^12")
        assert (code, out, err) == (0, f"{Polynomial(gens, expected)}\n", "")
        assert len(expected) == 32
        code, out, _ = run(capsys, "nf", "--ring", str(path), "(a+b+c+d+e+f)^34")
        assert (code, out) == (0, "33390720*a^29*b*c*d*e*f\n")
        code, out, _ = run(capsys, "nf", "--ring", str(path), "(a+b+c+d+e+f)^35")
        assert (code, out) == (0, "0\n")

    def test_power_on_non_artinian_ring_is_bounded(self, capsys, tmp_path):
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(AXES_SPEC))
        start = time.perf_counter()
        for power in ("300", "3000"):
            code, out, err = run(capsys, "nf", "--ring", str(path), f"(x+y)^{power}")
            assert (code, out, err) == (2, "", AXES_REFUSAL)
        # The full expansion was killed after 15 s; a hang guard, not a timing gate.
        assert time.perf_counter() - start < 10

    def test_torelli_power_of_a_sum_is_bounded(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "push", "--map", "torelli", "(xi0+xi1)^3000")
        # The symbol ring expanded the power in full and was killed after 15 s;
        # a hang guard, not a timing gate.
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "MAX_PRODUCT_PAIRS" in err


class TestUsageErrors:
    def test_unknown_ring(self, capsys):
        code, _, err = run(capsys, "nf", "--ring", "nope", "x")
        assert code == 2
        assert "unknown ring" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "nf", "--ring", "a1_tilde", "lambda1 + + 2")
        assert code == 2
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--wat"])
        assert info.value.code == 2

    def test_degree_needs_normalization(self, capsys):
        code, _, err = run(capsys, "degree", "--ring", "a2_partial", "lambda1^2")
        assert code == 2
        assert "normalization" in err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("hilbert", "--ring", "a1_tilde", "--max"), "٢"),
            (("hilbert", "--ring", "a1_tilde", "--max"), "1_0"),
            (("hilbert", "--ring", "a1_tilde", "--max"), "1/2"),
            (("pairing", "--ring", "a1_tilde", "--deg"), "١"),
            (("solve-class", "--ring", "a1_tilde", "--values", "1", "--deg"), "１"),
        ],
    )
    def test_integer_options_take_ascii_digits(self, capsys, argv, text):
        # Read with int(), `--max ٢` printed 1,1,0 and `--max 1_0` read 10.
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, text])
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument {argv[-1]}: not an integer: {text!r}\n")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [("pairing",), ("solve-class", "--values", "1")])
    @pytest.mark.parametrize("deg", ["7", "99", "-1", "-3"])
    def test_codimension_outside_the_ring_is_usage_error(self, capsys, command, deg):
        # The old message named the complement: "no standard monomials in degree -93".
        name, *rest = command
        code, out, err = run(capsys, name, "--ring", "a3_tilde", "--deg", deg, *rest)
        assert (code, out, err) == (2, "", f"error: --deg {deg} is outside 0..6, the degrees of 'a3_tilde'\n")

    @pytest.mark.parametrize("command", [("pairing",), ("solve-class", "--values", "1")])
    def test_codimension_with_no_standard_monomial_is_usage_error(self, capsys, tmp_path, command):
        # Every weight is 2, so degree 1 is empty although it lies between 0 and the top degree 2.
        path = tmp_path / "even.json"
        data = {
            "name": "even",
            "generators": [{"name": "y", "degree": 2}],
            "relations": ["y^2"],
            "normalization": {"element": "y", "value": "1"},
        }
        path.write_text(json.dumps(data))
        name, *rest = command
        code, out, err = run(capsys, name, "--ring", str(path), "--deg", "1", *rest)
        assert (code, out, err) == (2, "", "error: no standard monomials in degree 1 of 'even'\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("degree", "--ring", "a3_tilde", "(2*lambda1)^7"), "expected degree 6, got 7"),
            (("degree", "--ring", "a3_tilde", "lambda1*(lambda1+sigma1)^6"), "expected degree 6, got 7"),
            (
                ("pairing", "--ring", "a3_tilde", "--deg", "5", "--rows", "(lambda1+sigma1)^7", "--cols", "lambda1"),
                "row 0 has degree 7, expected 5",
            ),
            (
                ("solve-class", "--ring", "a3_tilde", "--deg", "5", "--values", "1", "0", "--probes", "lambda1", "(lambda1+sigma1)^7"),
                "probe 1 has degree 7, expected 1",
            ),
        ],
        ids=["degree-power", "degree-product", "pairing-row", "solve-class-probe"],
    )
    def test_class_above_the_top_degree_is_usage_error(self, capsys, argv, message):
        # Read with the socle truncation of `nf`, these classes became 0:
        # `degree` printed 0 and `solve-class` reported a singular pairing.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_degree_of_a_huge_power_is_bounded(self, capsys):
        code, out, err = run(capsys, "degree", "--ring", "a3_tilde", "(lambda1+sigma1)^100000")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "MAX_PRODUCT_PAIRS" in err

    @pytest.mark.parametrize("values", [("1/2,",), (",1/2",), ("1/2", ","), (" , 1/2 ,, ",)])
    def test_empty_comma_pieces_are_skipped(self, capsys, values):
        code, out, err = run(capsys, "solve-class", "--ring", "a1_tilde", "--deg", "1", "--values", *values)
        assert (code, out, err) == (0, "sigma1\n", "")

    @pytest.mark.parametrize("values", [(",",), (",", " ,, ")])
    def test_no_values_is_usage_error(self, capsys, values):
        code, out, err = run(capsys, "solve-class", "--ring", "a1_tilde", "--deg", "1", "--values", *values)
        assert (code, out, err) == (2, "", "error: no pairing values given\n")

    def test_solve_class_with_explicit_probes(self, capsys):
        # deg(2*x) = 1 makes x the class of degree 1/2, sigma1.
        code, out, err = run(capsys, "solve-class", "--ring", "a1_tilde", "--deg", "1", "--values", "1", "--probes", "2")
        assert (code, out, err) == (0, "sigma1\n", "")

    def test_directory_as_ring_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "hilbert", "--ring", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid ring spec:\n") and "cannot read" in err

    def test_closed_stdout_is_usage_error(self, capsys, monkeypatch):
        # As in `avchow hilbert --ring a3_tilde --max 10000000 | head -c 10`.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = cli.main(["hilbert", "--ring", "a3_tilde", "--max", "10000000"])
        assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")
