"""Check execution and report aggregation."""

import json

from avchow.verify import FAIL, PASS, SKIPPED, Check, VerificationReport, run_checks


def make_check(check_id, status=PASS, group="g"):
    return Check(
        id=check_id,
        group=group,
        citation="somewhere",
        evaluate=lambda: ("want", "got", status),
    )


class TestCheck:
    def test_run_produces_result(self):
        result = make_check("a:1").run()
        assert result.id == "a:1"
        assert result.expected == "want"
        assert result.computed == "got"
        assert result.status == PASS

    def test_exceptions_become_failures(self):
        def boom():
            raise ZeroDivisionError("nope")

        check = Check(id="a:2", group="g", citation="c", evaluate=boom)
        result = check.run()
        assert result.status == FAIL
        assert result.expected == "(evaluation)"
        assert result.computed == "error: ZeroDivisionError: nope"


class TestReport:
    def test_sorted_by_id(self):
        report = run_checks([make_check("b"), make_check("a"), make_check("c")])
        assert [r.id for r in report.results] == ["a", "b", "c"]

    def test_counts_and_ok(self):
        report = run_checks(
            [
                make_check("a", PASS),
                make_check("b", FAIL),
                make_check("c", SKIPPED),
                make_check("d", PASS),
            ]
        )
        assert report.counts == {"pass": 2, "fail": 1, "skipped": 1}
        assert not report.ok
        assert len(report) == 4

    def test_ok_when_only_skips(self):
        report = run_checks([make_check("a", SKIPPED)])
        assert report.ok

    def test_json_schema(self):
        report = run_checks([make_check("a"), make_check("b", FAIL)])
        data = json.loads(report.to_json())
        assert set(data) == {"checks", "summary"}
        assert data["summary"] == {"pass": 1, "fail": 1, "skipped": 0}
        for entry in data["checks"]:
            assert set(entry) == {"id", "citation", "expected", "computed", "status"}

    def test_text_format(self):
        report = run_checks(
            [make_check("a"), make_check("b", FAIL), make_check("c", SKIPPED)]
        )
        lines = report.to_text().splitlines()
        assert lines[0].startswith("[PASS] a:")
        assert lines[1].startswith("[FAIL] b:")
        assert lines[2].startswith("[SKIP] c:")
        assert lines[-1] == "3 checks: 1 passed, 1 failed, 1 skipped"

    def test_empty_report(self):
        report = VerificationReport([])
        assert report.ok
        assert report.counts == {"pass": 0, "fail": 0, "skipped": 0}
