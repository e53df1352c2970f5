"""The benchmark's 460 calculator reference answers, pinned in the tests.

The queries and the answering code are the benchmark's own
(``perfbench/workloads.py``), and the answers are compared line by line with
``perfbench/calc_golden.txt``.  Both files are only read; the module is
compiled from its source, so no bytecode is written next to it.
"""

import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_reference_answers_match_golden():
    workloads = load_workloads()
    calc = workloads.CalcWarm(workloads.GOLDEN_SEED)
    golden = (PERFBENCH / "calc_golden.txt").read_text(encoding="utf-8").splitlines()
    assert len(calc.reference) == len(golden) == 460
    for index, (query, expected) in enumerate(zip(calc.reference, golden)):
        assert calc.answer_query(*query) == expected, f"reference query {index}: {query}"
