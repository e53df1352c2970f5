"""Lines of the package that the tier-1 suite never runs.

Run from the repository root (about three minutes on 2 cores; it is not part
of the tier-1 suite, and the CI workflow runs it on Python 3.11):

    python tests/coverage.py

The script starts the standard library's ``trace`` module, then runs the
tier-1 suite in process with pytest, so the tracer sees every line of
``src/avchow``, ``__init__.py`` included: nothing imports the package
before the tracer starts.  The executable lines of each module are read
from its compiled code objects (``co_lines()``), and each executable line
the suite did not run is printed as ``file:line``.  File names are made
absolute on both sides before they are compared.  CPython removes a trace
function that raises, so a test can leave the tracer off for every later
test; the script puts it back after each test and names the tests that
turned it off.

Hypothesis runs with no example database here: an example that ran slowly
under the tracer and missed its deadline is not saved, so the next run
does not replay it first.  A fresh checkout has no database either.  This
keeps one traced deadline miss from failing every later run; it does not
stop a first one.  Deadlines, example counts and strategies are the
tests' own.

The script exits 1 when the suite fails, when a line is unrun and not in
``ALLOWED`` below, or when a line in ``ALLOWED`` did run (the list cannot
rot).  Each entry of ``ALLOWED`` gives the reason its line cannot run
under a test.
"""

from __future__ import annotations

import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avchow"

ALLOWED = {
    "cli.py:352": "the __main__ guard; the tests call cli.main, and the console script imports it",
}


class OnlyThePackage:
    """The tracer's filter: ``names`` is true (ignore) for every file outside ``src/avchow``.

    ``trace.Trace``'s own filter (``ignoredirs``) caches its verdict by bare
    module name, so every ``__init__.py`` shares the verdict of the first
    one it meets, and the package's ``__init__.py`` would read as unrun.
    This one caches by file name.
    """

    def __init__(self):
        self._ignored: dict[str, bool] = {}

    def names(self, filename: str, modulename: str) -> bool:
        ignored = self._ignored.get(filename)
        if ignored is None:
            ignored = self._ignored[filename] = os.path.dirname(os.path.realpath(filename)) != str(PACKAGE)
        return ignored


class Retrace:
    """A pytest plugin that puts the tracer back after a test that turned it off."""

    def __init__(self, tracer: trace.Trace):
        self.tracer = tracer
        self.lost: list[str] = []

    def pytest_runtest_logfinish(self, nodeid: str) -> None:
        if sys.gettrace() is None:
            self.lost.append(nodeid)
            sys.settrace(self.tracer.globaltrace)


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the instructions of every code object compiled from ``path``."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main() -> int:
    if any(name == "avchow" or name.startswith("avchow.") for name in sys.modules):
        print("avchow was imported before the tracer started", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    from hypothesis import settings

    settings.register_profile("coverage", database=None)
    settings.load_profile("coverage")

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OnlyThePackage()
    retrace = Retrace(tracer)
    arguments = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]
    status = tracer.runfunc(pytest.main, arguments, plugins=[retrace])
    for nodeid in retrace.lost:
        print(f"the tracer was off after {nodeid}; it was put back")
    if status != 0:
        print(f"the tier-1 suite failed (pytest exit status {int(status)})", file=sys.stderr)
        return 1

    ran: set[tuple[str, int]] = {
        (os.path.realpath(filename), line) for filename, line in tracer.results().counts
    }
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        absolute = os.path.realpath(path)
        unrun.extend(f"{path.name}:{line}" for line in sorted(executable_lines(path)) if (absolute, line) not in ran)
    for key in unrun:
        print(f"unrun  {key}" + (f"  (allowed: {ALLOWED[key]})" if key in ALLOWED else ""))
    unexpected = [key for key in unrun if key not in ALLOWED]
    stale = [key for key in ALLOWED if key not in unrun]
    for key in stale:
        print(f"allowed but run  {key}; remove it from ALLOWED")
    print(f"{len(unrun)} unrun lines in src/avchow, {len(unexpected)} not allowed; {len(stale)} stale allowances")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
