"""The mutation list of ``tests/mutants.py`` still matches the sources."""

from pathlib import Path

import pytest

from mutants import MUTANTS

SOURCES = Path(__file__).resolve().parents[1] / "src" / "avchow"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (SOURCES / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
