"""The references in ``tests/oracles.py`` stay independent of the kernels they check."""

import ast
from pathlib import Path

from avchow import AvchowError, errors

ORACLES = Path(__file__).resolve().with_name("oracles.py")

# Package methods that some oracle stands in for; calling one would make
# the comparison check the code against itself.  Only attribute calls are
# scanned: a bare name is the oracle's own function, since importing a
# package function is refused on its own.
KERNELS = {
    "decompose",
    "pushforward",
    "push_combination",
    "degree",
    "pairing_matrix",
    "solve_class",
    "det_exact",
    "solve_exact",
    "add_scaled",
    "apply_linear",
    "integer_terms",
}

ALLOWED_IMPORTS = {"Polynomial"} | {
    name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, AvchowError)
}


def _problems(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in KERNELS:
                yield f"line {node.lineno} calls {ast.unparse(node.func)}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "avchow":
            for alias in node.names:
                if node.module != "avchow" or alias.name not in ALLOWED_IMPORTS:
                    yield f"line {node.lineno} imports {alias.name} from {node.module}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "avchow":
                    yield f"line {node.lineno} imports {alias.name}"


def test_oracles_call_no_kernel_they_check():
    assert list(_problems(ast.parse(ORACLES.read_text(encoding="utf-8")))) == []


def test_the_scan_sees_each_kind_of_dependence():
    source = """
from avchow import Polynomial, DegreeError, QuotientRing
from avchow.poly import apply_linear
import avchow.linalg
relative.decompose(p)
avchow.poly.apply_linear(terms, images)
functional.degree(p)
ring.normal_form(p)
decompose(relative, p)
"""
    assert list(_problems(ast.parse(source))) == [
        "line 2 imports QuotientRing from avchow",
        "line 3 imports apply_linear from avchow.poly",
        "line 4 imports avchow.linalg",
        "line 5 calls relative.decompose",
        "line 6 calls avchow.poly.apply_linear",
        "line 7 calls functional.degree",
    ]
