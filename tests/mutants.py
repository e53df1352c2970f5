"""Hand-made defects in the package, and whether the tests catch each one.

Run from the repository root (about a minute on 2 cores; it is not part
of the tier-1 suite, and the CI workflow runs it on Python 3.11):

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # only the named mutants
    python tests/mutants.py --list      # names and the tests run for each

Each mutant is a file under ``src/avchow``, an exact text that occurs
there once, the text that replaces it, and the test files that should
fail.  The script copies ``src``, ``tests`` and ``perfbench`` (whose
verifier output the tests compare with) into a temporary directory, runs
the named test files there once unchanged (they must pass), and then
applies one mutant at a time, runs its test files with pytest and puts the
file back.  A mutant is killed when pytest exits with status 1 (the tests
ran, and one failed or raised), and survives when its tests pass.  Any
other status (the tests could not be collected or imported, say) tells
nothing of the tests: the mutant is reported as broken.  The script
prints one line per mutant, and exits 2 if a mutant is broken, else 1 if
any survives.  A survivor marks a path no test reaches, or an oracle in
``tests/oracles.py`` that shares the defect.

``tests/test_mutants.py`` checks, in the tier-1 suite, that each old text
still occurs exactly once, so the list cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/avchow
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = (
    # Ring spec files: one reader per JSON shape.
    Mutant(
        "spec-integer-accepts-bool",
        "ringspec.py",
        "if isinstance(value, int) and not isinstance(value, bool) and ok(value):",
        "if isinstance(value, int) and ok(value):",
        ("test_ringspec.py",),
    ),
    Mutant(
        "spec-objects-eager",
        "ringspec.py",
        "        for i, item in enumerate(self.items(value, pointer, message, nonempty) or ()):\n"
        '            item_pointer = f"{pointer}/{i}"\n'
        "            if self.check(isinstance(item, Mapping), item_pointer, item_message):\n"
        "                yield item_pointer, item\n",
        "        listed = enumerate(self.items(value, pointer, message, nonempty) or ())\n"
        '        return iter([(f"{pointer}/{i}", item) for i, item in listed\n'
        '                     if self.check(isinstance(item, Mapping), f"{pointer}/{i}", item_message)])\n',
        ("test_ringspec_corpus.py",),
    ),
    Mutant(
        "spec-empty-rows-accepted",
        "ringspec.py",
        'item.get("rows"), f"{pointer}/rows", "expected a non-empty list of expressions", nonempty=True)',
        'item.get("rows"), f"{pointer}/rows", "expected a non-empty list of expressions", nonempty=False)',
        ("test_ringspec_corpus.py",),
    ),
    Mutant(
        "spec-homogeneity-check-dropped",
        "ringspec.py",
        'if self.check(poly.is_homogeneous, pointer, f"expression {value!r} is not homogeneous"):',
        "if True:",
        ("test_ringspec.py",),
    ),
    Mutant(
        "spec-identifier-prefix-match",
        "ringspec.py",
        'r"[A-Za-z_][A-Za-z0-9_]*").fullmatch',
        'r"[A-Za-z_][A-Za-z0-9_]*").match',
        ("test_ringspec.py",),
    ),
    Mutant(
        "spec-class-pointer-unescaped",
        "ringspec.py",
        '.replace("~", "~0").replace("/", "~1")',
        "",
        ("test_ringspec.py",),
    ),
    Mutant(
        "spec-flag-accepts-strings",
        "ringspec.py",
        "if isinstance(value, bool):",
        "if isinstance(value, (bool, str)):",
        ("test_ringspec.py",),
    ),
    # Facts read off the entries, not declared.
    Mutant(
        "grid-rows-degree-unchecked",
        "ringspec.py",
        "len(codims) == 1 and None not in codims",
        "None not in codims",
        ("test_ringspec_corpus.py",),
    ),
    Mutant(
        "grid-zero-row-accepted",
        "ringspec.py",
        "len(codims) == 1 and None not in codims",
        "len(codims) == 1",
        ("test_ringspec_corpus.py",),
    ),
    Mutant(
        "entry-always-checkable",
        "ringspec.py",
        "return self.element is not None",
        "return True",
        ("test_catalog.py",),
    ),
    Mutant(
        "chern-relations-not-appended",
        "ringspec.py",
        "    return tuple(expand_chern_identity(genus, gens))\n",
        "    return ()\n",
        ("test_ringspec.py",),
    ),
    # The kernel refuses what is not Artinian.
    Mutant(
        "not-artinian-accepted",
        "quotient.py",
        "                if lacking:\n                    raise DegreeError(",
        "                if lacking:\n"
        "                    return GroebnerBasis(gens, (), (), stats), -1, {}, {}\n"
        "                    raise DegreeError(",
        ("test_quotient.py", "test_sweep.py"),
    ),
    # One elimination keeps each degree's rows in reduced echelon form.
    Mutant(
        "back-elimination-skipped",
        "quotient.py",
        "if lead in other:",
        "if False:",
        ("test_sweep.py",),
    ),
    Mutant(
        "pivot-not-normalized",
        "quotient.py",
        "tail = row if factor == 1 else {mono: c / factor for mono, c in row.items()}",
        "tail = row",
        ("test_sweep.py",),
    ),
    Mutant(
        "first-pivot-only-substituted",
        "quotient.py",
        "for pivot in [m for m in row if m in tails]:",
        "for pivot in [m for m in row if m in tails][:1]:",
        ("test_sweep.py",),
    ),
    Mutant(
        "zero-rows-uncounted",
        "quotient.py",
        "            stats.zero_rows += 1\n",
        "",
        ("test_sweep.py",),
    ),
    Mutant(
        "one-candidate-per-monomial",
        "quotient.py",
        "return [member for a, member in enumerate(under) if group[a] == a]",
        "return under[:1]",
        ("test_sweep.py",),
    ),
    Mutant(
        "sweep-leads-out-of-step",
        "quotient.py",
        "tuple(lead for lead, _ in elements), stats",
        "tuple(sorted(lead for lead, _ in elements)), stats",
        ("test_sweep.py",),
    ),
    Mutant(
        "pure-power-test-negated",
        "quotient.py",
        "                if lacking:",
        "                if not lacking:",
        ("test_quotient.py", "test_sweep.py"),
    ),
    Mutant(
        "sweep-stops-after-one-empty-degree",
        "quotient.py",
        "if full_run >= window:",
        "if full_run >= 1:",
        ("test_sweep.py",),
    ),
    Mutant(
        "monomial-cap-at-equality",
        "quotient.py",
        "if looked > MAX_SWEEP_MONOMIALS:",
        "if looked >= MAX_SWEEP_MONOMIALS:",
        ("test_sweep.py",),
    ),
    Mutant(
        "standard-cap-at-equality",
        "quotient.py",
        "if found > MAX_STANDARD_MONOMIALS:",
        "if found >= MAX_STANDARD_MONOMIALS:",
        ("test_quotient.py",),
    ),
    Mutant(
        "degree-cap-at-equality",
        "quotient.py",
        "if degree > MAX_SWEEP_DEGREES:",
        "if degree >= MAX_SWEEP_DEGREES:",
        ("test_quotient.py",),
    ),
    Mutant(
        "presentation-relation-generators-unchecked",
        "quotient.py",
        "if relation.gens != gens:",
        "if False:",
        ("test_quotient.py",),
    ),
    Mutant(
        "rank-one-refusal-dropped",
        "quotient.py",
        "if len(basis) != 1:",
        "if False:",
        ("test_quotient.py",),
    ),
    Mutant(
        "equivalence-backward-relations-unchecked",
        "quotient.py",
        "        if not a.contains(relation.substitute(backward)):\n            return False\n",
        "        pass\n",
        ("test_quotient.py",),
    ),
    Mutant(
        "equivalence-first-round-trip-unchecked",
        "quotient.py",
        "if not a.classes_equal(round_trip, a.gen(name)):",
        "if False:",
        ("test_quotient.py",),
    ),
    Mutant(
        "equivalence-second-round-trip-unchecked",
        "quotient.py",
        "if not b.classes_equal(round_trip, b.gen(name)):",
        "if False:",
        ("test_quotient.py",),
    ),
    # Integers on the calculator's hot path: degrees, rendering, parsing.
    Mutant(
        "degree-homogeneity-check-dropped",
        "quotient.py",
        "                if sum(map(mul, mono, weights)) != top_degree:\n"
        '                    raise DegreeError(f"expected degree {top_degree}, got {p.weighted_degree()}")\n',
        "",
        ("test_quotient.py",),
    ),
    Mutant(
        "degree-coefficient-denominators-ignored",
        "quotient.py",
        "if coeff.denominator == denominator:",
        "if True:",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "degree-common-denominator-dropped",
        "quotient.py",
        "return Fraction(numerator, denominator * self._denominator)",
        "return Fraction(numerator, denominator)",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "rendered-sign-wrong",
        "poly.py",
        'chunks.append(f"+ {body}" if numerator > 0 else f"- {body}")',
        'chunks.append(f"+ {body}" if numerator < 0 else f"- {body}")',
        ("test_poly.py",),
    ),
    Mutant(
        "rendered-unit-coefficient-wrong",
        "poly.py",
        "elif magnitude != 1 or not factors:",
        "elif magnitude != 1:",
        ("test_poly.py",),
    ),
    Mutant(
        "named-class-generator-check-removed",
        "exprparse.py",
        "if named.gens is not gens and named.gens != gens:",
        "if False:",
        ("test_exprparse.py",),
    ),
    Mutant(
        "literal-digit-bound-removed",
        "exprparse.py",
        "if len(word) > MAX_LITERAL_DIGITS and word[0].isdigit():",
        "if False:",
        ("test_exprparse.py", "test_cli.py"),
    ),
    Mutant(
        "nesting-bound-off-by-one",
        "exprparse.py",
        "if depth == MAX_NESTING:",
        "if depth > MAX_NESTING:",
        ("test_exprparse.py",),
    ),
    Mutant(
        "zero-denominator-check-removed",
        "exprparse.py",
        "if not denominator:",
        "if False:",
        ("test_exprparse.py",),
    ),
    Mutant(
        "negative-exponent-check-removed",
        "exprparse.py",
        'if word == "-":\n        raise ParseError("negative exponent"',
        'if False:\n        raise ParseError("negative exponent"',
        ("test_exprparse.py",),
    ),
    Mutant(
        "out-of-grammar-search-removed",
        "exprparse.py",
        "outside = _OUTSIDE.search(text)",
        "outside = None",
        ("test_exprparse.py",),
    ),
    Mutant(
        "final-fraction-pass-removed",
        "exprparse.py",
        "        if type(coeff) is int:\n            terms[mono] = Fraction(coeff)",
        "        pass",
        ("test_exprparse.py", "test_quotient.py"),
    ),
    Mutant(
        "single-term-power-exponent-wrong",
        "poly.py",
        "mono = tuple(e * exponent for e in mono)",
        "mono = tuple(e * (exponent - 1) for e in mono)",
        ("test_exprparse.py", "test_poly.py"),
    ),
    Mutant(
        "product-common-scale-dropped",
        "poly.py",
        "(a, scale_a), (b, scale_b) = integer_terms(a), integer_terms(b)",
        "scale_a = scale_b = 1",
        ("test_poly.py",),
    ),
    Mutant(
        "keep-ignored-in-product",
        "poly.py",
        "product = {m: c for m, c in product.items() if m in keep}",
        "product = {m: c for m, c in product.items()}",
        ("test_cli.py",),
    ),
    Mutant(
        "mul-unguarded",
        "poly.py",
        "        return Polynomial._raw(self.gens, truncated_product(self._terms, self._coerce(other)._terms))\n",
        "        product: dict[Monomial, Fraction] = {}\n"
        "        for mono_a, coeff_a in self._terms.items():\n"
        "            for mono_b, coeff_b in self._coerce(other)._terms.items():\n"
        "                mono = tuple(map(add, mono_a, mono_b))\n"
        "                product[mono] = product.get(mono, 0) + coeff_a * coeff_b\n"
        "        return Polynomial._raw(self.gens, {m: c for m, c in product.items() if c})\n",
        ("test_poly.py",),
    ),
    Mutant(
        "keep-checked-after-power",
        "poly.py",
        "        if keep is not None and mono not in keep:\n"
        "            return {}\n"
        "        return {mono: rational_power(coeff, exponent)}\n",
        "        power = rational_power(coeff, exponent)\n"
        "        if keep is not None and mono not in keep:\n"
        "            return {}\n"
        "        return {mono: power}\n",
        ("test_exprparse.py",),
    ),
    # Integer linear algebra: pairings, class recovery, determinants.
    Mutant(
        "bareiss-sign-flip",
        "linalg.py",
        "            sign = -sign\n",
        "",
        ("test_linalg.py",),
    ),
    Mutant(
        "determinant-row-scales-dropped",
        "linalg.py",
        "        scale *= row_scale\n",
        "",
        ("test_linalg.py",),
    ),
    Mutant(
        "integer-row-lcm-dropped",
        "linalg.py",
        "scale = lcm(*[x.denominator for x in values])",
        "scale = max(x.denominator for x in values)",
        ("test_linalg.py",),
    ),
    Mutant(
        "bareiss-pivot-division-dropped",
        "linalg.py",
        "[(lead * x - row[0] * y) // previous for x, y in zip(row[1:], head[1:])]",
        "[lead * x - row[0] * y for x, y in zip(row[1:], head[1:])]",
        ("test_linalg.py",),
    ),
    Mutant(
        "solution-pivot-division-dropped",
        "linalg.py",
        "solution[col] = Fraction(rows[r][cols], rows[r][col])",
        "solution[col] = Fraction(rows[r][cols])",
        ("test_linalg.py",),
    ),
    Mutant(
        "inconsistency-checked-after-rank",
        "linalg.py",
        "    for r in range(rank, len(rows)):\n"
        "        if rows[r][cols]:\n"
        '            raise InconsistentSystemError("system has no exact solution")\n'
        "    if rank < cols:\n"
        '        raise SingularSystemError(f"system is rank deficient (rank {rank} of {cols})")\n',
        "    if rank < cols:\n"
        '        raise SingularSystemError(f"system is rank deficient (rank {rank} of {cols})")\n'
        "    for r in range(rank, len(rows)):\n"
        "        if rows[r][cols]:\n"
        '            raise InconsistentSystemError("system has no exact solution")\n',
        ("test_linalg.py",),
    ),
    Mutant(
        "pairing-ring-denominator-dropped",
        "quotient.py",
        "            row_scale *= self._denominator\n",
        "",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "pairing-column-scale-dropped",
        "quotient.py",
        "Fraction(self._pairing(row_terms, col_terms), row_scale * col_scale)",
        "Fraction(self._pairing(row_terms, col_terms), row_scale)",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "pairing-row-generator-check-removed",
        "quotient.py",
        "if element.gens != gens:",
        'if element.gens != gens and label != "row":',
        ("test_linear_maps.py",),
    ),
    Mutant(
        "pairing-column-generator-check-removed",
        "quotient.py",
        "if element.gens != gens:",
        'if element.gens != gens and label != "column":',
        ("test_linear_maps.py",),
    ),
    Mutant(
        "solve-class-equations-transposed",
        "quotient.py",
        "equations = self._matrix([p._terms for p in probes], [{m: 1} for m in basis])",
        "equations = self._matrix([{m: 1} for m in basis], [p._terms for p in probes])",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "solve-class-zero-terms-kept",
        "quotient.py",
        "{m: c for m, c in zip(basis, solution) if c}",
        "{m: c for m, c in zip(basis, solution)}",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "solve-class-basis-of-complement",
        "quotient.py",
        "basis = self.ring.standard_monomials(codimension)",
        "basis = self.ring.standard_monomials(self.top_degree - codimension)",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "solve-class-value-count-unchecked",
        "quotient.py",
        "if len(probes) != len(values):",
        "if False:",
        ("test_quotient.py",),
    ),
    Mutant(
        "solve-class-probe-degree-unchecked",
        "quotient.py",
        "if d is not None and d != expected:",
        'if d is not None and d != expected and label != "probe":',
        ("test_quotient.py",),
    ),
    Mutant(
        "integer-terms-unscaled",
        "poly.py",
        "return {key: c.numerator * (scale // c.denominator) for key, c in terms.items()}, scale",
        "return {key: c.numerator for key, c in terms.items()}, scale",
        ("test_linear_maps.py",),
    ),
    # Both pushforwards: validation, then one apply_linear over a table of images.
    Mutant(
        "apply-linear-keeps-cancelled-zeros",
        "poly.py",
        "                if total:\n                    result[target] = total\n"
        "                else:\n                    del result[target]\n",
        "                result[target] = total\n",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "fibre-slots-swapped",
        "pushforward.py",
        "(1, 0): rule.t_image, (0, 1): rule.s_image}",
        "(1, 0): rule.s_image, (0, 1): rule.t_image}",
        ("test_pushforward.py", "test_linear_maps.py"),
    ),
    Mutant(
        "fibre-images-not-reduced",
        "pushforward.py",
        "images[mono] = base.normal_form(factor * fiber)._terms",
        "images[mono] = (factor * fiber)._terms",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "fibre-table-skips-normal-form",
        "pushforward.py",
        "{mono: apply_linear(nf.items(), images) for mono, nf in combined._nf_cache.items()}",
        "{mono: images.get(mono, {}) for mono, nf in combined._nf_cache.items()}",
        ("test_pushforward.py", "test_linear_maps.py"),
    ),
    Mutant(
        "fibre-square-skipped-by-basis-check",
        "pushforward.py",
        "for exponents in ((2, 0), (1, 1), (0, 2)):",
        "for exponents in ((2, 0), (1, 1)):",
        ("test_pushforward.py",),
    ),
    Mutant(
        "fibre-rule-cache-not-reset",
        "pushforward.py",
        "if rule is not self._pushed_rule:",
        "if self._pushed_rule is None:",
        ("test_linear_maps.py",),
    ),
    Mutant(
        "torelli-linearity-check-dropped",
        "pushforward.py",
        "            if mono not in images:\n",
        "            if False:\n",
        ("test_pushforward.py", "test_linear_maps.py"),
    ),
    Mutant(
        "torelli-unit-codimension-wrong",
        "pushforward.py",
        "degrees.add(weights[mono.index(1)])",
        "degrees.add(sum(mono))",
        ("test_pushforward.py", "test_linear_maps.py"),
    ),
    Mutant(
        "torelli-mixed-codimension-check-dropped",
        "pushforward.py",
        "if len(degrees) > 1:",
        "if False:",
        ("test_pushforward.py", "test_linear_maps.py"),
    ),
    Mutant(
        "fibre-rule-grading-check-dropped",
        "pushforward.py",
        "if len(set(shifts.values())) > 1:",
        "if False:",
        ("test_pushforward.py",),
    ),
    Mutant(
        "shift-read-from-first-image-only",
        "pushforward.py",
        "            if not image.is_zero\n        }\n",
        "            if not image.is_zero\n        }\n        shifts = dict(list(shifts.items())[:1])\n",
        ("test_pushforward.py",),
    ),
    Mutant(
        "fibre-count-unchecked",
        "pushforward.py",
        "if len(fiber_names) != 2:",
        "if False:",
        ("test_pushforward.py",),
    ),
    Mutant(
        "fibre-base-weight-unchecked",
        "pushforward.py",
        "if combined.gens.weights[j] != weight:",
        "if False:",
        ("test_pushforward.py",),
    ),
    Mutant(
        "torelli-unknown-symbol-accepted",
        "pushforward.py",
        "if name not in symbols.names:",
        "if False:",
        ("test_pushforward.py",),
    ),
    Mutant(
        "torelli-image-ring-unchecked",
        "pushforward.py",
        "if image.gens != target.gens:",
        "if False:",
        ("test_pushforward.py",),
    ),
    # The verifier: every stored value compared with == is a Cell.
    Mutant(
        "identity-mode-ignored",
        "catalog.py",
        'return p if mode == "polynomial" else ring.normal_form(p)',
        "return ring.normal_form(p)",
        ("test_catalog.py",),
    ),
    Mutant(
        "solve-expected-not-normal-formed",
        "catalog.py",
        "expected = ring.normal_form(vector.class_poly)",
        "expected = vector.class_poly",
        ("test_catalog.py",),
    ),
    Mutant(
        "push-expected-not-normal-formed",
        "catalog.py",
        'expected = base.ring.normal_form(base.parse(case["expected"]))',
        'expected = base.parse(case["expected"])',
        ("test_catalog.py",),
    ),
    Mutant(
        "torelli-stack-degree-literal",
        "catalog.py",
        "(push.image(symbol) / push.stack_degree).terms()",
        "(push.image(symbol) / 2).terms()",
        ("test_catalog.py",),
    ),
    Mutant(
        "half-image-stray-monomials-pass",
        "catalog.py",
        "if not extra:",
        "if True:",
        ("test_catalog.py",),
    ),
    Mutant(
        "integral-as-printed-count-not-flagged",
        "catalog.py",
        "if computed.denominator == 1:",
        "if False:",
        ("test_catalog.py",),
    ),
    Mutant(
        "duplicate-check-ids-accepted",
        "catalog.py",
        "if duplicates:",
        "if False:",
        ("test_catalog.py",),
    ),
    # Level counts, the Chern identity and the command line.
    Mutant(
        "group-order-integrality-unchecked",
        "levels.py",
        "if value.denominator != 1:",
        "if False:",
        ("test_levels.py",),
    ),
    Mutant(
        "chern-identity-weights-unchecked",
        "poly.py",
        'if gens.weights[gens.index(f"lambda{i}")] != i:',
        "if False:",
        ("test_poly.py",),
    ),
    Mutant(
        "cli-codimension-range-unchecked",
        "cli.py",
        "if not 0 <= deg <= functional.top_degree:",
        "if False:",
        ("test_cli.py",),
    ),
)


def _pytest(work: Path, tests: tuple[str, ...]) -> int:
    """Exit status of pytest on the given test files of the copy in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    return subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: src/avchow/{mutant.file}; {', '.join(mutant.tests)}")
        return 0
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] if argv else list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="avchow-mutants-") as scratch:
        work = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copytree(ROOT / "perfbench", work / "perfbench", ignore=ignore)  # the verifier's golden output
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        every_test = tuple(sorted({t for mutant in chosen for t in mutant.tests}))
        if _pytest(work, every_test) != 0:
            print("the unmutated tests fail; no mutant was run", file=sys.stderr)
            return 2
        survivors, broken = [], []
        for mutant in chosen:
            path = work / "src" / "avchow" / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"{mutant.name}: its old text does not occur exactly once", file=sys.stderr)
                return 2
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                status = _pytest(work, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            if status == 0:
                survivors.append(mutant.name)
                print(f"SURVIVED  {mutant.name}", flush=True)
            elif status == 1:
                print(f"killed  {mutant.name}", flush=True)
            else:
                broken.append(mutant.name)
                print(f"BROKEN  {mutant.name}: pytest exited with status {status}", flush=True)
    killed = len(chosen) - len(survivors) - len(broken)
    print(f"{killed} of {len(chosen)} mutants killed; {len(survivors)} survived; {len(broken)} broken")
    return 2 if broken else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
