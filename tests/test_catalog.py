"""The built-in catalog: rings, scopes, and the full check suite."""

from fractions import Fraction
from functools import partial

import pytest

from avchow import RING_NAMES, Catalog, DegreeError, UnknownScopeError
from avchow import catalog as catalog_module
from avchow.catalog import (
    Cell,
    _basis_monomials,
    _cell_checks,
    _check_half_image_support,
    _check_mu_non_integer,
    _class_of,
    _compare,
    _degree,
)
from avchow.linalg import det_exact

from oracles import hilbert_series_oracle

EXPECTED_SKIPS = {
    "levels:mu:g2:l3:as-printed",
    "table:2b:sigma3",
    "table:3c:sigma6",
    "table:3c:sigma5*sigma1",
    "table:3c:sigma4*sigma2",
    "table:3c:sigma4*sigma1^2",
    "table:3d:lambda1*sigma5",
    "table:3d:lambda1*sigma4*sigma1",
}


class TestRings:
    def test_all_rings_load(self, catalog):
        for name in RING_NAMES:
            loaded = catalog.ring(name)
            assert loaded.name == name
            assert len(loaded.ring.gens) >= 1
            assert loaded.ring.presentation.relations

    def test_unknown_ring(self, catalog):
        with pytest.raises(KeyError):
            catalog.ring("a9_tilde")

    def test_rings_are_cached(self, catalog):
        assert catalog.ring("a2_tilde") is catalog.ring("a2_tilde")

    def test_hilbert_functions_match_independent_oracle(self, catalog):
        for name in RING_NAMES:
            loaded = catalog.ring(name)
            ring = loaded.ring
            if loaded.expected_hilbert is not None:
                top = len(loaded.expected_hilbert) - 1
            else:
                top = loaded.functional.top_degree if loaded.functional else 6
            staircase = ring.hilbert_function(top)
            oracle = hilbert_series_oracle(
                ring.gens.weights,
                [list(r.terms()) for r in ring.presentation.relations],
                top,
            )
            assert staircase == oracle, name

    def test_stated_hilbert_functions(self, catalog):
        stated = {
            "a1_tilde": [1, 1],
            "a2_tilde": [1, 2, 2, 1],
            "a3_tilde": [1, 2, 4, 6, 4, 2, 1],
            "a3_taut": [1, 1, 1, 1],
            "a2_partial": [1, 2, 1, 0],
            "a3_partial": [1, 2, 3, 3, 1, 0],
        }
        for name, dims in stated.items():
            ring = catalog.ring(name).ring
            assert ring.hilbert_function(len(dims) - 1) == dims

    def test_degree_normalizations(self, catalog):
        cases = {
            "a1_tilde": ("sigma1", Fraction(1, 2)),
            "a2_tilde": ("lambda1^3", Fraction(1, 2880)),
            "a3_tilde": ("lambda1^6", Fraction(1, 181440)),
        }
        for name, (expr, value) in cases.items():
            loaded = catalog.ring(name)
            assert loaded.functional.degree(loaded.parse(expr)) == value


class TestTorelli:
    def test_symbol_inventory(self, catalog):
        data = catalog.torelli()
        assert len(data.symbols) == 24
        by_codim = {}
        for name, weight in zip(data.symbols.names, data.symbols.weights):
            by_codim.setdefault(weight, []).append(name)
        assert len(by_codim[1]) == 3
        assert len(by_codim[2]) == 9
        assert len(by_codim[3]) == 12

    def test_images_land_in_target(self, catalog):
        data = catalog.torelli()
        target = catalog.ring(data.raw["target"])
        for name in data.symbols.names:
            image = data.push.image(name)
            assert image.gens == target.ring.gens

    def test_stack_degree(self, catalog):
        assert catalog.torelli().push.stack_degree == 2

    def test_table_4a_divides_by_the_stack_degree(self):
        fresh = Catalog()
        fresh.torelli().push.stack_degree = 1
        cells = fresh.table_4a_cells()
        assert cells and all(cell.recompute() == 2 * cell.expected for cell in cells)


class TestSurface:
    def test_wired_to_genus_two_base(self, catalog):
        surface = catalog.fibered_surface()
        assert surface.base.name == "a2_tilde"
        assert surface.combined.name == "x2_tilde"
        # The fibre generators are read off the rings, and the total space
        # integrates in combined degree 5: the base socle degree 3 plus the
        # rule's shift 2.
        assert surface.relative.fiber_names == ("t", "s")
        functional = surface.functional
        assert functional.ring is surface.combined.ring
        assert functional.degree(surface.combined.parse("lambda1^3*s")) != 0
        with pytest.raises(DegreeError, match="^expected degree 5, got 4$"):
            functional.degree(surface.combined.parse("lambda1^2*s"))

    def test_functional_is_the_pushed_top_monomial(self, catalog):
        # The one top standard monomial, normalized by the base degree of its
        # pushforward; its pairings are perfect in every codimension.
        surface = catalog.fibered_surface()
        functional = surface.functional
        assert functional.reference_element == surface.combined.parse("s*sigma1^3")
        assert functional.reference_value == Fraction(-11, 12)
        pushed = surface.relative.pushforward(functional.reference_element, surface.rule)
        assert surface.base.functional.degree(pushed) == functional.reference_value
        ring = surface.combined.ring
        determinants = [
            det_exact(functional.pairing_matrix(k, ring.standard_basis_polynomials(k), ring.standard_basis_polynomials(5 - k)))
            for k in range(6)
        ]
        assert determinants == [
            Fraction(-11, 12),
            Fraction(121, 414720),
            Fraction(-1331, 14332723200),
            Fraction(-1331, 14332723200),
            Fraction(121, 414720),
            Fraction(-11, 12),
        ]

    def test_fiber_cube_pushforward(self, catalog):
        surface = catalog.fibered_surface()
        element = surface.combined.parse("t^3")
        image = surface.relative.pushforward(element, surface.rule)
        assert image == surface.base.parse("1/4*sigma1")


class TestScopes:
    def test_scope_inventory(self, catalog):
        # "all", then each check's parent and group, in the order the checks are built.
        assert catalog.scopes() == [
            "all",
            "a1_tilde",
            "a2_tilde",
            "table:2a",
            "table:2b",
            "a2_tilde_2gen",
            "a2_partial",
            "a3_tilde",
            "table:3c",
            "table:3d",
            "table:3e",
            "table:3f",
            "table:3g",
            "table:3h",
            "a3_taut",
            "a3_partial",
            "lambda1_quartic",
            "x2_tilde",
            "table:3a",
            "table:3b",
            "torelli",
            "table:4a",
            "equivalences",
            "levels",
        ]

    def test_check_ids_unique(self, catalog):
        ids = [check.id for check in catalog.checks()]
        assert len(ids) == len(set(ids))

    def test_table_3g_has_36_entry_checks(self, catalog):
        assert len(catalog.select("table:3g")) == 36

    def test_table_3b_has_25_entry_checks(self, catalog):
        assert len(catalog.select("table:3b")) == 25

    def test_bare_table_id_normalized(self, catalog):
        assert len(catalog.select("3g")) == 36

    def test_ring_scope_includes_table_children(self, catalog):
        ids = {check.id for check in catalog.select("a3_tilde")}
        assert "a3_tilde:hilbert" in ids
        assert "a3_tilde:det:3g" in ids
        assert any(i.startswith("table:3g:") for i in ids)
        assert any(i.startswith("table:3c:") for i in ids)

    def test_torelli_scope_includes_table_4a(self, catalog):
        ids = {check.id for check in catalog.select("torelli")}
        assert any(i.startswith("table:4a:") for i in ids)
        assert "torelli:faber-cube:coefficients" in ids

    def test_unknown_scope(self, catalog):
        with pytest.raises(UnknownScopeError):
            catalog.select("table:9z")
        with pytest.raises(UnknownScopeError):
            catalog.run_verification("bogus")


class TestRunVerification:
    def test_everything_passes(self, catalog):
        report = catalog.run_verification("all")
        assert report.counts["fail"] == 0
        assert report.counts["pass"] > 200

    def test_skip_inventory_is_exact(self, catalog):
        report = catalog.run_verification("all")
        skipped = {r.id for r in report.results if r.status == "skipped"}
        assert skipped == EXPECTED_SKIPS

    def test_output_deterministic_across_instances(self, catalog):
        fresh = Catalog()
        assert (
            fresh.run_verification("all").to_json()
            == catalog.run_verification("all").to_json()
        )

    def test_scoped_runs_partition_cleanly(self, catalog):
        total = len(catalog.select("all"))
        by_group = sum(
            sum(1 for c in catalog.checks() if c.group == scope)
            for scope in catalog.scopes()
            if scope != "all"
        )
        assert by_group == total

    def test_citations_present(self, catalog):
        report = catalog.run_verification("all")
        assert all(r.citation for r in report.results)


class TestCells:
    """Every stored value compared with ``==`` is a Cell, judged by one function."""

    # The checks whose verdict is not ``==`` keep their own evaluations.
    NOT_EQUALITY = (":det:", ":support", "equivalences:", "levels:identity:", "levels:mu:g2:l3:as-printed")

    def test_every_equality_check_is_a_cell(self, catalog):
        own = [check.id for check in catalog.checks() if check.evaluate.func is not _compare]
        assert own and all(any(mark in cid for mark in self.NOT_EQUALITY) for cid in own)
        cells = {check.id for check in catalog.checks()} - set(own)
        for cid in ("a3_tilde:hilbert", "a3_tilde:normalization", "a3_tilde:identity:beta3-quarter",
                    "a3_tilde:solve:B3", "x2_tilde:push:t^3", "torelli:identity:qi-is-A111",
                    "levels:gamma:g2:l3", "levels:mu:g1:l3:as-printed"):
            assert cid in cells

    def test_identity_sides_follow_the_mode(self, catalog):
        loaded = catalog.ring("a3_tilde")
        lhs, rhs = loaded.parse("lambda1^4"), loaded.parse("8*lambda1*lambda3")
        assert _class_of(loaded.ring, "class", lhs) == _class_of(loaded.ring, "class", rhs)
        assert _class_of(loaded.ring, "polynomial", lhs) is lhs
        assert _class_of(loaded.ring, "polynomial", lhs) != _class_of(loaded.ring, "polynomial", rhs)

    def test_a_recompute_that_raises_is_a_failure_row(self, catalog):
        element = catalog.ring("a3_taut").parse("lambda1^3")
        cell = Cell("degree:lambda1^3", "a stored degree", Fraction(1), partial(_degree, None, element))
        (check,) = _cell_checks([cell], "a3_taut", "a3_taut")
        result = check.run()
        assert result.id == "a3_taut:degree:lambda1^3"
        assert (result.expected, result.computed, result.status) == (
            "(evaluation)", "error: DegreeError: no degree functional on this ring", "fail"
        )

    def test_a_class_that_differs_shows_both_normal_forms(self, catalog):
        loaded = catalog.ring("a3_tilde")
        ring, b3 = loaded.ring, loaded.named["B3"]
        cell = Cell("solve:B3", "a recovered class", ring.normal_form(b3), partial(_class_of, ring, "class", 2 * b3))
        (check,) = _cell_checks([cell], "a3_tilde", "a3_tilde")
        result = check.run()
        assert result.status == "fail"
        assert result.expected == "-92/3*lambda2*sigma1 + 420*lambda3 - 1/12*sigma1^3 + 11/36*sigma1*sigma2"
        assert result.computed == "-184/3*lambda2*sigma1 + 840*lambda3 - 1/6*sigma1^3 + 11/18*sigma1*sigma2"


class TestOwnEvaluations:
    """The checks whose verdict is not ``==``, and the guards of the suite, each made to fail."""

    def test_duplicate_check_ids_are_refused(self, monkeypatch):
        fresh = Catalog()
        level_checks = fresh._level_checks
        monkeypatch.setattr(fresh, "_level_checks", lambda: level_checks()[-1:] * 2)
        with pytest.raises(ValueError, match=r"^duplicate check ids: \['levels:identity:l7'\]$"):
            fresh.checks()

    def test_basis_labels_must_be_monic(self, catalog):
        gens = catalog.ring("a3_tilde").ring.gens
        assert _basis_monomials(["lambda3", "lambda1^3"], gens) == [(0, 0, 1, 0, 0), (3, 0, 0, 0, 0)]
        with pytest.raises(ValueError, match="basis entry '2\\*lambda3' is not monic"):
            _basis_monomials(["lambda1^3", "2*lambda3"], gens)

    def test_stray_monomials_of_a_half_image_are_a_failure_row(self, catalog):
        # qc's half image is 30*lambda1^2*sigma1 - 6*lambda1*sigma2.
        data = catalog.torelli()
        labels = data.raw["table_4a"]["basis"]
        basis = _basis_monomials(labels, data.push.target.gens)
        assert _check_half_image_support(data.push, "qc", frozenset(basis))[2] == "pass"
        assert labels[3] == "lambda1*sigma2"
        without = frozenset(basis) - {basis[3]}
        assert _check_half_image_support(data.push, "qc", without) == (
            "support within the basis columns", "stray monomials: lambda1*sigma2", "fail"
        )

    def test_an_integral_as_printed_count_is_a_failure_row(self, monkeypatch):
        assert _check_mu_non_integer(2, 3)[2] == "skipped"
        monkeypatch.setattr(catalog_module, "cusp_count_mu", lambda genus, level, convention: Fraction(40))
        assert _check_mu_non_integer(2, 3) == ("a non-integral value, flagged but not asserted", "40", "fail")
