"""SymPy as an independent oracle for the nine catalog rings.

SymPy computes its own Groebner basis in graded reverse lexicographic
order, a different monomial order from the package's.  The Hilbert
function of a homogeneous ideal does not depend on the order, so counting
the monomials outside SymPy's leading monomials, by weighted degree, must
give ``hilbert_function``.  Each basis must also lie in the other's ideal.
Skipped when SymPy is not installed.
"""

from fractions import Fraction

import pytest

from avchow import Polynomial
from avchow.catalog import RING_NAMES
from avchow.groebner import reduce

from oracles import monomials_of_degree

sympy = pytest.importorskip("sympy")


def to_sympy(p, symbols):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(symbols, mono)))
            for mono, c in p._terms.items()
        )
    )


def from_sympy(poly, gens):
    return Polynomial(gens, {mono: Fraction(int(c.p), int(c.q)) for mono, c in poly.terms()})


@pytest.mark.parametrize("name", RING_NAMES)
def test_catalog_ring_against_sympy(catalog, name):
    ring = catalog.ring(name).ring
    gens = ring.gens
    symbols = sympy.symbols(gens.names)
    relations = [to_sympy(r, symbols) for r in ring.presentation.relations]
    oracle = sympy.groebner(relations, *symbols, order="grevlex", domain="QQ")

    leading = [poly.monoms(order="grevlex")[0] for poly in oracle.polys]
    top = ring.socle_degree + max(gens.weights) + 1
    counted = [
        sum(1 for m in monomials_of_degree(gens.weights, d) if not any(all(a <= b for a, b in zip(lm, m)) for lm in leading))
        for d in range(top + 1)
    ]
    assert counted == ring.hilbert_function(top)

    for element in ring.groebner.elements:
        assert oracle.contains(to_sympy(element, symbols)), str(element)
    for poly in oracle.polys:
        # The reference reduction, not ring.contains, which reads the sweep's own table.
        assert reduce(from_sympy(poly, gens), ring.groebner.elements).is_zero, str(poly)
