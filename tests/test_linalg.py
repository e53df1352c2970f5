"""Exact determinant and solver on integer rows, against elimination on Fractions."""

import random
from fractions import Fraction

import pytest

from avchow import InconsistentSystemError, SingularSystemError
from avchow.linalg import det_exact, solve_exact

from oracles import det_by_fractions, solve_by_fractions


def random_entry(rng):
    """An int, a +-p/q or a zero."""
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.6:
        return rng.randint(-9, 9)
    if kind < 0.8:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**4))


def random_matrix(rng, rows, cols):
    return [[random_entry(rng) for _ in range(cols)] for _ in range(rows)]


def combination(rng, rows, width):
    """A random rational combination of the given rows (a zero row when there are none)."""
    total = [Fraction(0)] * width
    for row in rows:
        factor = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        total = [t + factor * x for t, x in zip(total, row)]
    return total


def singular(rng, n):
    """An n x n matrix with a zero row, a zero column, or a row combined from others."""
    matrix = random_matrix(rng, n, n)
    kind = rng.randrange(3)
    if kind == 0:
        matrix[rng.randrange(n)] = [0] * n
    elif kind == 1:
        col = rng.randrange(n)
        for row in matrix:
            row[col] = 0
    else:
        target = rng.randrange(n)
        others = [row for i, row in enumerate(matrix) if i != target]
        matrix[target] = combination(rng, rng.sample(others, rng.randint(0, len(others))), n)
    rng.shuffle(matrix)
    return matrix


def outcome(solve, matrix, rhs):
    """The solution, or the type and text of the error."""
    try:
        return solve(matrix, rhs)
    except (InconsistentSystemError, SingularSystemError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("n", range(8))
def test_determinants_match_fraction_elimination(n):
    rng = random.Random(1968 + n)
    matrices = [random_matrix(rng, n, n) for _ in range(40)]
    if n:
        matrices += [singular(rng, n) for _ in range(20)]
    seen_zero = False
    for matrix in matrices:
        det = det_exact(matrix)
        assert type(det) is Fraction
        assert det == det_by_fractions(matrix), matrix
        seen_zero = seen_zero or det == 0
    assert seen_zero == (n > 0)


def test_determinant_examples():
    assert det_exact([]) == 1
    assert det_exact([[Fraction(-3, 4)]]) == Fraction(-3, 4)
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]) == Fraction(1, 60)
    # Entries are int or Fraction only: a float or a string is refused, not made exact.
    for matrix, name in (([[0.1]], "float"), ([["1/2", 0], [0, 1]], "str"), ([[1, 0], [0, 0.5]], "float")):
        with pytest.raises(TypeError, match=f"^matrix entries must be int or Fraction, not {name}$"):
            det_exact(matrix)
    with pytest.raises(ValueError, match="square"):
        det_exact([[1, 2]])


def test_solutions_match_fraction_elimination():
    rng = random.Random(565)
    systems = []
    for n in range(1, 8):
        for _ in range(15):
            # Square, and mostly nonsingular.
            systems.append((random_matrix(rng, n, n), [random_entry(rng) for _ in range(n)]))
            # Overdetermined and consistent: extra rows combined from the others.
            matrix = random_matrix(rng, n, n)
            x = [random_entry(rng) for _ in range(n)]
            rhs = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in matrix]
            for _ in range(rng.randint(1, 3)):
                extra = combination(rng, [[*row, b] for row, b in zip(matrix[:n], rhs[:n])], n + 1)
                matrix.append(extra[:n])
                rhs.append(extra[n])
            order = list(range(len(matrix)))
            rng.shuffle(order)
            systems.append(([matrix[i] for i in order], [rhs[i] for i in order]))
            # The same, made inconsistent in one equation.
            bad = list(rhs)
            bad[rng.randrange(len(bad))] += Fraction(1, rng.randint(1, 5))
            systems.append((matrix, bad))
            # Rank deficient, with consistent and with arbitrary right-hand sides.
            deficient = singular(rng, n)
            systems.append((deficient, [random_entry(rng) for _ in range(n)]))
            systems.append((deficient, [0] * n))
            # Fewer equations than unknowns.
            systems.append((random_matrix(rng, n - 1 or 1, n + 1), [random_entry(rng) for _ in range(n - 1 or 1)]))
    kinds = set()
    for matrix, rhs in systems:
        found = outcome(solve_exact, matrix, rhs)
        assert found == outcome(solve_by_fractions, matrix, rhs), (matrix, rhs)
        if isinstance(found, list):
            assert all(type(x) is Fraction for x in found)
            kinds.add("solved")
        else:
            kinds.add(found[0])
    assert kinds == {"solved", InconsistentSystemError, SingularSystemError}


def test_solver_examples():
    assert solve_exact([[2, 0], [0, Fraction(1, 3)]], [1, 1]) == [Fraction(1, 2), Fraction(3)]
    # Inconsistency is reported before rank deficiency.
    with pytest.raises(InconsistentSystemError):
        solve_exact([[1, 1], [2, 2]], [1, 3])
    with pytest.raises(SingularSystemError, match=r"rank 1 of 2"):
        solve_exact([[1, 1], [2, 2]], [1, 2])
    with pytest.raises(SingularSystemError, match="empty system"):
        solve_exact([], [])
    with pytest.raises(ValueError, match="disagree in length"):
        solve_exact([[1]], [1, 2])
    # No unknowns: solvable exactly when every right-hand side is 0.
    assert solve_exact([[], []], [0, 0]) == []
    with pytest.raises(InconsistentSystemError):
        solve_exact([[]], [1])
    with pytest.raises(TypeError, match="^matrix entries must be int or Fraction, not str$"):
        solve_exact([["1/2"]], ["3/4"])
    with pytest.raises(TypeError, match="^matrix entries must be int or Fraction, not float$"):
        solve_exact([[2]], [0.5])
