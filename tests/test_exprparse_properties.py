"""Property tests for the expression evaluator.

The differential test draws expression trees over a catalog ring's
generators and named classes, renders them to text, and compares
``parse_expression`` with the value of the same tree built from
``Polynomial`` arithmetic, and with the tree evaluated at a rational point.
The fuzz test feeds hostile text and allows only a polynomial or a
``ParseError`` back.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avchow import ParseError, Polynomial, parse_expression
from avchow.catalog import RING_NAMES

# Expression trees are tuples: ("lit", Fraction), ("gen", name), ("named", name),
# ("neg", tree), ("+" | "-" | "*", left, right) and ("^", tree, exponent).

LITERALS = st.builds(Fraction, st.integers(0, 12), st.integers(1, 8))
EXPONENTS = st.integers(0, 4)


def trees(gen_names, named_names):
    leaves = [st.tuples(st.just("lit"), LITERALS), st.tuples(st.just("gen"), st.sampled_from(gen_names))]
    if named_names:
        leaves.append(st.tuples(st.just("named"), st.sampled_from(named_names)))

    def extend(children):
        return st.one_of(
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
            st.tuples(st.just("^"), children, EXPONENTS),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=8)


def render_literal(value):
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def render(tree):
    """Text of a tree with the fewest parentheses the grammar needs."""
    kind = tree[0]
    if kind == "neg":
        return "-" + render_term(tree[1])
    if kind in ("+", "-"):
        return f"{render(tree[1])} {kind} {render_term(tree[2])}"
    return render_term(tree)


def render_term(tree):
    kind = tree[0]
    if kind == "*":
        return f"{render_term(tree[1])}*{render_factor(tree[2])}"
    return render_factor(tree)


def render_factor(tree):
    kind = tree[0]
    if kind == "^":
        return f"{render_atom(tree[1])}^{tree[2]}"
    return render_atom(tree)


def render_atom(tree):
    kind = tree[0]
    if kind == "lit":
        return render_literal(tree[1])
    if kind in ("gen", "named"):
        return tree[1]
    return f"({render(tree)})"


def build(tree, loaded):
    """The tree's value from ``Polynomial`` arithmetic."""
    kind = tree[0]
    gens = loaded.ring.gens
    if kind == "lit":
        return gens.constant(tree[1])
    if kind == "gen":
        return gens.gen(tree[1])
    if kind == "named":
        return loaded.named[tree[1]]
    if kind == "neg":
        return -build(tree[1], loaded)
    if kind == "^":
        return build(tree[1], loaded) ** tree[2]
    left, right = build(tree[1], loaded), build(tree[2], loaded)
    return left + right if kind == "+" else left - right if kind == "-" else left * right


def evaluate(tree, point, loaded):
    """The tree's value at a point, in rational numbers only."""
    kind = tree[0]
    if kind == "lit":
        return tree[1]
    if kind == "gen":
        return point[tree[1]]
    if kind == "named":
        return evaluate_polynomial(loaded.named[tree[1]], point)
    if kind == "neg":
        return -evaluate(tree[1], point, loaded)
    if kind == "^":
        return evaluate(tree[1], point, loaded) ** tree[2]
    left, right = evaluate(tree[1], point, loaded), evaluate(tree[2], point, loaded)
    return left + right if kind == "+" else left - right if kind == "-" else left * right


def evaluate_polynomial(poly, point):
    total = Fraction(0)
    for mono, coeff in poly.terms():
        value = coeff
        for name, e in zip(poly.gens.names, mono):
            value *= point[name] ** e
        total += value
    return total


def assert_canonical(poly):
    """Every coefficient is a nonzero Fraction and every exponent vector is valid."""
    width = len(poly.gens)
    for mono, coeff in poly._terms.items():
        assert type(coeff) is Fraction and coeff != 0, (mono, coeff)
        assert type(mono) is tuple and len(mono) == width and all(type(e) is int and e >= 0 for e in mono)


@pytest.mark.parametrize("ring_name", RING_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_equals_polynomial_arithmetic(catalog, ring_name, data):
    loaded = catalog.ring(ring_name)
    names = loaded.ring.gens.names
    tree = data.draw(trees(names, sorted(loaded.named)), label="tree")
    text = render(tree)
    parsed = loaded.parse(text)
    assert parsed == build(tree, loaded), text
    assert_canonical(parsed)
    point = {name: Fraction(2 * i + 1, i + 2) for i, name in enumerate(names)}
    assert evaluate_polynomial(parsed, point) == evaluate(tree, point, loaded), text


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-lambda1*sigma1 + sigma1", lambda g, n: -g("lambda1") * g("sigma1") + g("sigma1")),
        ("1/2^3*sigma1", lambda g, n: g("sigma1") / 8),
        ("0*lambda1", lambda g, n: 0 * g("lambda1")),
        ("lambda1^0", lambda g, n: g("lambda1") ** 0),
        ("(0)^0", lambda g, n: g("lambda1") ** 0),
        ("0^0 - 0^2", lambda g, n: g("lambda1") ** 0),
        ("((-(lambda1 - sigma1))*((2)))^3", lambda g, n: (2 * (g("sigma1") - g("lambda1"))) ** 3),
        ("A111^2*lambda1 - 3*B3^1", lambda g, n: n["A111"] ** 2 * g("lambda1") - 3 * n["B3"]),
        ("2*lambda1^2*3/4*sigma1*lambda1", lambda g, n: Fraction(3, 2) * g("lambda1") ** 3 * g("sigma1")),
        ("(lambda1 - lambda1)*(sigma1 + 1)^4", lambda g, n: 0 * g("sigma1")),
    ],
)
def test_edge_cases(catalog, text, expected):
    loaded = catalog.ring("a3_tilde")
    parsed = loaded.parse(text)
    assert parsed == expected(loaded.ring.gens.gen, loaded.named)
    assert_canonical(parsed)


# Hostile text: the grammar's alphabet, whole identifiers of a3_tilde, some
# non-ASCII characters (a space, letters and digits that are not ASCII) and
# digits.  Exponents stay small: the text keeps at most two '^' and each
# exponent literal is below 4.  The evaluator expands (a + b)^N in full
# before any normal form, so a large N hangs; bounding that is left to
# evaluation inside the quotient ring.
HOSTILE_PIECES = [
    *"+-*^/() 0123456789_",
    "lambda1", "sigma1", "lambda3", "A111", "B3", "nosuch", "x9",
    " ", "λ", "é", "²", "٣", "１", "\t",
]


EXPONENT = re.compile(r"^([\s(+]*)([0-9]+)")


def small_exponents(text):
    """The text with its first two '^' kept, each exponent literal taken mod 4, and the other '^' dropped."""
    head, *tails = text.split("^")
    tails = [EXPONENT.sub(lambda m: m[1] + str(int(m[2]) % 4), tail) for tail in tails]
    return head + "^".join(["", *tails[:2]]) + "".join(tails[2:])


@settings(max_examples=300, deadline=1000)
@given(st.lists(st.sampled_from(HOSTILE_PIECES), max_size=30).map("".join).map(small_exponents))
def test_hostile_text_parses_or_raises_parse_error(catalog, text):
    loaded = catalog.ring("a3_tilde")
    try:
        parsed = parse_expression(text, loaded.ring.gens, loaded.named)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        return
    assert isinstance(parsed, Polynomial)
    assert_canonical(parsed)
