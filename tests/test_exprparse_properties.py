"""Property tests for the expression evaluator.

The differential test draws expression trees over a catalog ring's
generators and named classes, renders them to text, and compares
``parse_expression`` with the value of the same tree built from
``Polynomial`` arithmetic, with the tree evaluated at a rational point, and
with the same text parsed with the socle truncation.  The large-exponent
test lets the same trees carry exponents up to 10^6, which only the socle
truncation makes cheap, and compares the truncated parse with the tree
evaluated in the quotient ring, one normal form per operation.  The fuzz
test feeds hostile text and allows only a polynomial or a ``ParseError``
back.  The scanner test compares the parser's tokens, and its answers and
error positions on arbitrary text, with a character-by-character
reference.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avchow import AvchowError, GeneratorSet, ParseError, Polynomial, SizeError, parse_expression
from avchow.catalog import RING_NAMES
from avchow.exprparse import _position, _scan

from helpers import monomials_up_to
from oracles import ScanError, scan_expression

# Expression trees are tuples: ("lit", Fraction), ("gen", name), ("named", name),
# ("neg", tree), ("+" | "-" | "*", left, right) and ("^", tree, exponent).

LITERALS = st.builds(Fraction, st.integers(0, 12), st.integers(1, 8))
EXPONENTS = st.integers(0, 4)
LARGE_EXPONENTS = st.integers(0, 10**6)


def trees(gen_names, named_names, exponents=EXPONENTS):
    leaves = [st.tuples(st.just("lit"), LITERALS), st.tuples(st.just("gen"), st.sampled_from(gen_names))]
    if named_names:
        leaves.append(st.tuples(st.just("named"), st.sampled_from(named_names)))

    def extend(children):
        return st.one_of(
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
            st.tuples(st.just("^"), children, exponents),
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


def product_in_quotient(left, right, ring):
    """The normal form of left * right.

    A pair of terms whose product lies above the socle degree is 0 in the
    quotient, so it is dropped before its coefficients are multiplied: the
    product of two large coefficients there would pass the size cap of
    ``Polynomial`` arithmetic and tell nothing of the class.
    """
    gens = ring.gens
    terms = {}
    for mono_a, coeff_a in left.terms():
        for mono_b, coeff_b in right.terms():
            mono = tuple(a + b for a, b in zip(mono_a, mono_b))
            if gens.weighted_degree(mono) <= ring.socle_degree:
                terms[mono] = terms.get(mono, 0) + coeff_a * coeff_b
    return ring.normal_form(Polynomial(gens, terms))


def build_in_quotient(tree, loaded):
    """The tree's normal form, taken after every operation; powers by repeated squaring."""
    ring = loaded.ring
    kind = tree[0]
    if kind in ("lit", "gen", "named"):
        return ring.normal_form(build(tree, loaded))
    if kind == "neg":
        return -build_in_quotient(tree[1], loaded)
    if kind == "^":
        base, exponent = build_in_quotient(tree[1], loaded), tree[2]
        result = ring.gens.one()
        while exponent:
            if exponent & 1:
                result = product_in_quotient(result, base, ring)
            exponent >>= 1
            if exponent:
                base = product_in_quotient(base, base, ring)
        return result
    left, right = build_in_quotient(tree[1], loaded), build_in_quotient(tree[2], loaded)
    return left + right if kind == "+" else left - right if kind == "-" else product_in_quotient(left, right, ring)


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


def assert_refused_product_matches_quotient(loaded, tree, text, err):
    """The untruncated parse refused a product past the cap; the truncated one must still be right.

    Exponents up to 4 on sums of named classes, as in ``((lambda1 + A111)^3)^4``
    on a3_tilde, can expand past ``poly.MAX_PRODUCT_PAIRS`` term pairs, and
    then only the parse truncated at the socle degree gives a value.
    """
    assert "MAX_PRODUCT_PAIRS" in str(err), text
    assert loaded.ring.normal_form(loaded.parse_class(text)) == build_in_quotient(tree, loaded), text


@pytest.mark.parametrize("ring_name", RING_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_equals_polynomial_arithmetic(catalog, ring_name, data):
    loaded = catalog.ring(ring_name)
    names = loaded.ring.gens.names
    tree = data.draw(trees(names, sorted(loaded.named)), label="tree")
    text = render(tree)
    try:
        parsed = loaded.parse(text)
    except SizeError as err:
        assert_refused_product_matches_quotient(loaded, tree, text, err)
        return
    assert parsed == build(tree, loaded), text
    assert_canonical(parsed)
    point = {name: Fraction(2 * i + 1, i + 2) for i, name in enumerate(names)}
    assert evaluate_polynomial(parsed, point) == evaluate(tree, point, loaded), text
    ring = loaded.ring
    assert ring.normal_form(loaded.parse_class(text)) == ring.normal_form(parsed), text


def test_product_past_the_pair_cap_matches_quotient_arithmetic(catalog):
    loaded = catalog.ring("a3_tilde")
    tree = ("^", ("^", ("+", ("gen", "lambda1"), ("named", "A111")), 3), 4)
    text = render(tree)
    assert text == "((lambda1 + A111)^3)^4"
    with pytest.raises(SizeError) as info:
        loaded.parse(text)
    assert_refused_product_matches_quotient(loaded, tree, text, info.value)


@pytest.mark.parametrize("ring_name", RING_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_large_exponents_match_quotient_arithmetic(catalog, ring_name, data):
    loaded = catalog.ring(ring_name)
    tree = data.draw(trees(loaded.ring.gens.names, sorted(loaded.named), LARGE_EXPONENTS), label="tree")
    text = render(tree)
    try:
        parsed = loaded.parse_class(text)
    except SizeError as err:
        # A constant other than 0 and +-1 to a power of 10^6 is refused.
        assert "MAX_COEFFICIENT_BITS" in str(err), text
        return
    assert_canonical(parsed)
    assert loaded.ring.normal_form(parsed) == build_in_quotient(tree, loaded), text


def test_large_exponent_above_the_socle_matches_quotient_arithmetic(catalog):
    # lambda1^2 lies above the socle degree 1 of a1_tilde, so the square is 0,
    # though squaring the coefficient of lambda1 would form about 100,000 bits.
    loaded = catalog.ring("a1_tilde")
    tree = ("^", ("*", ("gen", "lambda1"), ("^", ("lit", Fraction(1, 8)), 16666)), 2)
    text = render(tree)
    assert text == "(lambda1*1/8^16666)^2"
    assert loaded.parse_class(text).is_zero
    assert build_in_quotient(tree, loaded).is_zero


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
# exponent literal is below 4.  With no monomials to keep given, the
# evaluator expands (a + b)^N in full, so a large N runs until
# ``poly.MAX_PRODUCT_PAIRS`` refuses it with SizeError, which is not what
# this test checks.
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


# Arbitrary text for the scanner: the grammar's operators, ASCII letters and
# digits, and characters on each side of the scanner's edges: a space, a
# non-ASCII space (the file separator, which ``str.isspace`` accepts), a
# non-ASCII digit, a non-ASCII letter and a superscript.
SCANNER_ALPHABET = "+-*^/()" + "abxyz_AB" + "0123456789" + " \x1c٣é²"
SCANNER_GENS = GeneratorSet([("x", 1), ("y", 1), ("z", 2)])
SCANNER_KEPT = monomials_up_to(SCANNER_GENS.weights, 4)


def message(err):
    """A ParseError's message without the position it appends."""
    return str(err).removesuffix(f" (at position {err.position})")


def outcome(text):
    """What parsing ``text`` gives: ("value", polynomial) or (error type, message, position)."""
    try:
        return ("value", parse_expression(text, SCANNER_GENS, keep=SCANNER_KEPT))
    except ParseError as err:
        return (ParseError, message(err), err.position)
    except AvchowError as err:
        return (type(err), str(err), None)


@settings(max_examples=400, deadline=1000)
@given(st.text(SCANNER_ALPHABET, max_size=40))
def test_scanner_matches_character_reference(text):
    try:
        reference = scan_expression(text)
    except ScanError as err:
        with pytest.raises(ParseError) as info:
            _scan(text)
        assert (message(info.value), info.value.position) == (err.message, err.position)
        assert outcome(text) == (ParseError, err.message, err.position)
        return
    words = _scan(text)
    assert words == [word for _, word, _ in reference]
    assert [_position(text, i) for i in range(len(reference))] == [at for _, _, at in reference]
    # The same tokens one space apart: the same answer, or the same error at
    # the same token.
    spaced = " ".join(words[:-1])
    starts = [at for _, _, at in scan_expression(spaced)]
    found, again = outcome(text), outcome(spaced)
    if found[0] is ParseError:
        token = [at for _, _, at in reference].index(found[2])
        assert again == (ParseError, found[1], starts[token]), (text, spaced)
    else:
        assert again == found, (text, spaced)
