"""Expression parser for polynomial input."""

import random
from fractions import Fraction

import pytest

from avchow import GeneratorSet, ParseError, SizeError, UnknownSymbolError, parse_expression
from avchow.exprparse import MAX_LITERAL_DIGITS, MAX_NESTING

from helpers import monomials_up_to, random_polynomial

GENS = GeneratorSet([("lambda1", 1), ("sigma1", 1), ("sigma2", 2)])


def p(text):
    return parse_expression(text, GENS)


class TestGrammar:
    def test_single_generator(self):
        assert str(p("lambda1")) == "lambda1"

    def test_rational_coefficients(self):
        assert p("1/2*sigma1 - 3*lambda1").coefficient((0, 1, 0)) == Fraction(1, 2)
        assert p("-4103/144*sigma2") .coefficient((0, 0, 1)) == Fraction(-4103, 144)

    def test_powers_bind_tighter_than_product(self):
        assert p("2*lambda1^3*sigma1") == 2 * GENS.gen("lambda1") ** 3 * GENS.gen("sigma1")

    def test_unary_minus(self):
        assert p("-lambda1 + lambda1").is_zero
        assert p("-(sigma1 - lambda1)") == p("lambda1 - sigma1")

    def test_doubled_minus_rejected(self):
        with pytest.raises(ParseError):
            p("- -lambda1")

    def test_parentheses_and_products(self):
        left = p("(sigma1 - 10*lambda1)*(sigma1 - 12*lambda1)")
        right = p("sigma1^2 - 22*lambda1*sigma1 + 120*lambda1^2")
        assert left == right

    def test_parenthesized_power(self):
        assert p("(lambda1 + sigma1)^2") == p("lambda1^2 + 2*lambda1*sigma1 + sigma1^2")

    def test_parenthesized_exponent(self):
        assert p("lambda1^(3)") == p("lambda1^3")
        assert p("(lambda1 + sigma1)^( +2 )*sigma2") == p("(lambda1 + sigma1)^2*sigma2")

    def test_constant_expressions(self):
        assert p("3/4") == GENS.constant(Fraction(3, 4))
        assert p("0").is_zero

    def test_whitespace_insensitive(self):
        assert p(" 2*lambda1  -  sigma2 ") == p("2*lambda1-sigma2")

    def test_division_only_inside_rational_literals(self):
        # 1/2 is one token; a slash after a generator is not an operator
        assert p("1/2*sigma1") == p("sigma1") / 2
        with pytest.raises(ParseError):
            p("sigma1/2")


class TestSymbols:
    def test_named_symbols_substitute(self):
        named = {"N0": p("18*lambda1 - 2*sigma1")}
        result = parse_expression("N0^2", GENS, named)
        assert result == p("(18*lambda1 - 2*sigma1)^2")

    def test_generators_shadow_nothing(self):
        named = {"N0": p("lambda1")}
        assert parse_expression("N0 + lambda1", GENS, named) == p("2*lambda1")

    def test_unknown_name(self):
        with pytest.raises((ParseError, UnknownSymbolError)):
            p("tau")

    def test_named_class_over_other_generators_fails_where_used(self):
        other = GeneratorSet([("lambda1", 1), ("sigma1", 1)])
        named = {"N0": parse_expression("lambda1", other), "N1": p("sigma1")}
        assert parse_expression("N1 + lambda1", GENS, named) == p("sigma1 + lambda1")
        with pytest.raises(ParseError) as info:
            parse_expression("N1 + 2*N0^2", GENS, named)
        assert info.value.position == 7
        assert "named class 'N0' is over a different generator set" in str(info.value)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "lambda1 +",
            "* sigma1",
            "(lambda1",
            "lambda1)",
            "lambda1 ^ sigma1",
            "lambda1^",
            "1..2",
            "lambda1 lambda1",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            p(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            p("lambda1 + + sigma1 +")
        assert info.value.position is not None

    def test_unicode_digits_rejected(self):
        with pytest.raises(ParseError):
            p("lambda1^²")
        with pytest.raises(ParseError):
            p("٣*lambda1")

    def test_float_syntax_rejected(self):
        with pytest.raises(ParseError):
            p("0.5*lambda1")

    def test_nesting_depth_is_bounded(self):
        with pytest.raises(ParseError) as info:
            p("(" * 5000 + "lambda1" + ")" * 5000)
        assert info.value.position == MAX_NESTING
        assert p("((lambda1 + (sigma1)) * ((2)))^2") == p("2*lambda1 + 2*sigma1") ** 2
        assert p("(" * MAX_NESTING + "sigma2" + ")" * MAX_NESTING) == p("sigma2")


# Every ParseError message and the position it is raised at, recorded from
# the evaluator on a toy ring with a named class over its own generators (N)
# and one over other generators (M).
TABLE_GENS = GeneratorSet([("x", 1), ("y", 1), ("z", 2)])
TABLE_NAMED = {
    "N": parse_expression("x + y", TABLE_GENS),
    "M": parse_expression("x", GeneratorSet([("x", 1), ("y", 1)])),
}
LONG = "1" * (MAX_LITERAL_DIGITS + 1)
TOO_LONG = f"integer of {MAX_LITERAL_DIGITS + 1} digits, more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}"
ERROR_TABLE = [
    ("x^-1", "negative exponent", 2),
    ("x^(-1)", "negative exponent", 3),
    ("x ^ (+-1)", "expected 'INT', found '-'", 6),
    ("3/0", "zero denominator", 2),
    ("2*1/00*x", "zero denominator", 4),
    ("x^(2", "expected ')', found 'end of input'", 4),
    ("x^(3", "expected ')', found 'end of input'", 4),
    ("x^(3 + 1)", "expected ')', found '+'", 5),
    ("(x + y", "expected ')', found 'end of input'", 6),
    ("(x)^(2 y", "expected ')', found 'y'", 7),
    ("1/2/3", "unexpected trailing '/'", 3),
    ("x)", "unexpected trailing ')'", 1),
    ("x y", "unexpected trailing 'y'", 2),
    ("3 4", "unexpected trailing '4'", 2),
    ("x^2^3", "unexpected trailing '^'", 3),
    ("+-x", "expected a value, found '-'", 1),
    ("- -x", "expected a value, found '-'", 2),
    ("", "expected a value, found 'end of input'", 0),
    ("x +", "expected a value, found 'end of input'", 3),
    ("* y", "expected a value, found '*'", 0),
    ("()", "expected a value, found ')'", 1),
    ("x * ", "expected a value, found 'end of input'", 4),
    ("\t\n", "expected a value, found 'end of input'", 2),
    ("é", "unexpected character 'é'", 0),
    ("x + é", "unexpected character 'é'", 4),
    ("1..2", "unexpected character '.'", 1),
    ("x^²", "unexpected character '²'", 2),
    ("٣*x", "unexpected character '٣'", 0),
    ("x^", "expected 'INT', found 'end of input'", 2),
    ("x ^ y", "expected 'INT', found 'y'", 4),
    ("1/", "expected 'INT', found 'end of input'", 2),
    ("1/x", "expected 'INT', found 'x'", 2),
    ("1/-2", "expected 'INT', found '-'", 2),
    ("x^()", "expected 'INT', found ')'", 3),
    ("x^(x)", "expected 'INT', found 'x'", 3),
    ("x^+", "expected 'INT', found 'end of input'", 3),
    ("tau", "unknown identifier 'tau'", 0),
    ("2*tau^2", "unknown identifier 'tau'", 2),
    ("N + 2*M^2", "named class 'M' is over a different generator set", 6),
    ("M", "named class 'M' is over a different generator set", 0),
    ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), f"parentheses nested deeper than {MAX_NESTING}", MAX_NESTING),
    ("(" * MAX_NESTING + "(x", f"parentheses nested deeper than {MAX_NESTING}", MAX_NESTING),
    (LONG, TOO_LONG, 0),
    ("2*" + LONG, TOO_LONG, 2),
    ("x^" + LONG, TOO_LONG, 2),
    ("x*1/" + LONG, TOO_LONG, 4),
    ("tau + " + LONG, TOO_LONG, 6),
    ("x" + LONG, f"unknown identifier {'x' + LONG!r}", 0),
    (LONG + "é", "unexpected character 'é'", MAX_LITERAL_DIGITS + 1),
]


@pytest.mark.parametrize(("text", "expected", "position"), ERROR_TABLE, ids=[text[:24] for text, _, _ in ERROR_TABLE])
def test_error_message_and_position(text, expected, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text, TABLE_GENS, TABLE_NAMED)
    assert (str(info.value), info.value.position) == (f"{expected} (at position {position})", position)


class TestRoundTrip:
    def test_fuzz_round_trip(self):
        rng = random.Random(99)
        gens_pool = [
            GENS,
            GeneratorSet([("x", 1)]),
            GeneratorSet([("t", 1), ("s", 2), ("u", 3)]),
        ]
        for _ in range(200):
            gens = gens_pool[rng.randrange(len(gens_pool))]
            q = random_polynomial(rng, gens, max_degree=5, max_terms=5)
            assert parse_expression(str(q), gens) == q


def up_to(degree):
    """The monomials of GENS to keep: those of weighted degree at most ``degree``."""
    return monomials_up_to(GENS.weights, degree)


class TestBounds:
    def test_products_and_powers_drop_monomials_above_max_degree(self):
        assert parse_expression("(lambda1 + sigma1)^100000", GENS, keep=up_to(3)).is_zero
        assert parse_expression("(1 + lambda1)^10", GENS, keep=up_to(1)) == p("1 + 10*lambda1")
        assert parse_expression("(lambda1 + sigma2)*(lambda1 - 1)", GENS, keep=up_to(2)) == p(
            "lambda1^2 - lambda1 - sigma2"
        )
        # The monomial is refused before its coefficient is raised.
        assert parse_expression("(2*sigma2)^1000000000000", GENS, keep=up_to(5)).is_zero

    def test_max_degree_keeps_everything_up_to_it(self):
        rng = random.Random(9)
        for _ in range(30):
            a, b = (random_polynomial(rng, GENS, max_degree=3) for _ in range(2))
            text = f"({a})*({b})^2 + ({b})^3"
            full = p(text)
            kept = {m: c for m, c in full._terms.items() if GENS.weighted_degree(m) <= 4}
            assert parse_expression(text, GENS, keep=up_to(4))._terms == kept, text

    def test_huge_coefficients_are_refused(self):
        for text in ("7^1000000000000", "(7*lambda1)^1000000000000"):
            with pytest.raises(SizeError, match="MAX_COEFFICIENT_BITS"):
                parse_expression(text, GENS)
        with pytest.raises(SizeError, match="MAX_COEFFICIENT_BITS"):
            parse_expression("(2 + lambda1)^1000000000000", GENS, keep=up_to(3))
        with pytest.raises(SizeError, match="MAX_COEFFICIENT_BITS"):
            p("*".join(["3^40000"] * 3))
        assert p("(-1)^1000000000000") == p("1")

    def test_unprintable_coefficient_raises_size_error(self):
        with pytest.raises(SizeError, match="digits"):
            str(p("7^6000*lambda1"))
