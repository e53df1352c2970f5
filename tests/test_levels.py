"""Covering-group orders and cusp counts for level structures."""

from fractions import Fraction

import pytest

from avchow import cusp_count_mu, group_order_gamma, verify_level_identity
from avchow import levels
from avchow.levels import CONVENTIONS, prime_divisors


class TestPrimeDivisors:
    def test_examples(self):
        assert prime_divisors(1) == []
        assert prime_divisors(12) == [2, 3]
        assert prime_divisors(7) == [7]
        assert prime_divisors(360) == [2, 3, 5]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_divisors(0)


class TestGroupOrder:
    def test_level_one_is_trivial(self):
        for genus in (1, 2, 3):
            assert group_order_gamma(genus, 1) == 1

    def test_known_values(self):
        assert group_order_gamma(1, 3) == 24
        assert group_order_gamma(2, 3) == 51840

    def test_genus_one_level_two(self):
        # 2^3 * (1 - 1/4) = 6, the order of SL(2, Z/2)
        assert group_order_gamma(1, 2) == 6

    def test_always_integral(self):
        for genus in (1, 2, 3):
            for level in range(1, 9):
                value = group_order_gamma(genus, level)
                assert isinstance(value, int)
                assert value >= 1

    def test_multiplicative_structure(self):
        # the local factors multiply over coprime levels up to powers of l
        assert group_order_gamma(1, 6) == group_order_gamma(1, 2) * group_order_gamma(1, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            group_order_gamma(0, 3)
        with pytest.raises(ValueError):
            group_order_gamma(1, 0)

    def test_a_non_integral_order_raises(self, monkeypatch):
        # With 3 taken for a prime divisor of 2: 2^3 * (1 - 1/9) = 64/9.
        monkeypatch.setattr(levels, "prime_divisors", lambda n: [3])
        with pytest.raises(ArithmeticError, match=r"^gamma\(1, 2\) failed to be integral: 64/9$"):
            group_order_gamma(1, 2)


class TestCuspCounts:
    def test_conventions_listed(self):
        assert set(CONVENTIONS) == {"single-factor", "as-printed"}

    def test_genus_one(self):
        assert cusp_count_mu(1, 3) == 4
        assert cusp_count_mu(1, 3, "as-printed") == 4

    def test_genus_one_level_one(self):
        # one cusp: (1/2) * 1 * product over no primes = 1/2... the
        # convention counts the level-1 boundary with its 1/2 automorphism
        assert cusp_count_mu(1, 1) == Fraction(1, 2)

    def test_genus_two_single_factor(self):
        assert cusp_count_mu(2, 3) == 40

    def test_genus_two_as_printed_not_integral(self):
        value = cusp_count_mu(2, 3, "as-printed")
        assert value == Fraction(320, 9)
        assert value.denominator != 1

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            cusp_count_mu(2, 3, "banana")


class TestLevelIdentity:
    @pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
    def test_holds(self, level):
        assert verify_level_identity(level)

    def test_relates_mu_and_gamma(self):
        # (1/3) * l * mu1 * mu2 == (1/12) * gamma2 / l^3 at l = 3
        level = 3
        lhs = Fraction(level, 3) * cusp_count_mu(1, level) * cusp_count_mu(2, level)
        rhs = Fraction(group_order_gamma(2, level), 12 * level**3)
        assert lhs == rhs == 160
