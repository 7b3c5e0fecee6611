from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcap.errors import NonzeroRemainder, NotMonic, PolyParseError
from arithcap.parsing import parse_polynomial, poly_to_string
from arithcap.polys import (
    IntPoly,
    RatPoly,
    int_poly_div_exact,
    poly_div_exact,
    poly_pow,
    reverse_unit_poly,
)
from arithcap.series import TruncSeries

F = Fraction


def P(*coeffs):
    return RatPoly(coeffs)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
rat_polys = st.lists(small_rationals, min_size=0, max_size=6).map(RatPoly)
small_ints = st.integers(min_value=-(2**70), max_value=2**70)
int_polys = st.lists(small_ints, min_size=0, max_size=6).map(IntPoly)


class TestRatPolyBasics:
    def test_zero_is_empty(self):
        assert RatPoly([0, 0]).coeffs == ()
        assert RatPoly([]).degree == -1

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).degree == 1

    def test_leading_nonzero(self):
        assert P(0, 0, F(1, 3)).leading == F(1, 3)

    def test_int_normalization(self):
        p = RatPoly([F(4, 2), F(1, 3)])
        assert isinstance(p.coeffs[0], int) and p.coeffs[0] == 2

    def test_monic_predicate(self):
        assert P(F(1, 2), 1).is_monic
        assert not P(1, 2).is_monic

    def test_int_poly_round_trip(self):
        p = IntPoly([3, -1, 1])
        assert p.to_rat().to_int_poly() == p

    def test_int_poly_rejects_fractions(self):
        with pytest.raises(ValueError):
            IntPoly([F(1, 2)])

    def test_eval_horner(self):
        assert P(F(1, 4), 1, 1)(F(1, 2)) == 1


class TestPolyPow:
    def test_square_direct(self):
        # (x + 1/2)^2 = x^2 + x + 1/4
        assert poly_pow(P(F(1, 2), 1), 2) == P(F(1, 4), 1, 1)

    def test_zeroth_power(self):
        assert poly_pow(P(2, 3, 4), 0) == P(1)

    def test_binomial_top_coefficients(self):
        # (x + 1/2)^8: coefficient of x^7 is C(8,1)/2 = 4, of x^6 is C(8,2)/4 = 7
        p = poly_pow(P(F(1, 2), 1), 8)
        assert p.coeff(7) == 4
        assert p.coeff(6) == 7

    @settings(max_examples=50, deadline=None)
    @given(rat_polys, st.integers(min_value=0, max_value=10))
    def test_matches_repeated_multiplication(self, f, n):
        expected = RatPoly([1])
        for _ in range(n):
            expected = expected * f
        assert poly_pow(f, n) == expected


def _reference_pow(base, one, n):
    """Binary powering, the power of every type before Miller's recurrence."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


# constant terms 0 and non-units come up often; [] is the zero polynomial
int_coeff_lists = st.lists(st.integers(min_value=-6, max_value=6), min_size=0, max_size=6)
rat_coeff_lists = st.lists(small_rationals, min_size=0, max_size=5)
powers = st.integers(min_value=0, max_value=12)


class TestPowOracle:
    @settings(max_examples=200, deadline=None)
    @given(int_coeff_lists, powers)
    def test_int_poly(self, coeffs, n):
        f = IntPoly(coeffs)
        assert (f ** n).coeffs == _reference_pow(f, IntPoly([1]), n).coeffs

    @settings(max_examples=200, deadline=None)
    @given(rat_coeff_lists, powers)
    def test_rat_poly(self, coeffs, n):
        f = RatPoly(coeffs)
        want = _reference_pow(f, RatPoly([1]), n).coeffs
        assert (f ** n).coeffs == want
        assert poly_pow(f, n).coeffs == want

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(int_coeff_lists, rat_coeff_lists), powers, st.integers(min_value=0, max_value=14))
    def test_trunc_series(self, coeffs, n, order):
        s = TruncSeries(coeffs[: order + 1], order)
        assert (s ** n).coeffs == _reference_pow(s, TruncSeries.one(order), n).coeffs

    def test_zero_constant_term_and_truncation(self):
        s = TruncSeries([0, 0, 3, 1], 9)  # x^2 (3 + x): the cube starts at x^6
        assert (s ** 3).coeffs == (0, 0, 0, 0, 0, 0, 27, 27, 9, 1)
        assert (s ** 5).coeffs == (0,) * 10
        assert IntPoly([0, 0, 3, 1]) ** 3 == IntPoly([0] * 6 + [27, 27, 9, 1])

    def test_zero_polynomial(self):
        assert IntPoly() ** 0 == IntPoly([1])
        assert IntPoly() ** 3 == IntPoly()
        assert (TruncSeries([], 4) ** 0).coeffs == (1, 0, 0, 0, 0)

    def test_flagship_power(self):
        g = IntPoly([1, -4, 4])  # (2x - 1)^2
        assert (g ** 1024).coeffs == tuple(comb(2048, k) * (-2) ** k for k in range(2049))
        assert (g ** 301).coeffs == _reference_pow(g, IntPoly([1]), 301).coeffs

    def test_negative_power(self):
        for f in (IntPoly([1, 1]), RatPoly([1, 1]), TruncSeries([1, 1], 3)):
            with pytest.raises(ValueError):
                f ** -1


class TestRingLaws:
    @settings(max_examples=200, deadline=None)
    @given(rat_polys, rat_polys)
    def test_add_mul_commutative(self, f, g):
        assert f + g == g + f
        assert f * g == g * f

    @settings(max_examples=200, deadline=None)
    @given(rat_polys, rat_polys, rat_polys)
    def test_associative_distributive(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


class TestDivExact:
    def test_difference_of_squares(self):
        assert poly_div_exact(P(-1, 0, 1), P(-1, 1)) == P(1, 1)

    def test_inexact_raises(self):
        with pytest.raises(NonzeroRemainder):
            poly_div_exact(P(1, 0, 1), P(0, 1))

    def test_non_monic_divisor_raises(self):
        with pytest.raises(NotMonic):
            poly_div_exact(P(1, 2), P(1, 2))

    @settings(max_examples=200, deadline=None)
    @given(rat_polys, st.lists(small_rationals, min_size=0, max_size=4))
    def test_round_trip(self, f, g_low):
        g = RatPoly(list(g_low) + [1])  # force monic
        assert poly_div_exact(f * g, g) == f


class TestIntDivExact:
    @settings(max_examples=200, deadline=None)
    @given(int_polys, st.lists(small_ints, min_size=0, max_size=4))
    def test_round_trip(self, f, g_low):
        g = IntPoly(list(g_low) + [1])  # force monic
        assert int_poly_div_exact(f * g, g) == f

    def test_non_monic_divisor_raises(self):
        # 2x + 2 divides 2x^2 - 2 exactly over Z, but only monic divisors are taken
        with pytest.raises(NotMonic):
            int_poly_div_exact(IntPoly([-2, 0, 2]), IntPoly([2, 2]))

    def test_zero_divisor_raises(self):
        with pytest.raises(NotMonic):
            int_poly_div_exact(IntPoly([1, 1]), IntPoly())

    @pytest.mark.parametrize(
        "f, g",
        [
            (IntPoly([1, 0, 1]), IntPoly([-1, 1])),  # x^2 + 1 = (x - 1)(x + 1) + 2
            (IntPoly([3]), IntPoly([1, 1])),  # degree below the divisor's
            (IntPoly([1, 2, 3, 1]), IntPoly([1, 1, 1])),
        ],
    )
    def test_inexact_raises(self, f, g):
        with pytest.raises(NonzeroRemainder):
            int_poly_div_exact(f, g)


class TestReverseUnitPoly:
    def test_linear(self):
        assert reverse_unit_poly(IntPoly([-2, 1])) == IntPoly([1, -2])

    def test_quadratic(self):
        assert reverse_unit_poly(IntPoly([5, -3, 1])) == IntPoly([1, -3, 5])

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            reverse_unit_poly(IntPoly([-1, 2]))


class TestParsing:
    def test_basic(self):
        assert parse_polynomial("x^2 - 1/3*x + 5") == P(5, F(-1, 3), 1)

    def test_bare_variable(self):
        assert parse_polynomial("x") == P(0, 1)

    def test_decimal_place_value(self):
        assert parse_polynomial("x - 0.333333") == P(F(-333333, 1000000), 1)

    def test_implicit_star(self):
        assert parse_polynomial("2x^3 + 4") == P(4, 0, 0, 2)

    def test_syntax_error_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_polynomial("x^^2")
        assert exc.value.position == 2

    def test_inconsistent_variable(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x + y")

    @settings(max_examples=200, deadline=None)
    @given(rat_polys)
    def test_round_trip(self, f):
        assert parse_polynomial(poly_to_string(f)) == f
