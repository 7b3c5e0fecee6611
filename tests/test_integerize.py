from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcap.errors import DegreeTooSmall, NotFound, NotMonic
from arithcap.integerize import (
    IntegerizationResult,
    integerizing_exponent,
    minimal_integerizing_exponent,
    verify_top_integrality,
)
from arithcap.padic import prime_factorization, vp_integer
from arithcap.polys import RatPoly, poly_pow
from arithcap.series import TruncSeries

F = Fraction

HALF_X = RatPoly([F(1, 2), 1])              # x + 1/2
QUARTER = RatPoly([F(1, 4), -1, 1])          # x^2 - x + 1/4 = (x - 1/2)^2


def _reference_minimal_integerizing_exponent(f, N, cap, min_exponent=1):
    """The linear scan the subgroup search replaced, kept as its oracle:
    M = 1, 2, ... with the reversed-series power kept incrementally."""
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if cap < 1:
        raise ValueError("cap must be positive")
    d = f.degree
    rev = TruncSeries(tuple(reversed(f.coeffs))[: N + 1], N)
    power = TruncSeries.one(N)
    k = f.denominator_lcm()
    for M in range(1, cap + 1):
        power = power * rev
        if M < min_exponent or d * M < N:
            continue
        if all(isinstance(c, int) for c in power.coeffs[1 : N + 1]):
            exps = tuple((p, vp_integer(M, p)) for p, _ in prime_factorization(k)) if k > 1 else ()
            return IntegerizationResult(M=M, k=k, prime_exponents=exps, verified=True, route="search")
    raise NotFound(f"no integerizing exponent <= {cap} (N={N})")


@st.composite
def monic_denominator_polys(draw):
    """Monic f with denominators drawn from {2,3,4,5,6}, deg <= 4."""
    d = draw(st.integers(min_value=1, max_value=4))
    coeffs = [
        F(draw(st.integers(min_value=-6, max_value=6)), draw(st.sampled_from([2, 3, 4, 5, 6])))
        for _ in range(d)
    ]
    return RatPoly(coeffs + [1])


class TestVerify:
    def test_m8_passes(self):
        assert verify_top_integrality(HALF_X, 8, 2)

    def test_m2_fails(self):
        # (x + 1/2)^2 has constant term 1/4 at degree dM-2 = 0
        assert not verify_top_integrality(HALF_X, 2, 2)

    def test_m4_fails(self):
        assert not verify_top_integrality(HALF_X, 4, 2)

    def test_integer_polynomial(self):
        f = RatPoly([-3, 1])
        for M in (1, 2, 5):
            for N in range(1, M + 1):
                assert verify_top_integrality(f, M, N)

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            verify_top_integrality(HALF_X, 1, 2)

    def test_matches_full_expansion(self):
        for M in range(1, 12):
            full = poly_pow(QUARTER, M)
            want = all(
                isinstance(full.coeff(2 * M - i), int) for i in range(1, 5)
            )
            if 2 * M >= 4:
                assert verify_top_integrality(QUARTER, M, 4) == want


class TestFormulaRoute:
    def test_spec_example_n2(self):
        res = integerizing_exponent(HALF_X, 2)
        assert res.M == 16 and res.k == 2 and res.verified
        assert res.prime_exponents == ((2, 4),)

    def test_integer_input(self):
        res = integerizing_exponent(RatPoly([-3, 1]), 5)
        assert res.M == 1 and res.k == 1 and res.verified

    def test_large_formula_value(self):
        res = integerizing_exponent(QUARTER, 8)
        assert res.M == 2 ** 24
        assert res.k == 4
        assert res.verified

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            integerizing_exponent(RatPoly([1, 2]), 2)

    @settings(max_examples=100, deadline=None)
    @given(monic_denominator_polys(), st.integers(min_value=1, max_value=6))
    def test_soundness(self, f, N):
        res = integerizing_exponent(f, N)
        assert res.verified
        if res.k > 1:
            assert verify_top_integrality(f, res.M, N)
        # formula-route valuation condition: v_p(M) >= N (1 + v_p(k)) for p | k
        from arithcap.padic import vp_integer

        for p, e in res.prime_exponents:
            assert e == vp_integer(res.M, p)
            assert e >= N * (1 + vp_integer(res.k, p))

    def test_multiples_iterator(self):
        res = integerizing_exponent(HALF_X, 2)
        it = res.multiples()
        assert [next(it) for _ in range(3)] == [16, 32, 48]

    @settings(max_examples=40, deadline=None)
    @given(monic_denominator_polys(), st.integers(min_value=1, max_value=4))
    def test_multiplicativity(self, f, N):
        res = integerizing_exponent(f, N)
        for t in (2, 3, 5):
            if f.degree * res.M * t >= N:
                assert verify_top_integrality(f, t * res.M, N)


class TestSearchRoute:
    def test_spec_example(self):
        res = minimal_integerizing_exponent(HALF_X, 2, cap=64)
        assert res.M == 8 and res.route == "search" and res.verified

    def test_quarter_poly(self):
        res = minimal_integerizing_exponent(QUARTER, 8, cap=4096)
        assert res.M == 1024

    def test_integer_input(self):
        assert minimal_integerizing_exponent(RatPoly([7, 0, 1]), 2, cap=10).M == 1

    def test_not_found(self):
        with pytest.raises(NotFound):
            minimal_integerizing_exponent(HALF_X, 2, cap=7)

    def test_min_exponent_floor(self):
        res = minimal_integerizing_exponent(RatPoly([7, 0, 1]), 2, cap=10, min_exponent=3)
        assert res.M == 3

    @settings(max_examples=60, deadline=None)
    @given(monic_denominator_polys(), st.integers(min_value=1, max_value=4))
    def test_search_below_formula(self, f, N):
        formula = integerizing_exponent(f, N)
        if f.degree * formula.M < N:
            return  # formula M lies outside verify's domain (d*M < N)
        try:
            found = minimal_integerizing_exponent(f, N, cap=2048)
        except NotFound:
            return
        assert found.M <= formula.M


def _outcome(search, *args, **kw):
    try:
        return search(*args, **kw)
    except NotFound as exc:
        return ("NotFound", str(exc))


class TestSubgroupSearch:
    """The subgroup search against the linear scan it replaced."""

    @settings(max_examples=250, deadline=None)
    @given(
        monic_denominator_polys(),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=-2, max_value=80),
    )
    def test_matches_linear_scan(self, f, N, cap, min_exponent):
        got = _outcome(minimal_integerizing_exponent, f, N, cap=cap, min_exponent=min_exponent)
        want = _outcome(
            _reference_minimal_integerizing_exponent, f, N, cap=cap, min_exponent=min_exponent
        )
        assert got == want

    @pytest.mark.parametrize(
        "f, N, cap, min_exponent",
        [
            (QUARTER, 8, 4096, 5),  # the flagship search: M = 1024
            (HALF_X, 2, 7, 1),  # NotFound
            (HALF_X, 3, 64, 9),  # the answer is a multiple of M_0 above min_exponent
            (RatPoly([F(1, 6), F(-1, 3), 1]), 4, 600, 1),  # two primes
            (RatPoly([1]), 0, 5, 3),  # degree 0, N = 0
            (RatPoly([1]), 2, 5, 1),  # degree 0 never reaches d M >= N
            (RatPoly([7, 0, 1]), 5, 2, 1),  # integral, but d * cap < N
        ],
    )
    def test_fixed_cases(self, f, N, cap, min_exponent):
        args = (f, N)
        kw = dict(cap=cap, min_exponent=min_exponent)
        assert _outcome(minimal_integerizing_exponent, *args, **kw) == _outcome(
            _reference_minimal_integerizing_exponent, *args, **kw
        )

    def test_bad_arguments(self):
        with pytest.raises(NotMonic):
            minimal_integerizing_exponent(RatPoly([1, 2]), 2, cap=8)
        with pytest.raises(ValueError):
            minimal_integerizing_exponent(HALF_X, 2, cap=0)
        with pytest.raises(ValueError):
            minimal_integerizing_exponent(HALF_X, -1, cap=8)
