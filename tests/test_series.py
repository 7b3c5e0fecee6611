from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcap.errors import (
    NonInvertibleLinearTerm,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
)
from arithcap.polys import _norm_scalar
from arithcap.series import (
    TruncSeries,
    series_comp_inverse,
    series_compose,
    series_reciprocal,
)

F = Fraction


def S(coeffs, order=None):
    return TruncSeries(coeffs, len(coeffs) - 1 if order is None else order)


def lagrange_inverse(f: TruncSeries, order: int) -> TruncSeries:
    """Independent oracle: [T^n] h = (1/n) [w^{n-1}] (w / f(w))^n."""
    base = TruncSeries(f.coeffs[1:], f.order - 1)  # f(w)/w, unit constant term
    u = series_reciprocal(base, allow_rational=True)  # w/f(w)
    out = [0] * (order + 1)
    for n in range(1, order + 1):
        out[n] = F((u ** n).coeff(n - 1), n)
    return TruncSeries(out, order)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def unit_series(draw, max_order=16):
    """Series with unit linear term and zero constant term."""
    order = draw(st.integers(min_value=1, max_value=max_order))
    lin = draw(st.sampled_from([1, -1]))
    tail = draw(st.lists(small_rationals, min_size=0, max_size=order - 1))
    return TruncSeries([0, lin] + list(tail), order)


@st.composite
def unit_constant_series(draw, max_order=12):
    order = draw(st.integers(min_value=0, max_value=max_order))
    c0 = draw(st.sampled_from([1, -1]))
    tail = draw(st.lists(small_rationals, min_size=0, max_size=order))
    return TruncSeries([c0] + list(tail)[:order], order)


class TestStructure:
    def test_exact_coefficient_count(self):
        s = TruncSeries([1, 2], 4)
        assert len(s.coeffs) == 5

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            TruncSeries([1, 2, 3], 1)

    def test_order_propagation_min(self):
        a = TruncSeries([1, 1, 1], 2)
        b = TruncSeries([1, 1, 1, 1, 1], 4)
        assert (a + b).order == 2
        assert (a * b).order == 2

    def test_valuation(self):
        assert TruncSeries([0, 0, 3], 4).valuation() == 2
        assert TruncSeries([], 4).valuation() is None


class TestReciprocal:
    def test_geometric(self):
        # 1/(1 - 2X) = 1 + 2X + 4X^2 + 8X^3 + 16X^4
        r = series_reciprocal(S([1, -2], 4))
        assert r.coeffs == (1, 2, 4, 8, 16)
        assert r.is_integral

    def test_identity(self):
        assert series_reciprocal(S([1], 7)).coeffs == (1,) + (0,) * 7

    def test_non_unit_over_Z(self):
        with pytest.raises(NonUnitConstantTerm):
            series_reciprocal(S([2, 1], 4))

    def test_rational_opt_in(self):
        r = series_reciprocal(S([2, 1], 2), allow_rational=True)
        assert r.coeffs == (F(1, 2), F(-1, 4), F(1, 8))

    def test_zero_constant_term(self):
        with pytest.raises(NonUnitConstantTerm):
            series_reciprocal(S([0, 1], 3))

    @settings(max_examples=200, deadline=None)
    @given(unit_constant_series())
    def test_round_trip(self, s):
        prod = s * series_reciprocal(s)
        assert prod.coeffs == (1,) + (0,) * s.order


class TestCompose:
    def test_direct_expansion(self):
        # g = X^2, f = T + T^3 -> T^2 + 2T^4 at order 4
        g = S([0, 0, 1], 4)
        f = S([0, 1, 0, 1], 4)
        assert series_compose(g, f).coeffs == (0, 0, 1, 0, 2)

    def test_identity_inner(self):
        g = S([3, F(1, 2), 0, -1], 5)
        assert series_compose(g, TruncSeries.identity(5)) == TruncSeries(g.coeffs, 5)

    def test_nonzero_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            series_compose(S([1, 1], 3), S([1, 1], 3))


# The series operations before the coefficient kernel, copied as oracles.


def _reference_add(self, other):
    d = min(self.order, other.order)
    return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(d + 1)], d)


def _reference_mul(self, other):
    if isinstance(other, (int, Fraction)):
        return TruncSeries([c * other for c in self.coeffs], self.order)
    d = min(self.order, other.order)
    out = [0] * (d + 1)
    for i, ca in enumerate(self.coeffs[: d + 1]):
        if ca == 0:
            continue
        for j in range(d + 1 - i):
            cb = other.coeffs[j]
            if cb != 0:
                out[i + j] += ca * cb
    return TruncSeries(out, d)


def _reference_call(self, x):
    acc = 0 * x
    for c in reversed(self.coeffs):
        acc = acc * x + c
    return acc


def _reference_compose(g, f, order=None):
    d = min(g.order, f.order) if order is None else order
    ft = f.truncate(d)
    acc = TruncSeries([], d)
    for c in reversed(g.coeffs[: d + 1]):
        acc = _reference_add(_reference_mul(acc, ft), TruncSeries([c], d))
    return acc


def _reference_reciprocal(s, order=None):
    """The reciprocal loop before series_reciprocal ran Miller's recurrence at
    exponent -1; unit checks left to the caller."""
    d = s.order if order is None else order
    a0 = s.coeffs[0]
    inv0 = a0 if a0 in (1, -1) else Fraction(1) / a0
    out = [0] * (d + 1)
    out[0] = _norm_scalar(inv0)
    for m in range(1, d + 1):
        acc = 0
        for k in range(1, min(m, s.order) + 1):
            ak = s.coeffs[k]
            if ak != 0:
                acc += ak * out[m - k]
        out[m] = _norm_scalar(-inv0 * acc) if acc != 0 else 0
    return TruncSeries(out, d)


@st.composite
def series_pair(draw):
    """Two series of independent orders whose coefficient lists may run past
    the smaller order; constant terms 0 and +-1 come up often."""
    coeff = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9), small_rationals)
    out = []
    for _ in range(2):
        order = draw(st.integers(min_value=0, max_value=10))
        out.append(TruncSeries(draw(st.lists(coeff, max_size=order + 1)), order))
    return out


@st.composite
def invertible_series(draw):
    """(series, over_z): an integer series with constant term +-1, or one with
    any nonzero rational constant term."""
    order = draw(st.integers(min_value=0, max_value=12))
    over_z = draw(st.booleans())
    if over_z:
        c0, tail = draw(st.sampled_from([1, -1])), st.integers(-9, 9)
    else:
        c0, tail = draw(small_rationals.filter(bool)), st.one_of(st.integers(-9, 9), small_rationals)
    return TruncSeries([c0] + draw(st.lists(tail, max_size=order)), order), over_z


class TestKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(series_pair())
    def test_mul_add(self, pair):
        a, b = pair
        assert a * b == _reference_mul(a, b)
        assert a + b == _reference_add(a, b)
        assert a - b == _reference_add(a, -b)

    @settings(max_examples=300, deadline=None)
    @given(invertible_series(), st.integers(min_value=0, max_value=12))
    def test_reciprocal(self, drawn, order):
        s, over_z = drawn
        order = min(order, s.order)
        for got, want in (
            (series_reciprocal(s, allow_rational=not over_z), _reference_reciprocal(s)),
            (series_reciprocal(s, order, allow_rational=not over_z), _reference_reciprocal(s, order)),
        ):
            assert got == want
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]

    @settings(max_examples=200, deadline=None)
    @given(series_pair(), st.one_of(small_rationals, st.floats(-2, 2), st.integers(-4, 4)))
    def test_call(self, pair, x):
        a = pair[0]
        assert a(x) == _reference_call(a, x)

    @settings(max_examples=200, deadline=None)
    @given(series_pair(), st.integers(min_value=0, max_value=10))
    def test_compose(self, pair, order):
        g, f = pair
        f = TruncSeries((0,) + f.coeffs[1:], f.order)
        order = min(order, g.order, f.order)
        assert series_compose(g, f) == _reference_compose(g, f)
        assert series_compose(g, f, order) == _reference_compose(g, f, order)


class TestCompInverse:
    def test_identity(self):
        h = series_comp_inverse(TruncSeries.identity(6))
        assert h == TruncSeries.identity(6)

    def test_catalan_signs(self):
        # inverse of T + T^2 is T - T^2 + 2T^3 - 5T^4 (signed Catalan numbers)
        h = series_comp_inverse(S([0, 1, 1], 4))
        assert h.coeffs == (0, 1, -1, 2, -5)

    def test_no_linear_term(self):
        with pytest.raises(NonInvertibleLinearTerm):
            series_comp_inverse(S([0, 0, 1], 4))

    def test_matches_lagrange_oracle(self):
        for coeffs in [[0, 1, 1], [0, -1, 2, -1], [0, 1, 0, 0, 3], [0, 1, F(1, 2), F(-1, 3)]]:
            f = TruncSeries(coeffs, 8)
            assert series_comp_inverse(f) == lagrange_inverse(f, 8)

    @settings(max_examples=200, deadline=None)
    @given(unit_series())
    def test_compose_back_to_identity(self, f):
        h = series_comp_inverse(f)
        assert series_compose(h, f) == TruncSeries.identity(f.order)
        assert series_compose(f, h) == TruncSeries.identity(f.order)

    @settings(max_examples=100, deadline=None)
    @given(unit_series(max_order=10))
    def test_integral_input_integral_inverse(self, f):
        if f.is_integral:
            assert series_comp_inverse(f).is_integral


class TestRingLaws:
    series3 = st.lists(small_rationals, min_size=1, max_size=4).map(
        lambda c: TruncSeries(c, 3)
    )

    @settings(max_examples=200, deadline=None)
    @given(series3, series3, series3)
    def test_commutative_associative_distributive(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
