import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcap.analytic import PolyMap
from arithcap.cli import main
from arithcap.curves import circle_domain
from arithcap.errors import NotMonic, NonzeroConstantTerm
from arithcap.family import (
    SeedSequence,
    compose_with_f,
    distinctness_check,
    family_member,
    q_inverse_series,
    tail_bound_check,
)
from arithcap.polys import IntPoly, reverse_unit_poly
from arithcap.series import TruncSeries, series_reciprocal

P_LIN = IntPoly([-2, 1])      # X - 2
P_QUAD = IntPoly([1, -3, 1])  # X^2 - 3X + 1


class TestQInverse:
    def test_geometric(self):
        u = q_inverse_series(P_LIN, 5)
        assert u.coeffs == (0, 1, 2, 4, 8, 16)
        assert u.is_integral

    def test_fibonacci_like_recurrence(self):
        u = q_inverse_series(P_QUAD, 5)
        assert u.coeffs == (0, 0, 1, 3, 8, 21)

    def test_p_equals_x(self):
        assert q_inverse_series(IntPoly([0, 1]), 4).coeffs == (0, 1, 0, 0, 0)

    def test_powers_of_two_up_to_64(self):
        u = q_inverse_series(P_LIN, 64)
        for n in range(1, 65):
            assert u.coeff(n) == 2 ** (n - 1)

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            q_inverse_series(IntPoly([1, 2]), 4)

    def test_valuation_law(self):
        for p in (P_LIN, P_QUAD):
            m = p.degree
            D = 14
            u = q_inverse_series(p, D)
            for n in range(1, D // m + 1):
                assert (u ** n).valuation() == m * n


class TestFamilyMember:
    def test_single_term_seed(self):
        assert family_member(P_LIN, SeedSequence([1]), 6) == q_inverse_series(P_LIN, 6)

    def test_two_term_seed(self):
        fm = family_member(P_LIN, SeedSequence([1, 1]), 4)
        assert fm.coeffs == (0, 1, 3, 8, 20)

    def test_zero_seed(self):
        assert family_member(P_LIN, SeedSequence([0, 0, 0]), 6).valuation() is None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=8))
    def test_integrality(self, seed_vals):
        fm = family_member(P_QUAD, SeedSequence(seed_vals), 16)
        assert fm.is_integral

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6),
    )
    def test_linearity(self, s1, s2):
        n = max(len(s1), len(s2))
        a = s1 + [0] * (n - len(s1))
        b = s2 + [0] * (n - len(s2))
        lhs = family_member(P_LIN, SeedSequence([x + y for x, y in zip(a, b)]), 12)
        rhs = family_member(P_LIN, SeedSequence(a), 12) + family_member(P_LIN, SeedSequence(b), 12)
        assert lhs == rhs


def _reference_q_inverse_series(p, order):
    if not p.is_monic:
        raise NotMonic("p must be monic")
    m = p.degree
    rev = reverse_unit_poly(p)  # constant term 1
    if m > order:
        return TruncSeries([], order)
    recip = series_reciprocal(TruncSeries(rev.coeffs[: order - m + 1], order - m), order - m)
    return TruncSeries((0,) * m + recip.coeffs, order)


def _reference_family_member(p, seed, order):
    """The power-by-power loop before the integer Horner construction."""
    if not p.is_monic:
        raise NotMonic("p must be monic")
    m = p.degree
    u = _reference_q_inverse_series(p, order)
    acc = TruncSeries([], order)
    power = TruncSeries.one(order)
    for n, a in enumerate(seed.values, start=1):
        if m * n > order:
            break
        power = power * u
        if a:
            acc = acc + a * power
    return acc


class TestFamilyOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=-4, max_value=4), max_size=3),
        st.lists(st.integers(min_value=-3, max_value=3), max_size=14),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_reference(self, m, low, seed_vals, order):
        # low[0] = 0 makes R = X^m p(1/X) end in 0; seeds run longer and
        # shorter than floor(order / m), and order may fall below m
        p = IntPoly(low[:m] + [0] * (m - len(low[:m])) + [1])
        seed = SeedSequence(seed_vals)
        assert family_member(p, seed, order) == _reference_family_member(p, seed, order)
        assert q_inverse_series(p, order) == _reference_q_inverse_series(p, order)

    def test_constant_p(self):
        p = IntPoly([1])  # m = 0: 1/q = 1, every seed entry counts
        for order in (0, 3):
            seed = SeedSequence([2, -1, 3])
            assert family_member(p, seed, order) == _reference_family_member(p, seed, order)
            assert q_inverse_series(p, order) == _reference_q_inverse_series(p, order)

    def test_not_monic_and_negative_order(self):
        with pytest.raises(NotMonic):
            family_member(IntPoly([1, 2]), SeedSequence([1]), 4)
        for order in (-1, -5):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                family_member(P_QUAD, SeedSequence([1, 1, 1, 1, 1]), order)

    def test_cli_order_512_artifact(self, tmp_path):
        # SHA-256 of the artifact written by the power-by-power loop
        out = tmp_path / "family.json"
        code = main(
            ["family", "--p", "X^2 - 3*X + 1", "--order", "512", "--count", "8",
             "--random-seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "61e13a9d7f3cd70c6a36a28f3f8fb80237eaa0bd8081345d6300da671292ace5"
        )


class TestSeeds:
    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            SeedSequence([3, 1], bound=2)

    @pytest.mark.parametrize("bad", [0.5, "1", None, float("inf")])
    def test_non_integer_value_rejected(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            SeedSequence([1, bad])

    def test_integral_values_accepted(self):
        assert SeedSequence([2.0, True, -3]).values == (2, 1, -3)

    def test_from_bits(self):
        s = SeedSequence.from_bits(0.625, 4)  # 0.101 in binary
        assert s.values == (1, 0, 1, 0)


def _members(p, seeds, order):
    return [family_member(p, s, order) for s in seeds]


class TestDistinctness:
    def test_leading_order_separation(self):
        rep = distinctness_check(_members(P_LIN, [SeedSequence([1, 0]), SeedSequence([0, 1])], 4))
        assert rep.distinct

    def test_32_binary_seeds(self):
        seeds = [SeedSequence([(i >> b) & 1 for b in range(8)], 1) for i in range(32)]
        rep = distinctness_check(_members(P_LIN, seeds, 8 * P_LIN.degree))
        assert rep.distinct and rep.collision is None

    def test_identical_seeds_collide(self):
        s = SeedSequence([1, 2, 1])
        rep = distinctness_check(_members(P_LIN, [s, SeedSequence([1, 2, 1])], 8))
        assert not rep.distinct
        assert rep.collision == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_early_difference_always_separates(self, data):
        m = P_QUAD.degree
        D = 14
        horizon = D // m
        a = data.draw(st.lists(st.integers(-2, 2), min_size=horizon, max_size=horizon))
        b = data.draw(st.lists(st.integers(-2, 2), min_size=horizon, max_size=horizon))
        if a == b:
            return
        rep = distinctness_check(_members(P_QUAD, [SeedSequence(a), SeedSequence(b)], D))
        assert rep.distinct


class TestCompose:
    def test_identity(self):
        g = family_member(P_LIN, SeedSequence([1, 1]), 6)
        assert compose_with_f(g, TruncSeries.identity(6)) == g

    def test_substitution(self):
        g = TruncSeries([0, 1, 2], 4)
        out = compose_with_f(g, TruncSeries([0, 0, 1], 4))
        assert out.coeffs == (0, 0, 1, 0, 2)

    def test_unit_constant_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            compose_with_f(TruncSeries([0, 1], 3), TruncSeries([1, 1], 3))


class TestTailBound:
    def test_small_disk(self):
        tb = tail_bound_check(P_LIN, PolyMap([0, 1]), circle_domain(0.3))
        assert tb.geometric_ok
        assert tb.delta <= 0.75 + 1e-12

    def test_p_equals_x(self):
        tb = tail_bound_check(IntPoly([0, 1]), PolyMap([0, 1]), circle_domain(0.3))
        assert abs(tb.delta - 0.3) < 1e-12

    def test_large_disk_fails(self):
        tb = tail_bound_check(P_LIN, PolyMap([0, 1]), circle_domain(2.0))
        assert not tb.geometric_ok

    def test_partial_sums_converge_at_delta(self):
        dom = circle_domain(0.3)
        phi = PolyMap([0, 1])
        tb = tail_bound_check(P_LIN, phi, dom)
        rng = np.random.default_rng(2)
        pts = 0.3 * rng.uniform(0.2, 1.0, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        u = 1.0 / (1.0 / pts - 2.0)  # 1/q(phi(x)) pointwise
        # all-ones seed: S_N = sum_{n<=N} u^n; residual ratio per step <= delta
        full = u / (1 - u) if np.all(np.abs(u) < 1) else None
        assert full is not None
        errs = []
        for N in (5, 10, 20):
            SN = sum(u ** n for n in range(1, N + 1))
            errs.append(np.max(np.abs(full - SN)))
        ratio1 = (errs[1] / errs[0]) ** (1 / 5)
        ratio2 = (errs[2] / errs[1]) ** (1 / 10)
        assert ratio1 <= tb.delta + 0.02
        assert ratio2 <= tb.delta + 0.02
