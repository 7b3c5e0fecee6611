import dataclasses
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcap import patching
from arithcap.errors import (
    CertificateCheckFailed,
    DegreeCapExceeded,
    InsufficientMargin,
    NoMargin,
    NonzeroRemainder,
    NotFound,
    NotMonic,
    TopCoefficientsNotIntegral,
)
from arithcap.integerize import minimal_integerizing_exponent, verify_top_integrality
from arithcap.patching import (
    PatchConfig,
    PatchParams,
    RegionSpec,
    SpotCheck,
    _lipschitz_bound,
    certified_lower_bound,
    choose_parameters,
    clear_fractional_parts,
    heuristic_real_candidate,
    patch,
    rationalize,
    reconstruction_residual,
    spot_check_min_abs,
)
from arithcap.polys import IntPoly, RatPoly, poly_pow, scaled_integer_form

F = Fraction


def P(*coeffs):
    return RatPoly(coeffs)


D2 = RegionSpec.disk(2.0)
D9 = RegionSpec.disk(9.0)


class TestCertifiedBound:
    def test_converges_to_two(self):
        # f = x, U = D_2: true min over K in D_4 is 2 on |z| = 2
        prev = None
        for grid in (16, 32, 64):
            L = certified_lower_bound(P(0, 1), D2, F(4), grid, max_refinements=0)
            assert 0 < L <= 2
            if prev is not None:
                assert L >= prev - F(1, 1000)  # essentially monotone refinement
            prev = L
        assert prev > 2 - F(3, 10)

    def test_shifted_root(self):
        # f = x - 1/3: reverse triangle inequality gives 5/3 on |z| = 2
        L = certified_lower_bound(P(F(-1, 3), 1), D2, F(4), 64, max_refinements=0)
        assert 0 < L <= F(5, 3)
        assert L > F(5, 3) - F(2, 10)

    def test_roots_in_K_no_margin(self):
        # f = x^2 + 2 has roots at +-i sqrt(2), inside K for U = D_{1/2}
        with pytest.raises(NoMargin):
            certified_lower_bound(P(2, 0, 1), RegionSpec.disk(0.5), F(3), 16, max_refinements=2)

    def test_never_exceeds_true_min_dense_oracle(self):
        # dense-sampling oracle: certified bound must stay below sampled min
        f = P(F(-1, 2), 1) * P(F(1, 3), 1) + P(F(1, 7))
        r = F(5)
        L = certified_lower_bound(f, D2, r, 32, max_refinements=1)
        pts = []
        for i in range(300):
            t = 2 * math.pi * i / 300
            for rad in (2.0, 2.5, 3.4, 5.0):
                pts.append(rad * complex(math.cos(t), math.sin(t)))
        true_min = min(abs(complex(f(z))) for z in pts if abs(z) <= 5 and abs(z) >= 2)
        assert float(L) <= true_min + 1e-12


def _reference_sqrt_lower(q: Fraction) -> Fraction:
    if q <= 0:
        return Fraction(0)
    return Fraction(math.isqrt(q.numerator * q.denominator), q.denominator)


def _reference_abs2_at(f: RatPoly, x: Fraction, y: Fraction) -> Fraction:
    re, im = Fraction(0), Fraction(0)
    for c in reversed(f.coeffs):
        re, im = re * x - im * y + c, re * y + im * x
    return re * re + im * im


def _reference_lower_bound(f, region, r, grid=64, max_refinements=4):
    """certified_lower_bound as first written: one Fraction Horner per cell."""
    if grid < 2:
        raise ValueError("grid resolution must be at least 2")
    r = Fraction(r)
    holes = [(Fraction(h.center.real), Fraction(h.center.imag), Fraction(h.radius)) for h in region.holes]

    n = grid
    for _ in range(max_refinements + 1):
        s = 2 * r / n
        h = s * Fraction(3, 4)
        lip = _lipschitz_bound(f, r + 2 * h)
        slack = lip * h
        keep_r2 = (r + h) ** 2
        best = None
        for i in range(n):
            cx = -r + (2 * i + 1) * r / n
            for j in range(n):
                cy = -r + (2 * j + 1) * r / n
                if cx * cx + cy * cy > keep_r2:
                    continue
                inside_hole = False
                for hx, hy, hr in holes:
                    if hr > h:
                        dx, dy = cx - hx, cy - hy
                        if dx * dx + dy * dy <= (hr - h) ** 2:
                            inside_hole = True
                            break
                if inside_hole:
                    continue
                val = _reference_sqrt_lower(_reference_abs2_at(f, cx, cy)) - slack
                if best is None or val < best:
                    best = val
        if best is not None and best > 0:
            return best
        n *= 2
    raise NoMargin(f"no positive lower bound for |f| on K within D_{float(r):g} at grid {n // 2}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoMargin as exc:
        return str(exc)


_coord = st.one_of(st.just(0.0), st.floats(min_value=-2, max_value=2))
_hole = st.tuples(st.builds(complex, _coord, _coord), st.floats(min_value=0.05, max_value=3))


class TestLowerBoundOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8), min_size=1, max_size=4),
        st.lists(_hole, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=24).map(lambda k: F(k, 4)),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=2),
    )
    def test_matches_reference(self, low, holes, r, grid, refinements):
        f = RatPoly(list(low) + [1])
        region = RegionSpec(holes)
        want = _outcome(_reference_lower_bound, f, region, r, grid, refinements)
        got = _outcome(certified_lower_bound, f, region, r, grid, refinements)
        assert type(got) is type(want) and got == want

    def test_infeasible_patch_message(self):
        with pytest.raises(NoMargin) as exc:
            certified_lower_bound(P(F(-1, 2), 1), RegionSpec.disk(0.1), F(11, 4), 48, 4)
        assert str(exc.value) == "no positive lower bound for |f| on K within D_2.75 at grid 768"


class TestRegion:
    def test_bounding_radius_centred_is_exact(self):
        assert RegionSpec.disk(9.0).bounding_radius == 9
        assert RegionSpec.disk(0.1).bounding_radius == F(0.1)

    @pytest.mark.parametrize("center", [0.3 + 0.4j, 1.1 - 0.7j, -0.1j, 1e-3 + 2.5j])
    def test_bounding_radius_off_centre_covers_hole(self, center):
        bound = RegionSpec([(center, 0.25)]).bounding_radius
        assert (bound - F(0.25)) ** 2 >= F(center.real) ** 2 + F(center.imag) ** 2
        assert float(bound) == pytest.approx(abs(center) + 0.25, rel=1e-12)


def _reference_int_poly_div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """int_poly_div_exact as it was before the monic kernel: g may be non-monic."""
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f.coeffs)
    dg = g.degree
    lead = g.coeffs[-1]
    if len(rem) < dg + 1:
        if any(rem):
            raise NonzeroRemainder("degree of f below degree of g")
        return IntPoly()
    q = [0] * (len(rem) - dg)
    for i in range(len(rem) - dg - 1, -1, -1):
        c = rem[i + dg]
        if c == 0:
            continue
        if c % lead:
            raise NonzeroRemainder("leading division inexact")
        c //= lead
        q[i] = c
        for j, gc in enumerate(g.coeffs):
            rem[i + j] -= c * gc
    if any(rem[:dg]):
        raise NonzeroRemainder("division is inexact")
    return IntPoly(q)


def _reference_clear_fractional_parts(
    f: RatPoly, M: int, N: int, want_ledger: bool = False
):
    """The greedy on numerators scaled by powers of c = lcm(denominators),
    with g = c f and G^q = c^q f^q, as first written."""
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if not verify_top_integrality(f, M, N):
        raise TopCoefficientsNotIntegral(f"top {N} coefficients of f^{M} are not all integers")
    d = f.degree
    num, cpow, state = _reference_scaled_greedy_state(f, M)
    g, c = state
    Md = M * d

    t_top = Md - N
    q_cur = t_top // d
    Gq = g ** q_cur  # c^q f^q, maintained by exact division as q descends
    ledger = []
    for t in range(t_top, -1, -1):
        q, rr = divmod(t, d)
        while q_cur > q:
            Gq = _reference_int_poly_div_exact(Gq, g)
            q_cur -= 1
        D_t = cpow[Md - t]
        fn = num[t] % D_t
        if fn:
            _reference_scaled_subtract(num, cpow, fn, Gq, q, rr, t)
        ledger.append((q, rr, Fraction(fn, D_t)))
        if num[t] % D_t:
            raise CertificateCheckFailed("greedy step left a fractional coefficient")
    out = IntPoly([n // cpow[Md - t] for t, n in enumerate(num)])
    if not (out.is_monic and out.degree == Md):
        raise CertificateCheckFailed(f"greedy output is not monic of degree {Md}")
    return (out, ledger) if want_ledger else out


def _reference_scaled_greedy_state(f: RatPoly, M: int):
    """Integer working state for the greedy: num[t] = (f^M coeff of x^t) * c^{Md-t}."""
    d = f.degree
    g, c = scaled_integer_form(f)  # f = g / c
    G = g ** M
    Md = M * d
    cpow = [1] * (Md + 1)
    for e in range(1, Md + 1):
        cpow[e] = cpow[e - 1] * c
    num = []
    for t, gi in enumerate(G.coeffs):
        e = Md - t - M
        if e >= 0:
            num.append(gi * cpow[e])
        else:
            quot, rem = divmod(gi, cpow[-e])
            assert rem == 0
            num.append(quot)
    return num, cpow, (g, c)


def _reference_scaled_subtract(num: list, cpow: list, fn: int, Gq, q: int, rr: int, t: int):
    """num -= fn/c^{Md-t} * (c^q f^q) x^rr / c^q, all over the fixed denominators."""
    for j, gcj in enumerate(Gq.coeffs):
        if not gcj:
            continue
        s = j + rr
        e = t - s - q
        if e >= 0:
            num[s] -= fn * gcj * cpow[e]
        else:
            quot, rem = divmod(gcj, cpow[-e])
            assert rem == 0
            num[s] -= fn * quot


def _reference_reconstruction_residual(f: RatPoly, M: int, p: IntPoly, ledger) -> RatPoly:
    """f^M - p - sum {a_i} f^{q_i} x^{r_i}; exact zero for a faithful ledger."""
    d = f.degree
    num, cpow, (g, c) = _reference_scaled_greedy_state(f, M)
    Md = M * d
    for i, pc in enumerate(p.coeffs):
        num[i] -= pc * cpow[Md - i]
    q_cur = None
    Gq = None
    for q, rr, frac in ledger:
        if frac == 0:
            continue
        if q_cur is None or q > q_cur:
            Gq = g ** q
            q_cur = q
        while q_cur > q:
            Gq = _reference_int_poly_div_exact(Gq, g)
            q_cur -= 1
        t = d * q + rr
        D_t = cpow[Md - t]
        fn = frac.numerator * (D_t // frac.denominator)  # frac over the fixed scale
        _reference_scaled_subtract(num, cpow, fn, Gq, q, rr, t)
    return RatPoly(
        [Fraction(n, cpow[Md - t]) for t, n in enumerate(num)]
    )


def _assert_matches_reference_greedy(f: RatPoly, M: int, N: int):
    p, ledger = clear_fractional_parts(f, M, N, want_ledger=True)
    want_p, want_ledger = _reference_clear_fractional_parts(f, M, N, want_ledger=True)
    assert p == want_p
    assert ledger == want_ledger
    assert reconstruction_residual(f, M, p, ledger) == _reference_reconstruction_residual(f, M, p, ledger)
    # a corrupted ledger leaves the same nonzero residual in both
    if ledger:
        q, rr, frac = ledger[-1]
        bad = ledger[:-1] + [(q, rr, frac + 1)]
        got = reconstruction_residual(f, M, p, bad)
        assert not got.is_zero
        assert got == _reference_reconstruction_residual(f, M, p, bad)


class TestGreedy:
    def test_micro_oracle(self):
        # f = x^2 - 1/2, M = 2, N = 1: f^2 = x^4 - x^2 + 1/4, only the
        # constant 1/4 gets cleared (q = 0, r = 0)
        out = clear_fractional_parts(P(F(-1, 2), 0, 1), 2, 1)
        assert out.coeffs == (0, 0, -1, 0, 1)

    def test_integer_input_unchanged(self):
        f = P(-3, 2, 1)
        out = clear_fractional_parts(f, 3, 2)
        assert out.to_rat() == poly_pow(f, 3)

    def test_fractional_leftover_raises(self, monkeypatch):
        monkeypatch.setattr(patching, "_scaled_subtract", lambda *args: None)
        with pytest.raises(CertificateCheckFailed, match="fractional coefficient"):
            clear_fractional_parts(P(F(-1, 2), 0, 1), 2, 1)

    def test_top_not_integral(self):
        with pytest.raises(TopCoefficientsNotIntegral):
            clear_fractional_parts(P(F(1, 2), 1), 2, 2)

    def test_reconstruction_identity(self):
        f = P(F(1, 4), -1, 1)  # (x - 1/2)^2, M = 8 verified for N = 2
        M, N = 8, 2
        p, ledger = clear_fractional_parts(f, M, N, want_ledger=True)
        assert reconstruction_residual(f, M, p, ledger).is_zero

    def test_off_scale_ledger_entry_rejected(self):
        # integral f has c = 1, so every ledger entry must be an integer; an
        # entry changed from 0 to 1/2 used to floor to 0 and read as a zero
        # residual
        f = P(1, 2, 0, 1)
        M, N = 9, 6
        p, ledger = clear_fractional_parts(f, M, N, want_ledger=True)
        assert all(frac == 0 for _, _, frac in ledger)
        q, rr, _ = ledger[0]
        bad = [(q, rr, F(1, 2))] + ledger[1:]
        with pytest.raises(CertificateCheckFailed, match="off the scale"):
            reconstruction_residual(f, M, p, bad)

    def test_q_pattern(self):
        # Targets run over t = 0..Md-N; floor(t/d) hits the top value once,
        # every other value (including 0) exactly d times.  The ledger records
        # (q, r) for every step, so an integral f exercises the indexing.
        f = P(1, 2, 0, 1)  # d = 3
        M, N = 9, 6
        p, ledger = clear_fractional_parts(f, M, N, want_ledger=True)
        d = 3
        qs = [q for q, _, _ in ledger]
        top = (M * d - N) // d
        counts = {q: qs.count(q) for q in set(qs)}
        assert counts[top] == 1
        for q in range(top):
            assert counts[q] == d

    def test_monic_integer_output_degree(self):
        f = P(F(1, 4), -1, 1)
        p = clear_fractional_parts(f, 8, 2)
        assert p.is_monic and p.degree == 16

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_reconstruction(self, low, N):
        f = RatPoly(list(low) + [1])
        d = f.degree
        # find a small verified M
        try:
            M = minimal_integerizing_exponent(f, N, cap=256).M
        except NotFound:
            return
        p, ledger = clear_fractional_parts(f, M, N, want_ledger=True)
        assert p.is_monic and p.degree == M * d
        assert reconstruction_residual(f, M, p, ledger).is_zero

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_reference_random(self, low, N):
        f = RatPoly(list(low) + [1])
        try:
            M = minimal_integerizing_exponent(f, N, cap=256).M
        except NotFound:
            return
        _assert_matches_reference_greedy(f, M, N)

    @pytest.mark.parametrize(
        "f, M, N",
        [
            (P(F(1, 4), -1, 1), 8, 2),  # (x - 1/2)^2
            (P(1, 2, 0, 1), 9, 6),  # the d = 3 case of test_q_pattern
            (P(F(-1, 6), F(1, 3), F(1, 2), 1), 24, 2),  # three denominators, c = 6
        ],
    )
    def test_matches_reference_fixed(self, f, M, N):
        assert verify_top_integrality(f, M, N)
        _assert_matches_reference_greedy(f, M, N)


class TestChooseParameters:
    def test_d9_example(self):
        f = P(F(1, 4), -1, 1)  # (x - 1/2)^2
        params = choose_parameters(f, D9)
        assert params.k == 4
        assert params.N == 8
        assert params.M == 1024
        assert params.r >= 9
        assert 1 < params.R_lower <= F(289, 4)
        assert params.inequalities_hold()

    def test_insufficient_margin(self):
        # x^2 - 4 has roots on the boundary circle of U = D_2, so no margin over K
        with pytest.raises((InsufficientMargin, NoMargin)):
            choose_parameters(P(-4, 0, 1), D2, PatchConfig(grid=16, max_refinements=1))

    def test_failed_inequalities_raise(self, monkeypatch):
        monkeypatch.setattr(PatchParams, "inequalities_hold", lambda self: False)
        with pytest.raises(InsufficientMargin):
            choose_parameters(P(F(-1, 2), 0, 1), D2)

    def test_integer_input_short_circuits_M(self):
        params = choose_parameters(P(-1, 0, 1), D2)  # roots inside U = D_2
        assert params.M == 1

    def test_search_stops_at_degree_cap(self):
        # (x + 1/2)^2 outside D_2 needs N = 138; no M <= 256 // 2 integerizes it
        with pytest.raises(DegreeCapExceeded):
            choose_parameters(P(F(1, 4), 1, 1), D2, PatchConfig(max_degree=256))

    def test_degree_cap_at_default_max_degree_is_quick(self):
        # the same input at max_degree 8192: the subgroup search proves
        # M_0 > 4096 without scanning 4,096 candidates (about 9 s)
        t0 = time.perf_counter()
        with pytest.raises(DegreeCapExceeded, match=r"^no integerizing exponent <= 4096 \(N=138\)$"):
            choose_parameters(P(F(1, 4), 1, 1), D2)
        assert time.perf_counter() - t0 < 3.0


class TestRationalize:
    def test_identity_when_within_limit(self):
        m = P(F(1, 2), F(-3, 4), 1)
        assert rationalize(m, D2, F(1, 2), F(5), limit=16) == m

    def test_decimal_to_third(self):
        m = P(F(-333333, 1000000), 1)
        out = rationalize(m, D2, F(2, 3), F(5), limit=3)
        assert out == P(F(-1, 3), 1)

    def test_perturbation_bound(self):
        m = P(F(-333333, 1000000), F(123456, 100001), 0, 1)
        eps = F(1, 2)
        r = F(5)
        out = rationalize(m, D2, eps, r, limit=8)
        d = m.degree
        per_coeff = eps / (2 * d * r ** (d - 1))
        total = sum(abs(F(a) - F(b)) * r ** i for i, (a, b) in enumerate(zip(m.coeffs, out.coeffs)))
        assert all(
            abs(F(a) - F(b)) < per_coeff for a, b in zip(m.coeffs[:-1], out.coeffs[:-1])
        )
        assert total < eps / 2


class TestPatchPipeline:
    def test_already_integer_short_circuit(self):
        cert = patch(P(0, 1), D2, PatchConfig(grid=16, spot_samples=64))
        assert cert.route == "already-integer"
        assert cert.p.coeffs == (0, 1)
        assert cert.spot_check.min_abs_value > 1.9

    def test_no_margin_roots_in_K(self):
        with pytest.raises((NoMargin, InsufficientMargin)):
            patch(P(2, 0, 1), RegionSpec.disk(0.5), PatchConfig(grid=16, max_refinements=1))

    def test_small_pipeline_end_to_end(self):
        # m = x - 1/2 over a small hole: cheap full run of the pipeline
        cert = patch(P(F(-1, 2), 1), RegionSpec.disk(4.0), PatchConfig(grid=24, spot_samples=128))
        assert cert.route == "patched"
        assert cert.p.is_monic
        assert cert.exact_cert_ok
        assert cert.reconstruction_ok
        assert cert.p.degree == cert.params.M * cert.params.d
        assert cert.spot_check.min_abs_value > 1


def _mpmath_min_abs(coeffs, points, dps):
    """Oracle: min |p| and its log10 over the points by mpmath Horner."""
    import mpmath

    with mpmath.workdps(dps):
        best = None
        for z in points:
            acc = mpmath.mpc(0)
            for c in reversed(coeffs):
                acc = acc * mpmath.mpc(z) + c
            if best is None or abs(acc) < best:
                best = abs(acc)
        return float(best), float(mpmath.log10(best))


class TestSpotCheckOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=64),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_mpmath(self, low, hole, extra, seed):
        p = IntPoly(list(low) + [1])
        region, r = RegionSpec.disk(hole), hole + extra
        config = PatchConfig(spot_samples=24, seed=seed)
        got = spot_check_min_abs(p, region, r, config)
        pts = patching._sample_kr_points(region, r, config.spot_samples, config.seed)
        want_abs, want_log10 = _mpmath_min_abs(p.coeffs, pts, dps=200)
        assert got.num_samples == len(pts)
        assert abs(got.min_log10_abs - want_log10) <= 1e-9
        assert math.isclose(got.min_abs_value, want_abs, rel_tol=1e-12)

    def test_precision_raise_path(self, monkeypatch):
        # (x - 2)^60 on the boundary of a hole of radius 1e-3 about 2: |p| is
        # near 1e-180 while sum |c_k||z|^k is near 4^60, so the first
        # precision falls short and every boundary point is redone.
        p = poly_pow(P(-2, 1), 60).to_int_poly()
        region, r = RegionSpec([(2, 1e-3)]), 3.0
        config = PatchConfig(spot_samples=40, seed=3)
        runs = []
        horner = patching._horner_fixed
        monkeypatch.setattr(patching, "_horner_fixed", lambda *a: runs.append(a[-1]) or horner(*a))
        got = spot_check_min_abs(p, region, r, config)
        assert len(runs) > config.spot_samples and max(runs) > min(runs)
        pts = patching._sample_kr_points(region, r, config.spot_samples, config.seed)
        want_abs, want_log10 = _mpmath_min_abs(p.coeffs, pts, dps=400)
        assert got.min_log10_abs == pytest.approx(-180, abs=1)
        assert abs(got.min_log10_abs - want_log10) <= 1e-9
        assert math.isclose(got.min_abs_value, want_abs, rel_tol=1e-12)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SpotCheck)] == [
            "num_samples", "min_abs_value", "min_log10_abs",
        ]
        got = spot_check_min_abs(IntPoly([0, 1]), D2, 2.5, PatchConfig(spot_samples=16))
        assert isinstance(got, SpotCheck) and got.num_samples == 16
        assert got.min_abs_value == pytest.approx(2.0)


class TestHeuristic:
    def test_far_samples_give_x(self):
        samples = [2 * complex(math.cos(t), math.sin(t)) for t in [0.1 * k for k in range(63)]]
        samples += [3.5 * complex(math.cos(t), math.sin(t)) for t in [0.17 * k for k in range(40)]]
        cand = heuristic_real_candidate(samples, degree_budget=4)
        assert cand == P(0, 1)
        assert min(abs(complex(cand(w))) for w in samples) == pytest.approx(2.0)

    def test_jensen_obstruction(self):
        # samples filling |w| >= 1/2 out to 3: no monic polynomial can stay
        # above 1 there (mean of log|p| over the radius-1/2 circle is negative
        # unless a root escapes into the sampled set)
        samples = []
        for rad in (0.5, 0.8, 1.3, 2.0, 3.0):
            samples += [rad * complex(math.cos(t), math.sin(t)) for t in [0.05 * k for k in range(126)]]
        with pytest.raises(NotFound):
            heuristic_real_candidate(samples, degree_budget=6)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            heuristic_real_candidate([], 3)
