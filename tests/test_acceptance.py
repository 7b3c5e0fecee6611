"""Acceptance suite: every criterion at its stated tolerance and time budget,
one printed line per criterion.  Run with -s to see the lines."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from arithcap.analytic import PolyMap, jet_cap_norm, taylor_jet
from arithcap.curves import circle_domain, conformal_image_domain, perturbed_circle_domain
from arithcap.family import SeedSequence, distinctness_check, q_inverse_series, tail_bound_check
from arithcap.greens import equilibrium_measure, solve_green
from arithcap.integerize import (
    integerizing_exponent,
    minimal_integerizing_exponent,
    verify_top_integrality,
)
from arithcap.overflow import (
    arakelov_degree,
    classical_inverse_check,
    identity_residual,
    log_abs_boundary_integral,
    overflow,
    degree_consistency_residual,
    pushforward_green,
    symmetry_check,
)
from arithcap.patching import PatchConfig, RegionSpec, clear_fractional_parts, patch
from arithcap.polys import RatPoly, poly_pow
from arithcap.series import (
    TruncSeries,
    series_comp_inverse,
    series_compose,
    series_reciprocal,
)

F = Fraction


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        dt = time.perf_counter() - self.t0
        ok = exc_type is None and dt < self.seconds
        print(f"{'PASS' if ok else 'FAIL'} {self.name} ({dt:.2f}s / budget {self.seconds:g}s)")
        if exc_type is None:
            assert dt < self.seconds, f"{self.name} exceeded its {self.seconds}s budget ({dt:.2f}s)"
        return False


def test_criterion_01_disk_capacity():
    with _Budget("criterion 1: disk capacity 1/rho", 3.0):
        for rho in (0.5, 1.5, 3.0):
            t0 = time.perf_counter()
            sol = solve_green(circle_domain(rho), 256)
            assert abs(sol.capacity - 1 / rho) / (1 / rho) < 1e-6
            assert time.perf_counter() - t0 < 1.0


def test_criterion_02_offcenter_disk():
    with _Budget("criterion 2: off-center disk robin + Poisson density", 1.0):
        sol = solve_green(circle_domain(1.0, O=0.4), 256)
        assert abs(sol.robin_c - math.log(0.84)) < 1e-6
        dens = float(sol.measure_density_t(0, [0.0])[0])  # arclength = t on the unit circle
        want = 0.84 / (2 * math.pi * 0.36)
        assert abs(dens - want) < 1e-4


def test_criterion_03_conformal_transplant():
    with _Budget("criterion 3: conformal transplant psi = 1.3w + 0.2w^2", 5.0):
        dom = conformal_image_domain([0, 1.3, 0.2])
        sol = solve_green(dom, 256)
        assert abs(sol.capacity - 1 / 1.3) < 1e-5
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.uniform(0.15, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = 1.3 * w + 0.2 * w * w
            assert abs(sol.green(complex(z)) + math.log(abs(w))) < 1e-5


def test_criterion_04_prop35_value():
    with _Budget("criterion 4: identity prop35, both sides = 2 ln 1.5", 5.0):
        sol = solve_green(circle_domain(1.5), 256)
        f = PolyMap([0, -0.5, 1])
        want = 2 * math.log(1.5)
        lhs = log_abs_boundary_integral(sol, f)
        jet = taylor_jet(f, sol.domain, 8)
        # divisor part: preimages of 0 are {0 (= O, dropped by -eO), 0.5}
        rhs = sol.green(0.5) + jet_cap_norm(jet, sol)
        assert abs(lhs - want) < 1e-6
        assert abs(rhs - want) < 1e-6
        assert identity_residual(sol, f, "prop35") < 1e-6


def test_criterion_05_cor36_prop34_residuals():
    with _Budget("criterion 5: identities cor36 / prop34 at 20 points", 10.0):
        sol = solve_green(circle_domain(1.5), 256)
        f = PolyMap([0, -0.5, 1])
        for k in range(20):
            x = complex(0.6 * np.exp(2j * np.pi * k / 20))
            assert identity_residual(sol, f, "cor36", x=x) < 1e-5
            assert identity_residual(sol, f, "prop34", x=x) < 1e-5


def test_criterion_06_overflow_routes():
    with _Budget("criterion 6: overflow def/energy routes", 30.0):
        for rho in (0.8, 1.5):
            sol = solve_green(circle_domain(rho), 256)
            for f in (PolyMap([0, 1]), PolyMap([0, 0, 1])):
                assert abs(overflow(sol, f, "def")) < 1e-5
                assert abs(overflow(sol, f, "energy")) < 1e-5
        pert = solve_green(perturbed_circle_domain(1.0, 0.05, 3), 256)
        f = PolyMap([0, -0.5, 1])
        d = overflow(pert, f, "def")
        e = overflow(pert, f, "energy")
        assert abs(d - e) < 1e-4


def test_criterion_07_classical_example():
    with _Budget("criterion 7: classical 1/z example", 5.0):
        unit = classical_inverse_check(1.0, samples=20)
        assert unit.max_residual < 1e-6
        for rho in (0.6, 1.7):
            res = classical_inverse_check(rho, samples=20)
            assert abs(res.log_capacity - math.log(rho)) < 1e-5


def test_criterion_08_degree_relation():
    with _Budget("criterion 8: jet norm = e * degree + pseudoconvex flip", 5.0):
        sol = solve_green(circle_domain(0.8), 256)
        jet = taylor_jet(PolyMap([0, 1]), circle_domain(0.8), 4)
        res = arakelov_degree(sol, jet)
        assert abs(res.degree - math.log(0.8)) < 1e-9
        assert res.pseudoconvex
        for e in (1, 2, 3):
            assert degree_consistency_residual(sol, e) < 1e-5
        sol2 = solve_green(circle_domain(1.25), 256)
        jet2 = taylor_jet(PolyMap([0, 1]), circle_domain(1.25), 4)
        assert not arakelov_degree(sol2, jet2).pseudoconvex


def test_criterion_09_integerizing_exponent():
    with _Budget("criterion 9: integerizing exponent formula/search/verify", 1.0):
        f = RatPoly([F(1, 2), 1])
        assert integerizing_exponent(f, 2).M == 16
        assert minimal_integerizing_exponent(f, 2, cap=64).M == 8
        assert verify_top_integrality(f, 16, 2)
        assert verify_top_integrality(f, 8, 2)
        assert not verify_top_integrality(f, 4, 2)


def test_criterion_10_patch_end_to_end():
    with _Budget("criterion 10: end-to-end patch of x - 1/2 outside D_9", 300.0):
        cert = patch(
            RatPoly([F(-1, 2), 1]),
            RegionSpec.disk(9.0),
            PatchConfig(grid=48, spot_samples=1000, seed=0),
        )
        assert cert.route == "patched"
        assert cert.p.is_monic and cert.p.degree == 2048
        assert cert.params.M == 1024 and cert.params.k == 4 and cert.params.N == 8
        assert cert.exact_cert_ok
        assert cert.reconstruction_ok
        assert cert.spot_check.num_samples >= 1000
        assert cert.spot_check.min_log10_abs > math.log10(2 - 1e-3)


def test_criterion_11_greedy_micro_oracle():
    with _Budget("criterion 11: greedy micro-oracle x^4 - x^2", 1.0):
        out = clear_fractional_parts(RatPoly([F(-1, 2), 0, 1]), 2, 1)
        assert out.coeffs == (0, 0, -1, 0, 1)


def test_criterion_12_family():
    with _Budget("criterion 12: integer series family for p = X - 2", 10.0):
        from arithcap.polys import IntPoly

        p = IntPoly([-2, 1])
        u = q_inverse_series(p, 64)
        for n in range(1, 65):
            assert u.coeff(n) == 2 ** (n - 1)
        seeds = [SeedSequence([(i >> b) & 1 for b in range(8)], 1) for i in range(32)]
        from arithcap.family import family_member

        members = [family_member(p, s, 8) for s in seeds]
        rep = distinctness_check(members)
        assert rep.distinct
        assert all(u.is_integral for u in members)
        dom = circle_domain(0.3)
        tb = tail_bound_check(p, PolyMap([0, 1]), dom)
        assert tb.geometric_ok and tb.delta <= 0.75 + 1e-12
        rng = np.random.default_rng(1)
        pts = 0.3 * rng.uniform(0.3, 1.0, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        uu = 1.0 / (1.0 / pts - 2.0)
        full = uu / (1 - uu)
        errs = [np.max(np.abs(full - sum(uu ** n for n in range(1, N + 1)))) for N in (5, 15)]
        ratio = (errs[1] / errs[0]) ** (1 / 10)
        assert ratio <= tb.delta + 1e-9


def test_criterion_13_symmetry_checker():
    with _Budget("criterion 13: real-symmetry checker", 1.0):
        dom = circle_domain(1.5)
        assert symmetry_check(PolyMap([0, 1, 0, 1]), dom) < 1e-12
        samples = 256
        dev = symmetry_check(PolyMap([0, 0, 1j]), dom, samples=samples)
        t = np.linspace(0, 2 * np.pi, samples, endpoint=False)
        want = float(np.max(2 * np.abs(dom.curves[0](t)) ** 2))
        assert abs(dev - want) < 1e-8


def test_criterion_14_property_suites():
    with _Budget("criterion 14: seeded property suites", 30.0):
        rng = random.Random(2024)

        def rand_fraction():
            return F(rng.randint(-8, 8), rng.randint(1, 6))

        # ring laws, 200 cases
        for _ in range(200):
            a = RatPoly([rand_fraction() for _ in range(rng.randint(0, 5))])
            b = RatPoly([rand_fraction() for _ in range(rng.randint(0, 5))])
            c = RatPoly([rand_fraction() for _ in range(rng.randint(0, 5))])
            assert a * b == b * a and a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        # compositional inversion round-trips, 200 cases, D <= 16
        for _ in range(200):
            d = rng.randint(1, 16)
            coeffs = [0, rng.choice([1, -1])] + [rand_fraction() for _ in range(d - 1)]
            f = TruncSeries(coeffs[: d + 1], d)
            h = series_comp_inverse(f)
            assert series_compose(h, f) == TruncSeries.identity(d)

        # reciprocal round-trips, 200 cases
        for _ in range(200):
            d = rng.randint(0, 12)
            coeffs = [rng.choice([1, -1])] + [rand_fraction() for _ in range(d)]
            s = TruncSeries(coeffs[: d + 1], d)
            prod = s * series_reciprocal(s)
            assert prod.coeffs == (1,) + (0,) * d

        # integerization soundness, 100 cases
        for _ in range(100):
            d = rng.randint(1, 4)
            fpoly = RatPoly(
                [F(rng.randint(-6, 6), rng.choice([2, 3, 4, 5, 6])) for _ in range(d)] + [1]
            )
            N = rng.randint(1, 6)
            res = integerizing_exponent(fpoly, N)
            assert res.verified
            if res.k > 1:
                assert verify_top_integrality(fpoly, res.M, N)
