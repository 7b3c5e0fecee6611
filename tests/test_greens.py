import math

import numpy as np
import pytest

from arithcap.curves import (
    DomainSpec,
    TrigCurve,
    circle_domain,
    conformal_image_domain,
    ellipse_domain,
    perturbed_circle_domain,
    trig_domain,
)
from arithcap.errors import CenterOnBoundary, PoleAtCenter, SolverIllConditioned
from arithcap.greens import equilibrium_measure, solve_green

def _reference_winding(curve, points, n=2048):
    """TrigCurve.winding before it was blocked: one quotient array over every
    pending point per grid shift."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    out = np.zeros(pts.shape, dtype=int)
    todo = np.ones(pts.shape, dtype=bool)
    for shift in (0.0, np.pi / n, np.e / (7 * n)):
        if not np.any(todo):
            break
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False) + shift
        g = curve(t)
        dg = curve.deriv(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (dg[None, :] / (g[None, :] - pts[todo, None])).mean(axis=1) / 1j
        good = np.isfinite(w) & (np.abs(w - np.rint(w.real)) < 0.3)
        vals = np.where(good, np.rint(np.where(np.isfinite(w), w, 0).real), 0).astype(int)
        idx = np.flatnonzero(todo)
        out[idx[good]] = vals[good]
        todo[idx[good]] = False
    return out


TEST_DOMAINS = [
    circle_domain(0.8),
    circle_domain(1.5),
    circle_domain(1.0, O=0.4),
    ellipse_domain(1.3, 0.8),
    conformal_image_domain([0, 1.3, 0.2]),
    perturbed_circle_domain(1.0, 0.05, 3),
]


class TestCurves:
    def test_circle_eval(self):
        c = circle_domain(2.0).curves[0]
        assert abs(c(np.array([0.0]))[0] - 2.0) < 1e-15

    def test_turning_number_normalized(self):
        # reversed input curve gets re-oriented ccw
        c = TrigCurve({-1: 1.5})  # clockwise circle
        dom = DomainSpec([c], 0)
        assert dom.curves[0].turning_number() == 1

    def test_winding(self):
        c = circle_domain(1.0).curves[0]
        assert c.winding([0.3 + 0.1j])[0] == 1
        assert c.winding([2.0])[0] == 0

    def test_winding_on_curve_settles(self):
        c = circle_domain(1.0).curves[0]
        w = c.winding([1.0 + 0j])  # exactly on the curve
        assert w[0] in (0, 1)

    def test_blocked_winding_matches_one_shot(self):
        curve = perturbed_circle_domain(1.0, 0.05, 3).curves[0]
        rng = np.random.default_rng(4)
        nodes = curve(2 * np.pi * np.arange(0, 2048, 97) / 2048)  # on the curve, at grid nodes
        on_curve = curve(rng.uniform(0, 2 * np.pi, 20))
        near = on_curve * (1 + rng.choice([-1, 1], 20) * 10.0 ** rng.uniform(-12, -3, 20))
        box = rng.uniform(-1.3, 1.3, 60) + 1j * rng.uniform(-1.3, 1.3, 60)
        pts = np.concatenate([box[:30], nodes, on_curve, near, box[30:]])
        assert len(pts) > 3 * 32
        got = curve.winding(pts)
        assert np.array_equal(got, _reference_winding(curve, pts))
        assert np.array_equal(got, [curve.winding([p])[0] for p in pts])

    def test_contains_with_hole(self):
        dom = trig_domain({1: 1.0}, 0.6, holes=[{0: 0.1, 1: 0.3}])
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.2, 1.2, 200) + 1j * rng.uniform(-1.2, 1.2, 200)
        r_out, r_hole = np.abs(pts), np.abs(pts - 0.1)
        pts = pts[(np.abs(r_out - 1) > 1e-3) & (np.abs(r_hole - 0.3) > 1e-3)]
        got = dom.contains(pts)
        assert np.array_equal(got, (np.abs(pts) < 1) & (np.abs(pts - 0.1) > 0.3))
        assert np.array_equal(got, [dom.contains([p])[0] for p in pts])
        assert 0 < got.sum() < len(pts)

    def test_contains_keeps_2d_shape(self):
        dom = circle_domain(1.0)
        got = dom.contains(np.array([[0.1, 2.0], [0.5j, 3.0]]))
        assert got.tolist() == [[True, False], [True, False]]
        assert dom.curves[0].winding(np.array([[0.1], [2.0]])).tolist() == [[1], [0]]

    def test_center_must_be_interior(self):
        with pytest.raises(ValueError):
            DomainSpec([TrigCurve({1: 1.0})], 2.0)

    def test_touching_curves_rejected(self):
        outer = TrigCurve({1: 1.0})
        touching = TrigCurve({0: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            DomainSpec([outer, touching], -0.5)


class TestSolveGreen:
    @pytest.mark.parametrize("rho", [0.5, 0.8, 1.5, 3.0])
    def test_disk_closed_form(self, rho):
        sol = solve_green(circle_domain(rho), 256)
        assert abs(sol.robin_c - math.log(rho)) < 1e-9
        assert abs(sol.capacity - 1.0 / rho) * rho < 1e-6

    def test_offcenter_moebius(self):
        sol = solve_green(circle_domain(1.0, O=0.4), 256)
        assert abs(sol.robin_c - math.log(0.84)) < 1e-9

    def test_center_on_boundary(self):
        with pytest.raises(CenterOnBoundary):
            solve_green(circle_domain(1.0, O=1.0), 64)

    def test_residual_threshold(self):
        with pytest.raises(SolverIllConditioned):
            solve_green(perturbed_circle_domain(1.0, 0.3, 7), 32, residual_threshold=1e-14)

    @pytest.mark.parametrize("dom", TEST_DOMAINS)
    def test_measure_mass_and_positivity(self, dom):
        sol = solve_green(dom, 256)
        assert abs(sol.raw_weight_sum - 1.0) < 1e-3
        assert np.all(sol.weights >= 0)
        assert abs(sol.weights.sum() - 1.0) < 1e-14

    def test_green_positive_interior(self):
        rng = np.random.default_rng(3)
        for dom in TEST_DOMAINS[:4]:
            sol = solve_green(dom, 128)
            O = dom.center
            count = 0
            while count < 125:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if abs(z - O) < 1e-3:
                    continue
                if bool(dom.contains([z])[0]):
                    assert sol.green(z) > 0
                    count += 1

    def test_green_zero_outside(self):
        sol = solve_green(circle_domain(1.5), 64)
        assert sol.green(2.5 + 1j) == 0.0

    def test_pole_at_center(self):
        sol = solve_green(circle_domain(1.5), 64)
        with pytest.raises(PoleAtCenter):
            sol.green(0)

    def test_green_array_matches_scalar(self):
        sol = solve_green(perturbed_circle_domain(1.0, 0.05, 3), 128)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1.2, 1.2, 300) + 1j * rng.uniform(-1.2, 1.2, 300)
        many = sol.green(pts)
        assert many.shape == pts.shape and many.dtype == float
        assert many.tolist() == [sol.green(complex(z)) for z in pts]
        assert 0 < np.count_nonzero(many) < len(pts)
        assert sol.green(pts[:6].reshape(2, 3)).shape == (2, 3)
        assert sol.green(np.array([], dtype=complex)).shape == (0,)
        assert isinstance(sol.green(0.5), float)
        with pytest.raises(PoleAtCenter):
            sol.green(np.array([0.5, 0.0]))

    def test_disk_green_closed_form(self):
        sol = solve_green(circle_domain(1.5), 256)
        assert abs(sol.green(0.75) - math.log(2)) < 1e-10

    def test_conformal_transplant(self):
        dom = conformal_image_domain([0, 1.3, 0.2])
        sol = solve_green(dom, 256)
        assert abs(sol.capacity - 1 / 1.3) < 1e-5 / 1.3
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = 1.3 * w + 0.2 * w * w
            assert abs(sol.green(complex(z)) + math.log(abs(w))) < 1e-5


class TestEquilibriumMeasure:
    def test_centered_disk_uniform(self):
        sol = solve_green(circle_domain(2.0), 128)
        pairs = equilibrium_measure(sol, 256)
        ws = np.array([w for _, w in pairs])
        assert np.allclose(ws, 1 / 256, atol=1e-12)

    def test_normalization(self):
        for dom in TEST_DOMAINS:
            sol = solve_green(dom, 128)
            ws = np.array([w for _, w in equilibrium_measure(sol, 200)])
            assert abs(ws.sum() - 1.0) < 1e-14
            assert np.all(ws >= 0)

    def test_poisson_kernel_density(self):
        sol = solve_green(circle_domain(1.0, O=0.4), 256)
        dens = float(sol.measure_density_t(0, [0.0])[0])  # |gamma'| = 1 here
        want = 0.84 / (2 * math.pi * 0.36)
        assert abs(dens - want) < 1e-4 * want


class TestAnnulus:
    def test_two_curve_domain_basics(self):
        dom = DomainSpec(
            [TrigCurve({1: 2.0}), TrigCurve({1: 0.4})], center=1.1
        )
        sol = solve_green(dom, 192)
        assert sol.collocation_residual < 1e-6
        assert abs(sol.raw_weight_sum - 1.0) < 1e-3
        assert np.all(sol.weights >= -1e-12)
        # Green positivity at a few interior points of the annulus
        for z in (1.5, -1.2, 1.1 + 0.7j):
            assert sol.green(z) > 0
        assert sol.green(0.1) == 0.0  # inside the hole
