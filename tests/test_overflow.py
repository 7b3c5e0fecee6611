import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcap.analytic import (
    AnalyticMap,
    PolyMap,
    SeriesMap,
    jet_cap_norm,
    preimage_clusters,
    preimages,
    taylor_jet,
)
from arithcap.curves import (
    DomainSpec,
    TrigCurve,
    circle_domain,
    conformal_image_domain,
    perturbed_circle_domain,
)
from arithcap.errors import (
    AllCoefficientsBelowTolerance,
    AsymmetricDomain,
    BoundaryZero,
    CenterNotZero,
    ConstantMap,
    WrongVanishingOrder,
)
from arithcap.greens import GreenSolution, solve_green
from arithcap.overflow import (
    ClassicalCheck,
    _bump,
    _center_divisor_sum,
    _deck_shifts,
    _energy_double_integral,
    _energy_with_retries,
    _EnergyPieces,
    _kernel_free_integrand,
    _min_exclusion_dist,
    _torus_dist2,
    arakelov_degree,
    boundary_energy,
    classical_inverse_check,
    identity_residual,
    log_abs_boundary_integral,
    overflow,
    degree_consistency_residual,
    pushforward_green,
    symmetry_check,
)

RHO = 1.5
DISK = circle_domain(RHO)
Z = PolyMap([0, 1])
Z2 = PolyMap([0, 0, 1])
ZQ = PolyMap([0, -0.5, 1])  # z(z - 0.5)


@pytest.fixture(scope="module")
def disk_sol():
    return solve_green(DISK, 256)


@pytest.fixture(scope="module")
def pert_sol():
    return solve_green(perturbed_circle_domain(1.0, 0.05, 3), 256)


def _reference_preimages(f, y, domain, cluster_tol=1e-7):
    """preimages before the batched kernel: np.roots on one shifted
    polynomial, and one containment call per group."""
    coeffs = np.array(f.coeffs, dtype=complex)
    if len(coeffs) > 0:
        coeffs = coeffs.copy()
        coeffs[0] -= y
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    if deg < 1:
        raise ConstantMap("map is constant; fibers are not finite")
    roots = np.roots(coeffs[: deg + 1][::-1]).astype(complex)
    for _ in range(3):
        fv = f(roots) - y
        dv = f.deriv(roots)
        safe = np.abs(dv) > 1e-14 * (1 + np.abs(fv))
        roots[safe] = roots[safe] - fv[safe] / dv[safe]
    scale = 1.0 + np.max(np.abs(roots))
    used = np.zeros(len(roots), dtype=bool)
    out = []
    for i in range(len(roots)):
        if used[i]:
            continue
        group = np.abs(roots - roots[i]) < cluster_tol * scale
        group &= ~used
        mult = int(group.sum())
        rep = complex(roots[group].mean())
        used |= group
        out.append((rep, mult, bool(domain.contains([rep])[0])))
    return out


def _reference_green(sol, x):
    """GreenSolution.green before it took arrays: one point, its own
    containment call, one matrix-vector product."""
    x = complex(x)
    if not bool(sol.domain.contains([x])[0]):
        return 0.0
    logs = np.log(np.abs(np.array([x])[:, None] - sol.sources[None, :]))
    return float(-np.log(abs(x - sol.domain.center)) + (sol.const + logs @ sol.charges)[0])


def _reference_pushforward(sol, f, y):
    """pushforward_green before batching, at one point."""
    total = 0.0
    for p, mult, inside in _reference_preimages(f, complex(y), sol.domain):
        if inside and p != sol.domain.center:
            total += mult * _reference_green(sol, p)
    return total


def _reference_def_route(sol, f, n_quad=2048):
    """overflow(method="def") before batching: the preimages, containment and
    Green evaluation of each quadrature node on their own."""
    O = sol.domain.center
    y0 = complex(f(np.array([O]))[0])
    term1 = 0.0
    for z, mult, inside in _reference_preimages(f, y0, sol.domain):
        if abs(z - O) < 1e-6 * (1.0 + abs(O)):
            continue
        if inside:
            term1 += mult * _reference_green(sol, z)
    t = np.linspace(0.0, 2 * np.pi, n_quad, endpoint=False)
    zs, ws = [], []
    for i, curve in enumerate(sol.domain.curves):
        zs.append(curve(t))
        ws.append(sol.measure_density_t(i, t) * (2 * np.pi / n_quad))
    z = np.concatenate(zs)
    w = np.concatenate(ws)
    w = w / w.sum()
    vals = np.array([_reference_pushforward(sol, f, y) for y in f(z)])
    return term1 + float(w @ vals)


def _reference_energy(
    sol: GreenSolution,
    f: AnalyticMap,
    n: int,
    correct_isolated: bool = True,
    grid_offset: float = 0.0,
) -> _EnergyPieces:
    """_energy_double_integral before it was blocked: the n x n remainder in
    one piece, and the scalar lattice loop in the isolated corrections."""
    domain = sol.domain
    if len(domain.curves) != 1:
        raise ValueError("energy quadrature implemented for single-curve domains")
    curve = domain.curves[0]
    h = 2 * np.pi / n
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False) + grid_offset * h
    z = curve(t)
    dz = curve.deriv(t)
    F = f(z)
    dF = f.deriv(z) * dz  # dF/dt
    w = sol.measure_density_t(0, t) * h
    w = w / w.sum()

    shifts_idx = _deck_shifts(F, 1e-9)
    deltas = [2 * np.pi * m / n for m in shifts_idx]

    # Fourier part: each sine kernel contributes -sum_k cos(k delta) |phi_k|^2 / k
    phi = np.fft.fft(w)  # phi[k] = sum_j w_j e^{-2pi i jk/n}; |phi_k| is what we need
    kmax = n // 2 - 1
    ks = np.arange(1, kmax + 1)
    mags = np.abs(phi[1 : kmax + 1]) ** 2
    singular = -float(np.sum(mags / ks))
    for delta in deltas:
        singular += -float(np.sum(np.cos(ks * delta) * mags / ks))

    # smooth remainder on the n x n grid
    diff = F[:, None] - F[None, :]
    theta = t[:, None] - t[None, :]
    absdiff = np.abs(diff)

    handled = np.zeros((n, n), dtype=bool)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    handled |= idx == 0
    for m in shifts_idx:
        handled |= idx == m

    if np.any((absdiff < 1e-13 * (1.0 + np.max(absdiff))) & ~handled):
        raise BoundaryZero(
            "f(z1) = f(z2) exactly at a node pair outside the kernel split's validity"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.log(np.where(handled, 1.0, absdiff))
        S -= np.where(handled, 0.0, np.log(np.abs(2.0 * np.sin(theta / 2.0))))
        for delta in deltas:
            S -= np.where(
                handled, 0.0, np.log(np.abs(2.0 * np.sin((theta - delta) / 2.0)))
            )

    # limits on the handled diagonals: log|dF/dt| minus the non-matching kernels
    logdF = np.log(np.abs(dF))
    di = np.arange(n)
    diag_val = logdF.copy()
    for delta in deltas:
        diag_val -= math.log(abs(2.0 * math.sin(delta / 2.0)))
    S[di, di] = diag_val
    for m, delta in zip(shifts_idx, deltas):
        vals = logdF - math.log(abs(2.0 * math.sin(delta / 2.0)))
        for d2 in deltas:
            if d2 != delta:
                vals = vals - math.log(abs(2.0 * math.sin((delta - d2) / 2.0)))
        S[di, (di - m) % n] = vals

    smooth = float(w @ S @ w)

    ncorr = 0
    correction = 0.0
    if correct_isolated:
        corr, ncorr = _reference_isolated_corrections(
            sol, f, curve, t, w, F, absdiff, handled, shifts_idx, deltas, n
        )
        correction = corr

    return _EnergyPieces(
        value=float(singular + smooth + correction), shifts=deltas, corrections=ncorr
    )


def _reference_isolated_corrections(sol, f, curve, t, w, F, absdiff, handled, shifts_idx, deltas, n):
    """Find isolated off-diagonal zeros of F(t1) - F(t2) and replace the
    trapezoid contribution of a smooth bump around each by an accurate polar
    integral of the same bumped integrand."""
    h = 2 * np.pi / n
    scale = float(np.max(absdiff))
    grad = float(np.max(np.abs(f.deriv(curve(t)) * curve.deriv(t))))
    # ban a band around the handled diagonals, where |F1 - F2| is legitimately small
    band = 4
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    banned = np.zeros((n, n), dtype=bool)
    for m in [0] + list(shifts_idx):
        dist = np.minimum((idx - m) % n, (m - idx) % n)
        banned |= dist <= band
    cand_mask = (absdiff < 3 * h * grad) & ~banned
    if not np.any(cand_mask):
        return 0.0, 0
    # polish each candidate cluster by Newton on F(t1) - F(t2) = 0
    pts_all = np.argwhere(cand_mask)
    if len(pts_all) > 64:
        order = np.argsort(absdiff[pts_all[:, 0], pts_all[:, 1]])
        pts_all = pts_all[order[:64]]
    zeros: list[tuple[float, float]] = []
    for i, j in pts_all:
        a, b = t[i], t[j]
        ok = True
        for _ in range(40):
            G = complex(f(curve(np.array([a])))[0] - f(curve(np.array([b])))[0])
            da = complex((f.deriv(curve(np.array([a]))) * curve.deriv(np.array([a])))[0])
            db = complex((f.deriv(curve(np.array([b]))) * curve.deriv(np.array([b])))[0])
            J = np.array([[da.real, -db.real], [da.imag, -db.imag]])
            try:
                step = np.linalg.solve(J, np.array([G.real, G.imag]))
            except np.linalg.LinAlgError:
                ok = False
                break
            a, b = a - step[0], b - step[1]
            if abs(step[0]) + abs(step[1]) < 1e-15:
                break
        if not ok:
            continue
        G = complex(f(curve(np.array([a])))[0] - f(curve(np.array([b])))[0])
        if abs(G) > 1e-10 * scale:
            continue
        a %= 2 * np.pi
        b %= 2 * np.pi
        th = (a - b) % (2 * np.pi)
        # skip zeros on the handled diagonals
        if min(th, 2 * np.pi - th) < 3 * h:
            continue
        if any(abs(th - d) < 3 * h for d in deltas):
            continue
        if any(_torus_dist2(a, b, za, zb) < (3 * h) ** 2 for za, zb in zeros):
            continue
        zeros.append((a, b))

    if not zeros:
        return 0.0, 0

    S = _kernel_free_integrand(f, curve, deltas)
    dens = lambda tt: sol.measure_density_t(0, tt) / sol.raw_weight_sum  # noqa: E731
    total = 0.0
    for (a, b) in zeros:
        rho0 = min(np.pi / 8, 0.45 * _min_exclusion_dist(a, b, zeros, deltas))
        if rho0 < 6 * h:
            # too close to a handled diagonal or another zero for a clean
            # cutoff; leave the plain trapezoid contribution in place
            continue
        # polar integral of S * m1 * m2 * bump
        nth = 192
        phis = np.linspace(0.0, 2 * np.pi, nth, endpoint=False)
        edges = [0.0, rho0 / 64, rho0 / 16, rho0 / 4, rho0]
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(24)
        integral = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            rs = 0.5 * (hi - lo) * gauss_x + 0.5 * (hi + lo)
            rw = 0.5 * (hi - lo) * gauss_w
            R, PHI = np.meshgrid(rs, phis, indexing="ij")
            T1 = a + R * np.cos(PHI)
            T2 = b + R * np.sin(PHI)
            vals = S(T1.ravel(), T2.ravel()) * dens(T1.ravel()) * dens(T2.ravel())
            vals = vals.reshape(R.shape) * _bump(R / rho0) * R
            integral += float((rw @ vals).sum() * (2 * np.pi / nth))
        # lattice sum of the same bumped integrand
        i0 = int(np.floor(a / h))
        j0 = int(np.floor(b / h))
        rad = int(np.ceil(rho0 / h)) + 2
        lattice = 0.0
        for i in range(i0 - rad, i0 + rad + 2):
            ti = t[i % n]
            for j in range(j0 - rad, j0 + rad + 2):
                tj = t[j % n]
                r2 = _torus_dist2(ti, tj, a, b)
                if r2 >= rho0 * rho0:
                    continue
                if (i % n) == (j % n) or ((i - j) % n) in shifts_idx:
                    continue
                r = math.sqrt(r2) / rho0
                bmp = math.exp(1.0 - 1.0 / (1.0 - r * r)) if r < 1 else 0.0
                sval = float(S(np.array([ti]), np.array([tj]))[0])
                lattice += bmp * sval * w[i % n] * w[j % n]
        total += integral - lattice
    return total, len(zeros)


def _reference_energy_with_retries(sol, f, n):
    last = None
    for offset in (0.0, 0.5, math.e / 7):
        try:
            return _reference_energy(sol, f, n, grid_offset=offset)
        except BoundaryZero as exc:
            last = exc
    raise last


class TestJets:
    def test_z2(self):
        jet = taylor_jet(Z2, DISK, 6)
        assert jet.order == 2
        assert abs(jet.leading - 1) < 1e-12

    def test_shifted(self):
        jet = taylor_jet(ZQ, DISK, 6)
        assert jet.order == 1
        assert abs(jet.leading + 0.5) < 1e-12

    def test_constant_map(self):
        with pytest.raises(AllCoefficientsBelowTolerance):
            taylor_jet(PolyMap([3.0]), DISK, 6)

    def test_series_map(self):
        f = SeriesMap([0, 0, 0, 2.0], center=0, radius=1.0)
        jet = taylor_jet(f, DISK, 6)
        assert jet.order == 3 and abs(jet.leading - 2.0) < 1e-10

    def test_cap_norm_convention(self, disk_sol):
        jet = taylor_jet(Z, DISK, 4)
        assert abs(jet_cap_norm(jet, disk_sol) - math.log(RHO)) < 1e-9
        jet2 = taylor_jet(Z2, DISK, 4)
        assert abs(jet_cap_norm(jet2, disk_sol) - 2 * math.log(RHO)) < 1e-9


# The float Horner loops before the coefficient kernel, copied as oracles.


def _reference_polymap_call(f, z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for c in reversed(f.coeffs):
        out = out * z + c
    return out


def _reference_polymap_deriv(f, z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for i in range(f.degree, 0, -1):
        out = out * z + i * f.coeffs[i]
    return out


def _reference_seriesmap_call(f, z):
    w = np.asarray(z, dtype=complex) - f.center
    out = np.zeros(w.shape, dtype=complex)
    for c in reversed(f.coeffs):
        out = out * w + c
    return out


def _reference_seriesmap_deriv(f, z):
    w = np.asarray(z, dtype=complex) - f.center
    out = np.zeros(w.shape, dtype=complex)
    for i in range(len(f.coeffs) - 1, 0, -1):
        out = out * w + i * f.coeffs[i]
    return out


_float_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4, 4))
_complex_coeffs = st.lists(st.builds(complex, _float_parts, _float_parts), max_size=6)


class TestFloatHornerOracle:
    """Map evaluation through the kernel is bit-identical to the old loops,
    signed zeros included; both overflow routes rest on it."""

    @settings(max_examples=200, deadline=None)
    @given(_complex_coeffs, st.integers(min_value=0, max_value=2**32 - 1))
    def test_bits(self, coeffs, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        z[0, :3] = [0.0, -0.0 + 1j, complex(-1.0, -0.0)]
        f = PolyMap(coeffs)
        g = SeriesMap(coeffs + [0j], center=0.25 - 0.5j, radius=10.0)
        pairs = [
            (f(z), _reference_polymap_call(f, z)),
            (f.deriv(z), _reference_polymap_deriv(f, z)),
            (g(z), _reference_seriesmap_call(g, z)),
            (g.deriv(z), _reference_seriesmap_deriv(g, z)),
        ]
        if coeffs:
            pairs.append((f(z[1, 2]), _reference_polymap_call(f, z[1, 2])))
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPreimages:
    def test_simple_pair(self):
        out = preimages(PolyMap([-0.25, 0, 1]), 0.0, DISK)
        pts = sorted(round(p.real, 9) for p, _, _ in out)
        assert pts == [-0.5, 0.5]
        assert all(m == 1 and inside for _, m, inside in out)

    def test_double_root(self):
        out = preimages(Z2, 0.0, DISK)
        assert len(out) == 1
        assert out[0][1] == 2

    def test_outside_flag(self):
        out = preimages(Z2, 4.0, DISK)
        assert all(not inside for _, _, inside in out)

    def test_constant(self):
        with pytest.raises(ConstantMap):
            preimages(PolyMap([2.0]), 1.0, DISK)


class TestPushforward:
    def test_disk_z2(self, disk_sol):
        want = 2 * math.log(3)  # g(0.5) + g(-0.5) with g = log(rho/|z|)
        assert abs(pushforward_green(disk_sol, Z2, 0.25) - want) < 1e-9

    def test_outside_zero(self, disk_sol):
        assert pushforward_green(disk_sol, Z2, 4.0) == 0.0

    def test_max_formula(self, disk_sol):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(w) < 1e-3:
                continue
            want = max(0.0, math.log(RHO ** 2 / abs(w)))
            assert abs(pushforward_green(disk_sol, Z2, w) - want) < 1e-6


PERT = perturbed_circle_domain(1.0, 0.05, 3)
_part = st.floats(min_value=-2, max_value=2, allow_subnormal=False)
_coeff = st.one_of(st.sampled_from([0j, 1 + 0j, -0.5 + 0j, 0.25j]), st.builds(complex, _part, _part))
_lead = st.builds(complex, st.floats(min_value=0.1, max_value=2), _part)


def _assert_kernel_matches_reference(f, ys, domain):
    """One batched kernel call over every y agrees with the np.roots
    reference run on each y alone, and so does the scalar wrapper."""
    points, mults = preimage_clusters(f, ys)
    for j, y in enumerate(ys):
        want = _reference_preimages(f, y, domain)
        assert preimages(f, y, domain) == want
        keep = mults[j] > 0
        assert list(zip(points[j][keep], mults[j][keep])) == [(z, m) for z, m, _ in want]
        assert np.all(np.isnan(points[j][~keep]))


class TestPreimageKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_coeff, min_size=1, max_size=4),
        _lead,
        st.lists(st.builds(complex, _part, _part), max_size=4),
        st.lists(st.integers(min_value=0, max_value=2047), max_size=3),
    )
    def test_matches_np_roots(self, low, lead, ys, nodes):
        f = PolyMap(low + [lead])
        boundary = PERT.curves[0](2 * np.pi * np.array(nodes, dtype=float) / 2048)
        # f(0) zeroes the constant term; f(boundary) puts a preimage on the
        # curve, where winding needs its retry shifts
        ys = ys + [complex(f(np.array([0j]))[0])] + [complex(v) for v in f(boundary)]
        _assert_kernel_matches_reference(f, ys, PERT)

    @pytest.mark.parametrize(
        "coeffs, ys",
        [
            ([0, 0, 1], [0.0, 0.25, 1e-30]),  # z^2: the double root at 0
            ([0, 0, 0, 1], [0.0, 0.5j]),  # z^3: a triple root at 0
            ([0, -0.5, 1], [0.0, -0.0625]),  # z(z - 1/2): one root at 0; a double root
            ([0.09, -0.6, 1], [0.0, 0.3]),  # (z - 0.3)^2: a double root off 0
            ([0, 0.3, -0.2, 1], [0.0, 1.0, -0.4 + 0.2j]),
            ([2.0, 1.0], [2.0, 0.0]),  # degree 1
        ],
    )
    def test_fixed_cases(self, coeffs, ys):
        _assert_kernel_matches_reference(PolyMap(coeffs), [complex(y) for y in ys], PERT)

    def test_roots_at_zero_stay_exact(self):
        points, mults = preimage_clusters(PolyMap([0, 0, 1]), [0.0])
        assert points[0][0] == 0 and mults[0].tolist() == [2, 0]
        points, mults = preimage_clusters(PolyMap([0, -0.5, 1]), [0.0])
        assert 0j in points[0].tolist() and mults[0].tolist() == [1, 1]

    def test_constant_and_non_polynomial(self):
        with pytest.raises(ConstantMap):
            preimage_clusters(PolyMap([2.0]), [1.0, 2.0])
        with pytest.raises(TypeError):
            preimage_clusters(SeriesMap([0, 1]), [0.5])


BENCH_DOMAINS = {
    "disk1.5": lambda: circle_domain(1.5),
    "disk0.8": lambda: circle_domain(0.8),
    "pert5pct": lambda: perturbed_circle_domain(1.0, 0.05, 3),
    "conformal": lambda: conformal_image_domain([0, 1.3, 0.2]),
}
BENCH_CASES = [
    ("disk1.5", [0, 0, 1]),
    ("disk0.8", [0, -0.5, 1]),
    ("pert5pct", [0, -0.5, 1]),
    ("pert5pct", [0, 0.3, -0.2, 1]),
    ("conformal", [0, 0, 1]),
    ("conformal", [0, 0.3, -0.2, 1]),
]


@pytest.fixture(scope="module")
def bench_sols():
    return {name: solve_green(make(), 256) for name, make in BENCH_DOMAINS.items()}


class TestDefRouteOracle:
    """The batched def route gives the per-node route's values bit for bit."""

    @pytest.mark.parametrize("dname, coeffs", BENCH_CASES)
    def test_bench_cases(self, bench_sols, dname, coeffs):
        sol, f = bench_sols[dname], PolyMap(coeffs)
        assert overflow(sol, f, "def", n_quad=256) == _reference_def_route(sol, f, 256)

    def test_criterion_06_inputs(self, pert_sol):
        for rho in (0.8, 1.5):
            sol = solve_green(circle_domain(rho), 256)
            for f in (Z, Z2):
                assert overflow(sol, f, "def") == _reference_def_route(sol, f)
        assert overflow(pert_sol, ZQ, "def") == _reference_def_route(pert_sol, ZQ)

    def test_pushforward_per_point(self, pert_sol):
        rng = np.random.default_rng(2)
        ws = rng.uniform(-1.5, 1.5, 400) + 1j * rng.uniform(-1.5, 1.5, 400)
        many = pushforward_green(pert_sol, ZQ, ws.reshape(20, 20))
        assert many.shape == (20, 20)
        want = [_reference_pushforward(pert_sol, ZQ, w) for w in ws]
        assert many.ravel().tolist() == want
        assert [pushforward_green(pert_sol, ZQ, w) for w in ws[:20]] == want[:20]
        assert isinstance(pushforward_green(pert_sol, ZQ, 0.1), float)


class TestEnergyOracle:
    """The column-blocked remainder and the vectorized lattice sum give the
    one-piece route's values bit for bit: w @ S_blk sums each column of
    w @ S in the full product's order, and the lattice terms are added up
    left to right in the old loop's row-major order."""

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("dname, coeffs", BENCH_CASES)
    def test_bench_cases(self, bench_sols, dname, coeffs, n):
        sol, f = bench_sols[dname], PolyMap(coeffs)
        assert _energy_with_retries(sol, f, n) == _reference_energy_with_retries(sol, f, n)

    def test_criterion_06_inputs(self, pert_sol):
        for rho in (0.8, 1.5):
            sol = solve_green(circle_domain(rho), 256)
            for f in (Z, Z2):
                assert _energy_with_retries(sol, f, 2048) == _reference_energy_with_retries(sol, f, 2048)
        assert _energy_with_retries(pert_sol, ZQ, 2048) == _reference_energy_with_retries(pert_sol, ZQ, 2048)

    def test_retry_path(self):
        # f(e^{2 pi i/3}) = f(e^{4 pi i/3}) = -1 with both parameters on the
        # 768-node lattice, off the diagonal: offset 0 must give up
        sol, f = solve_green(circle_domain(1.0), 256), PolyMap([0, 1, 1])
        with pytest.raises(BoundaryZero):
            _energy_double_integral(sol, f, 768)
        with pytest.raises(BoundaryZero):
            _reference_energy(sol, f, 768)
        got = _energy_with_retries(sol, f, 768)
        assert got == _reference_energy_with_retries(sol, f, 768)
        assert got.corrections > 0

    def test_memory_stays_flat(self, pert_sol):
        # the one-piece n x n remainder peaked at 328 MiB here
        cubic = PolyMap([0, 0.3, -0.2, 1])
        tracemalloc.start()
        try:
            boundary_energy(pert_sol, cubic, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


def _poly_compose(f, psi):
    """Coefficients of f o psi, low degree first, by Horner's rule."""
    out = np.zeros(1, dtype=complex)
    for c in reversed(f):
        out = np.polynomial.polynomial.polymul(out, psi)
        out[0] += c
    return out


def _other_roots(P, w1):
    """Roots of (P(w) - P(w1)) / (w - w1), the quotient by synthetic division."""
    b = np.zeros(len(P) - 1, dtype=complex)
    acc = 0j
    for j in range(len(P) - 1, 0, -1):
        acc = acc * w1 + P[j]
        b[j - 1] = acc
    return np.roots(b[::-1])


def _jensen_overflow(psi, f, grid=1024, panel=0.25, order=32):
    """Ex(f) on V = psi(closed unit disk), O = psi(0), from the exact measure.

    The equilibrium measure is uniform in e^{is}, so with P = f o psi the
    boundary energy is the Mahler measure m(P(x) - P(y)) (Boyd 1981) and the
    log jet norm is log|P_e|, P_e the lowest nonzero coefficient.  Jensen's
    formula gives the inner integral at w1 = e^{is}: log|p_d| plus the sum of
    log+|rho| over the roots rho != w1 of P(w) - P(w1), since m(x - y) = 0.
    The outer integrand has kinks where a root crosses |w| = 1: each is
    bracketed on a grid by the count of roots outside, then bisected, and the
    arcs between kinks get Gauss-Legendre panels.  A root that stays on
    |w| = 1 (z^2 on a centered disk) is outside this helper's reach.
    """
    P = _poly_compose(f, psi)
    P = P[: int(np.flatnonzero(P)[-1]) + 1]

    def outside(s):
        return np.abs(_other_roots(P, np.exp(1j * s))) > 1.0

    def inner(s):
        r = np.abs(_other_roots(P, np.exp(1j * s)))
        return math.log(abs(P[-1])) + float(np.sum(np.log(np.maximum(r, 1.0))))

    grid_s = np.linspace(0.0, 2 * np.pi, grid + 1)
    counts = [int(outside(s).sum()) for s in grid_s]
    kinks = []
    for a, b, ca, cb in zip(grid_s[:-1], grid_s[1:], counts[:-1], counts[1:]):
        if ca != cb:
            for _ in range(60):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if outside(mid).sum() == ca else (a, mid)
            kinks.append(0.5 * (a + b))
    edges = [0.0] + kinks + [2 * np.pi]
    x, wx = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / panel)) + 1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            vals = [inner(0.5 * (b - a) * xi + 0.5 * (b + a)) for xi in x]
            total += 0.5 * (b - a) * float(wx @ vals)
    return total / (2 * np.pi) - math.log(abs(P[np.flatnonzero(P)[0]]))


# (bench domain, psi, map, exact overflow)
JENSEN_CASES = [
    # P = 2.25 w^2: m(2.25 (x - y)(x + y)) = log 2.25 = log|P_2|, so Ex = 0
    ("disk1.5", [0, 1.5], [0, 0, 1], 0.0),
    ("disk0.8", [0, 0.8], [0, -0.5, 1], 0.670056352326593),
    ("conformal", [0, 1.3, 0.2], [0, 0, 1], 0.096596648444073),
    ("conformal", [0, 1.3, 0.2], [0, 0.3, -0.2, 1], 1.858643100986197),
]


class TestJensenOracle:
    """Both overflow routes against the exact-measure value; these add to
    criterion 6 and the bench's 1e-4 route check."""

    @pytest.mark.parametrize("dname, psi, coeffs, want", JENSEN_CASES[1:])
    def test_oracle_values(self, dname, psi, coeffs, want):
        assert abs(_jensen_overflow(psi, coeffs) - want) < 1e-12

    @pytest.mark.parametrize("dname, psi, coeffs, want", JENSEN_CASES)
    def test_routes(self, bench_sols, dname, psi, coeffs, want):
        sol, f = bench_sols[dname], PolyMap(coeffs)
        assert abs(overflow(sol, f, "def", n_quad=2048) - want) <= 5e-6
        assert abs(overflow(sol, f, "energy", n_quad=2048) - want) <= 1e-6


class TestBoundaryIntegral:
    def test_identity_map(self, disk_sol):
        assert abs(log_abs_boundary_integral(disk_sol, Z) - math.log(RHO)) < 1e-10

    def test_jensen_mean_value(self, disk_sol):
        # log|z - a| integrates to log rho for |a| < rho
        for a in (0.3, -0.8j, 0.5 + 0.5j):
            f = PolyMap([-a, 1])
            assert abs(log_abs_boundary_integral(disk_sol, f) - math.log(RHO)) < 1e-9

    def test_boundary_zero_guard(self, disk_sol):
        f = PolyMap([-RHO, 1])  # vanishes at z = rho, a boundary node
        with pytest.raises(BoundaryZero):
            log_abs_boundary_integral(disk_sol, f, nodes=256)

    def test_series_map_evaluation_route(self, disk_sol):
        # truncated-series maps are allowed wherever evaluation suffices
        f = SeriesMap([0, 1], center=0, radius=2.0)
        assert abs(log_abs_boundary_integral(disk_sol, f) - math.log(RHO)) < 1e-10
        assert symmetry_check(f, DISK) < 1e-12


class TestOverflow:
    @pytest.mark.parametrize("f", [Z, Z2], ids=["z", "z^2"])
    @pytest.mark.parametrize("rho", [0.8, 1.5])
    def test_monomials_vanish_both_routes(self, f, rho):
        sol = solve_green(circle_domain(rho), 256)
        assert abs(overflow(sol, f, "def")) < 1e-5
        assert abs(overflow(sol, f, "energy")) < 1e-5

    def test_cross_route_perturbed(self, pert_sol):
        d = overflow(pert_sol, ZQ, "def")
        e = overflow(pert_sol, ZQ, "energy")
        assert abs(d - e) < 1e-4

    def test_energy_z2_exact_shift_split(self, disk_sol):
        # boundary energy of z^2 on the centered disk is exactly 2 log rho
        assert abs(boundary_energy(disk_sol, Z2) - 2 * math.log(RHO)) < 1e-10

    def test_constant_rejected(self, disk_sol):
        with pytest.raises(ConstantMap):
            overflow(disk_sol, PolyMap([1.0]), "def")


def _reference_identity_residual(sol, f, which, x=None, n_quad=1024, zero_threshold=1e-9, jet_order=12):
    """identity_residual with its inline measure rule, before the rule moved
    into equilibrium_measure."""
    O = sol.domain.center
    fO = complex(f(np.array([O]))[0])
    scale = 1.0 + float(np.max(np.abs(f(sol.nodes_z))))
    if abs(fO) > 1e-8 * scale:
        raise CenterNotZero(f"f(O) = {fO:.3g} is not zero")

    t = np.linspace(0.0, 2 * np.pi, n_quad, endpoint=False)
    curve = sol.domain.curves[0]
    if len(sol.domain.curves) != 1:
        raise ValueError("identity checks implemented for single-curve domains")
    z = curve(t)
    w = sol.measure_density_t(0, t) * (2 * np.pi / n_quad)
    w = w / w.sum()
    fz = f(z)
    if np.min(np.abs(fz)) < zero_threshold:
        raise BoundaryZero("f vanishes at a boundary node")
    log_abs = float(w @ np.log(np.abs(fz)))

    def divisor_plus_jet():
        jet = taylor_jet(f, sol.domain, order=max(jet_order, getattr(f, "degree", 2) + 2))
        return _center_divisor_sum(sol, f) + jet_cap_norm(jet, sol)

    if which == "prop35":
        return abs(log_abs - divisor_plus_jet())

    fx = complex(f(np.array([complex(x)]))[0])
    if abs(fx) < zero_threshold:
        raise BoundaryZero(f"f(x) = {fx:.3g} too close to zero")
    lhs_push = pushforward_green(sol, f, fx)
    kernel = float(w @ np.log(np.abs(1.0 / fx - 1.0 / fz)))

    if which == "prop34":
        return abs(lhs_push - (kernel + log_abs))
    return abs((lhs_push - divisor_plus_jet()) - kernel)


class TestIdentityOracle:
    @pytest.mark.parametrize("which", ["prop34", "prop35", "cor36"])
    def test_bits(self, disk_sol, pert_sol, which):
        for sol in (disk_sol, pert_sol):
            for k in range(5):
                x = complex(0.4 * np.exp(2j * np.pi * k / 5))
                got = identity_residual(sol, ZQ, which, x=x, n_quad=512)
                assert got == _reference_identity_residual(sol, ZQ, which, x=x, n_quad=512)


class TestIdentities:
    def test_prop35_value(self, disk_sol):
        # both sides equal 2 ln 1.5
        lhs = log_abs_boundary_integral(disk_sol, ZQ)
        assert abs(lhs - 2 * math.log(RHO)) < 1e-9
        assert identity_residual(disk_sol, ZQ, "prop35") < 1e-6

    def test_prop34_lhs_structure(self, disk_sol):
        # roots of f(z) = f(1.0) are 1.0 and -0.5
        lhs = pushforward_green(disk_sol, ZQ, complex(ZQ(np.array([1.0]))[0]))
        want = disk_sol.green(1.0) + disk_sol.green(-0.5)
        assert abs(lhs - want) < 1e-9

    @pytest.mark.parametrize("which", ["prop34", "cor36"])
    def test_pointwise_residuals(self, disk_sol, which):
        # radius 0.6 stays clear of the roots of f at 0 and 0.5
        for k in range(20):
            x = 0.6 * np.exp(2j * np.pi * k / 20)
            assert identity_residual(disk_sol, ZQ, which, x=complex(x)) < 1e-5

    def test_center_not_zero(self, disk_sol):
        with pytest.raises(CenterNotZero):
            identity_residual(disk_sol, PolyMap([1.0, 1.0]), "prop35")

    def test_residuals_perturbed_domain(self, pert_sol):
        assert identity_residual(pert_sol, ZQ, "prop35") < 1e-5
        for k in range(10):
            x = 0.4 * np.exp(2j * np.pi * k / 10)
            assert identity_residual(pert_sol, ZQ, "cor36", x=complex(x)) < 1e-5


def _reference_classical_check(hole_radius, samples=20, resolution=256):
    """classical_inverse_check before equilibrium_measure returned arrays:
    the list of (point, weight) pairs turned back into arrays."""
    sol = solve_green(circle_domain(1.0 / hole_radius), resolution)
    t = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    pts = sol.domain.curves[0](t)
    ws = sol.measure_density_t(0, t) * (2 * np.pi / resolution)
    pairs = list(zip(pts.tolist(), (ws / ws.sum()).tolist()))
    nodes = np.array([p for p, _ in pairs], dtype=complex)
    weights = np.array([w for _, w in pairs])
    support = 1.0 / nodes

    rng = np.random.default_rng(11)
    radii = hole_radius * (1.0 + np.concatenate([[0.3, 1.0, 4.0, 99.0], rng.uniform(0.2, 8.0, max(samples - 4, 0))]))
    angles = rng.uniform(0.0, 2 * np.pi, len(radii))
    zs = radii[:samples] * np.exp(1j * angles[:samples])
    worst = 0.0
    for zz in zs:
        G = sol.green(1.0 / zz)
        potential = float(weights @ np.log(np.abs(zz - support)))
        worst = max(worst, abs(G + (-sol.robin_c) - potential))
    return ClassicalCheck(max_residual=worst, log_capacity=-sol.robin_c, robin_constant=sol.robin_c)


class TestClassical:
    @pytest.mark.parametrize("rho, samples", [(0.6, 20), (1.0, 3), (1.7, 7)])
    def test_bits(self, rho, samples):
        assert classical_inverse_check(rho, samples, 128) == _reference_classical_check(rho, samples, 128)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError):
            classical_inverse_check(1.0, samples)

    def test_unit_disk_exact(self):
        res = classical_inverse_check(1.0, samples=20)
        assert res.max_residual < 1e-6
        assert abs(res.log_capacity) < 1e-9

    @pytest.mark.parametrize("rho", [0.6, 1.7])
    def test_capacity_is_radius(self, rho):
        res = classical_inverse_check(rho, samples=20)
        assert abs(res.log_capacity - math.log(rho)) < 1e-5
        assert res.max_residual < 1e-6

    def test_far_field_bounded(self):
        sol = solve_green(circle_domain(1.0 / 1.3), 128)
        for z in (1e3, 1e6 * 1j):
            G = sol.green(1.0 / z)
            pot = math.log(abs(z))  # potential of a compact set at huge |z|
            assert abs(G - sol.robin_c - pot) < 0.01


class TestSymmetry:
    def test_real_coefficients_pass(self):
        assert symmetry_check(PolyMap([0, 1, 0, 1]), DISK) < 1e-12

    def test_iz2_deviation(self):
        dev = symmetry_check(PolyMap([0, 0, 1j]), DISK, samples=256)
        assert abs(dev - 2 * RHO ** 2) < 1e-8

    def test_tilted_ellipse_rejected(self):
        rot = np.exp(0.3j)
        tilted = DomainSpec([TrigCurve({1: 0.95 * rot, -1: 0.25 * rot})], 0)
        with pytest.raises(AsymmetricDomain):
            symmetry_check(PolyMap([0, 1]), tilted)

    def test_imaginary_center_rejected(self):
        dom = circle_domain(1.0, O=0.3j)
        with pytest.raises(AsymmetricDomain):
            symmetry_check(PolyMap([0, 1]), dom)


class TestArakelov:
    @pytest.mark.parametrize("rho,pc", [(0.8, True), (1.25, False)])
    def test_degree_and_flag(self, rho, pc):
        sol = solve_green(circle_domain(rho), 256)
        jet = taylor_jet(PolyMap([0, 1]), circle_domain(rho), 4)
        res = arakelov_degree(sol, jet)
        assert abs(res.degree - math.log(rho)) < 1e-9
        assert res.pseudoconvex is pc

    def test_wrong_order(self, disk_sol):
        jet = taylor_jet(Z2, DISK, 4)
        with pytest.raises(WrongVanishingOrder):
            arakelov_degree(disk_sol, jet)

    def test_degree_consistency(self):
        sol = solve_green(circle_domain(0.8), 256)
        for e in (1, 2, 3):
            assert degree_consistency_residual(sol, e) < 1e-5
