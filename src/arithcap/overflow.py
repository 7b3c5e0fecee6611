"""Pushforward Green's functions, boundary log-integrals, the overflow
invariant by its two routes, identity residuals, and capacitary degree checks.

The overflow of f at (V, O) is

    Ex(f) = integral_V g d(f^*(f(O)) - eO) + integral f_*g d(f_*mu)

and equals the boundary energy integral of f minus the log capacitary jet
norm.  The def route evaluates the first formula from preimages and measure
quadrature, in one batched pass per call: the preimages of f at every
boundary node come from one stacked companion eigenproblem
(analytic.preimage_clusters), all of them go through one containment pass
(TrigCurve.winding, in blocks of 32 points), and g is evaluated once, on the
inside ones.  The values equal those of a node-by-node evaluation bit for
bit.  The energy route evaluates the second formula, with the log-singular
double integral handled by kernel splits; the smooth remainder is built in
blocks of 128 columns (_ENERGY_BLOCK), so no n x n array exists, and the
same pass collects the candidate coincidence pairs.  Its values equal those
of the one-piece n x n evaluation bit for bit.  The splits are:

  * the diagonal t1 = t2 via log|2 sin((t1-t2)/2)|, whose Fourier expansion
    -sum e^{ik(t1-t2)} / (2|k|) integrates against the measure exactly in
    terms of its Fourier coefficients;
  * exact "deck shifts" delta with f(gamma(t+delta)) = f(gamma(t)) (e.g. the
    antipodal map for z^2 on a centered disk) via shifted sine kernels, using
    prod_j 2 sin((theta - delta_j)/2) patterns;
  * any remaining isolated coincidence pairs f(gamma(a)) = f(gamma(b)) via a
    smooth bump cutoff whose local integral is done in polar coordinates,
    replacing the trapezoid contribution near the singular point; that
    contribution, the lattice sum of the bumped integrand, is one vectorized
    evaluation per zero, added up in the lattice's row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    AnalyticMap,
    JetData,
    PolyMap,
    jet_cap_norm,
    preimage_clusters,
    preimages,
    taylor_jet,
)
from .curves import DomainSpec, TrigCurve
from .errors import (
    AsymmetricDomain,
    BoundaryZero,
    CenterNotZero,
    ConstantMap,
    WrongVanishingOrder,
)
from .greens import GreenSolution, solve_green

# Columns per block of the energy route's smooth remainder: 2048 nodes x 128
# columns is a 4 MiB complex difference, so no n x n array is ever built.
_ENERGY_BLOCK = 128


def pushforward_green(sol: GreenSolution, f: AnalyticMap, w):
    """f_* g (w) = sum of g over the multiplicity-weighted preimages of w;
    preimages outside V contribute zero (g extends by zero).

    A scalar w gives a float and an array gives an array of its shape.  All
    points share one root solve (preimage_clusters), one containment pass and
    one Green evaluation; each sum adds its groups in preimages order.
    """
    ws = np.asarray(w, dtype=complex)
    points, mults = preimage_clusters(f, ws.ravel())
    use = (mults > 0) & (points != sol.domain.center)
    g = np.zeros(points.shape, dtype=float)
    g[use] = sol.green(points[use])
    total = np.zeros(len(points), dtype=float)
    for k in range(points.shape[1]):
        total += mults[:, k] * g[:, k]
    return float(total[0]) if ws.ndim == 0 else total.reshape(ws.shape)


def _measure_nodes(sol: GreenSolution, nodes: int):
    """Quadrature nodes and normalized weights at the requested resolution."""
    t = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    zs, ws = [], []
    for i, curve in enumerate(sol.domain.curves):
        zs.append(curve(t))
        ws.append(sol.measure_density_t(i, t) * (2 * np.pi / nodes))
    z = np.concatenate(zs)
    w = np.concatenate(ws)
    return t, z, w / w.sum()


def log_abs_boundary_integral(
    sol: GreenSolution, f: AnalyticMap, nodes: int = 1024, zero_threshold: float = 1e-9
) -> float:
    """integral log|f| dmu by boundary quadrature; BoundaryZero if |f| dips
    below zero_threshold at a node (the nonvanishing guard)."""
    _, z, w = _measure_nodes(sol, nodes)
    vals = np.abs(f(z))
    if np.min(vals) < zero_threshold:
        raise BoundaryZero(
            f"|f| = {np.min(vals):.3g} at a boundary node (threshold {zero_threshold:g})"
        )
    return float(w @ np.log(vals))


# --- energy-route quadrature ---------------------------------------------------------


def _deck_shifts(F: np.ndarray, tol: float) -> list[int]:
    """Lattice shifts m with F(t + 2 pi m / n) = F(t) for all t, excluding 0."""
    n = len(F)
    scale = float(np.max(np.abs(F - F.mean()))) + 1e-300
    out = []
    for m in range(1, n):
        if abs(F[m] - F[0]) < 0.1 * scale:
            if float(np.max(np.abs(np.roll(F, -m) - F))) < tol * scale:
                out.append(m)
    return out


def _bump(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri * ri))
    return out


@dataclass
class _EnergyPieces:
    value: float
    shifts: list[float]
    corrections: int


def _energy_double_integral(
    sol: GreenSolution,
    f: AnalyticMap,
    n: int,
    grid_offset: float = 0.0,
) -> _EnergyPieces:
    """integral integral log|f(z1) - f(z2)| dmu(z1) dmu(z2) on a single-curve domain."""
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

    # limits on the handled diagonals: log|dF/dt| minus the non-matching kernels
    logdF = np.log(np.abs(dF))
    diag_val = logdF.copy()
    for delta in deltas:
        diag_val -= math.log(abs(2.0 * math.sin(delta / 2.0)))
    shift_vals = []
    for delta in deltas:
        vals = logdF - math.log(abs(2.0 * math.sin(delta / 2.0)))
        for d2 in deltas:
            if d2 != delta:
                vals = vals - math.log(abs(2.0 * math.sin((delta - d2) / 2.0)))
        shift_vals.append(vals)

    # smooth remainder S(t_i, t_j), built _ENERGY_BLOCK columns at a time;
    # w @ S_blk is that block of w @ S, summed as the full product sums it
    band = 4  # candidate zeros stay this many lattice steps off a handled diagonal
    cand_tol = 3 * h * float(np.max(np.abs(dF)))
    di = np.arange(n)
    wS = np.empty(n)
    scale = 0.0  # max |F1 - F2| over the grid
    closest = np.inf  # min |F1 - F2| off the handled diagonals
    cand_i, cand_j, cand_d = [], [], []
    for lo in range(0, n, _ENERGY_BLOCK):
        cols = di[lo : lo + _ENERGY_BLOCK]
        absdiff = np.abs(F[:, None] - F[None, cols])
        theta = t[:, None] - t[None, cols]
        idx = (di[:, None] - cols[None, :]) % n
        handled = np.isin(idx, [0] + shifts_idx)
        scale = max(scale, float(np.max(absdiff)))
        closest = min(closest, float(np.min(np.where(handled, np.inf, absdiff))))

        with np.errstate(divide="ignore", invalid="ignore"):
            S = np.log(np.where(handled, 1.0, absdiff))
            S -= np.where(handled, 0.0, np.log(np.abs(2.0 * np.sin(theta / 2.0))))
            for delta in deltas:
                S -= np.where(
                    handled, 0.0, np.log(np.abs(2.0 * np.sin((theta - delta) / 2.0)))
                )
        S[cols, cols - lo] = diag_val[cols]
        for m, vals in zip(shifts_idx, shift_vals):
            rows = (cols + m) % n  # S[i, (i - m) % n] lies in this block's columns
            S[rows, cols - lo] = vals[rows]
        wS[cols] = w @ S

        # ban a band around the handled diagonals, where |F1 - F2| is legitimately small
        banned = np.zeros(idx.shape, dtype=bool)
        for m in [0] + list(shifts_idx):
            banned |= np.minimum((idx - m) % n, (m - idx) % n) <= band
        ii, jj = np.nonzero((absdiff < cand_tol) & ~banned)
        cand_i.append(ii)
        cand_j.append(jj + lo)
        cand_d.append(absdiff[ii, jj])

    if closest < 1e-13 * (1.0 + scale):
        raise BoundaryZero(
            "f(z1) = f(z2) exactly at a node pair outside the kernel split's validity"
        )
    smooth = float(wS @ w)

    ii, jj, dd = (np.concatenate(c) for c in (cand_i, cand_j, cand_d))
    row_major = np.argsort(ii * n + jj)
    cands = np.stack([ii, jj], axis=1)[row_major]
    correction, ncorr = _isolated_corrections(
        sol, f, curve, t, w, cands, dd[row_major], scale, shifts_idx, deltas, n
    )

    return _EnergyPieces(
        value=float(singular + smooth + correction), shifts=deltas, corrections=ncorr
    )


def _energy_with_retries(sol: GreenSolution, f: AnalyticMap, n: int) -> _EnergyPieces:
    """An isolated coincidence pair can land exactly on the quadrature lattice;
    shifting the (equally valid) trapezoid grid moves it off.  Only a
    coincidence that survives every offset is reported as BoundaryZero."""
    last = None
    for offset in (0.0, 0.5, math.e / 7):
        try:
            return _energy_double_integral(sol, f, n, grid_offset=offset)
        except BoundaryZero as exc:
            last = exc
    raise last


def _kernel_free_integrand(f, curve, deltas):
    """S(t1, t2) = log|F(t1)-F(t2)| - base kernel - shift kernels, vectorized."""

    def S(t1, t2):
        F1 = f(curve(t1))
        F2 = f(curve(t2))
        th = t1 - t2
        out = np.log(np.abs(F1 - F2)) - np.log(np.abs(2.0 * np.sin(th / 2.0)))
        for d in deltas:
            out = out - np.log(np.abs(2.0 * np.sin((th - d) / 2.0)))
        return out

    return S


def _isolated_corrections(sol, f, curve, t, w, cands, cand_absdiff, scale, shifts_idx, deltas, n):
    """Find isolated off-diagonal zeros of F(t1) - F(t2) and replace the
    trapezoid contribution of a smooth bump around each by an accurate polar
    integral of the same bumped integrand.

    cands holds the lattice pairs (i, j) with a small |F(t_i) - F(t_j)| off the
    banned diagonal bands, in row-major order, and cand_absdiff those values;
    scale is the largest |F1 - F2| on the grid.
    """
    h = 2 * np.pi / n
    # polish each candidate cluster by Newton on F(t1) - F(t2) = 0
    if len(cands) > 64:
        cands = cands[np.argsort(cand_absdiff)[:64]]
    zeros: list[tuple[float, float]] = []
    for i, j in cands:
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
        # lattice sum of the same bumped integrand; cumsum adds the terms left
        # to right, in row-major (i, j) order
        i0 = int(np.floor(a / h))
        j0 = int(np.floor(b / h))
        rad = int(np.ceil(rho0 / h)) + 2
        ii, jj = np.meshgrid(
            np.arange(i0 - rad, i0 + rad + 2), np.arange(j0 - rad, j0 + rad + 2), indexing="ij"
        )
        ii, jj = ii.ravel() % n, jj.ravel() % n
        r2 = _torus_dist2(t[ii], t[jj], a, b)
        keep = (r2 < rho0 * rho0) & (ii != jj) & ~np.isin((ii - jj) % n, shifts_idx)
        ii, jj = ii[keep], jj[keep]
        vals = _bump(np.sqrt(r2[keep]) / rho0) * S(t[ii], t[jj]) * w[ii] * w[jj]
        lattice = float(np.cumsum(vals)[-1])
        total += integral - lattice
    return total, len(zeros)


def _torus_dist2(a1, b1, a2, b2):
    da = (a1 - a2 + np.pi) % (2 * np.pi) - np.pi
    db = (b1 - b2 + np.pi) % (2 * np.pi) - np.pi
    return da * da + db * db


def _min_exclusion_dist(a, b, zeros, deltas):
    """Distance from (a, b) to the handled diagonal lines and other zeros."""
    th = (a - b) % (2 * np.pi)
    dists = [min(th, 2 * np.pi - th) / math.sqrt(2)]
    for d in deltas:
        dd = abs((th - d + np.pi) % (2 * np.pi) - np.pi)
        dists.append(dd / math.sqrt(2))
    for (za, zb) in zeros:
        d2 = _torus_dist2(a, b, za, zb)
        if d2 > 1e-20:
            dists.append(math.sqrt(d2))
    return min(dists)


def boundary_energy(sol: GreenSolution, f: AnalyticMap, n_quad: int = 1024) -> float:
    """integral integral log|f(z1) - f(z2)| dmu dmu with full singularity handling."""
    return _energy_with_retries(sol, f, n_quad).value


# --- overflow -------------------------------------------------------------------------


def _center_divisor_sum(sol: GreenSolution, f: AnalyticMap) -> float:
    """sum of g over f^*(f(O)) - eO: multiplicity-weighted preimages of f(O)
    excluding the fiber point at O itself."""
    O = sol.domain.center
    y0 = complex(f(np.array([O]))[0])
    total = 0.0
    scale = 1.0 + abs(O)
    for z, mult, inside in preimages(f, y0, sol.domain):
        if abs(z - O) < 1e-6 * scale:
            continue  # the eO term removes the whole O-cluster
        if inside:
            total += mult * sol.green(z)
    return total


def overflow(
    sol: GreenSolution,
    f: AnalyticMap,
    method: str = "def",
    n_quad: int = 2048,
    jet_order: int = 12,
) -> float:
    """The overflow Ex(f) by the requested route.

    method="def":    sum g over (f^*(f(O)) - eO)  +  integral (f_*g)(f(x)) dmu(x)
    method="energy": boundary energy of f minus the log capacitary jet norm
    """
    if not isinstance(f, PolyMap):
        raise TypeError("overflow requires a polynomial map")
    if f.degree < 1:
        raise ConstantMap("overflow needs a nonconstant map")
    if method == "def":
        term1 = _center_divisor_sum(sol, f)
        _, z, w = _measure_nodes(sol, n_quad)
        return term1 + float(w @ pushforward_green(sol, f, f(z)))
    if method == "energy":
        energy = _energy_with_retries(sol, f, n_quad).value
        jet = taylor_jet(f, sol.domain, order=max(jet_order, f.degree + 2))
        return float(energy - jet_cap_norm(jet, sol))
    raise ValueError(f"unknown method {method!r}")


# --- identity residuals ------------------------------------------------------------------


def identity_residual(
    sol: GreenSolution,
    f: AnalyticMap,
    which: str,
    x: complex | None = None,
    n_quad: int = 1024,
    zero_threshold: float = 1e-9,
    jet_order: int = 12,
) -> float:
    """|LHS - RHS| of the pushforward identities, every term recomputed from
    this module's primitives.

    prop34: (f_*g)(f(x)) = int log|1/f(x) - 1/f(x')| dmu(x') + int log|f| dmu
    prop35: int log|f| dmu = sum_{f^*(f(O)) - eO} g + log jet norm
    cor36:  (f_*g)(f(x)) - (sum_{f^*(f(O)) - eO} g + log jet norm)
            = int log|1/f(x) - 1/f(x')| dmu(x')
    """
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

    if x is None:
        raise ValueError(f"{which} needs an evaluation point x")
    fx = complex(f(np.array([complex(x)]))[0])
    if abs(fx) < zero_threshold:
        raise BoundaryZero(f"f(x) = {fx:.3g} too close to zero")
    lhs_push = pushforward_green(sol, f, fx)
    kernel = float(w @ np.log(np.abs(1.0 / fx - 1.0 / fz)))

    if which == "prop34":
        return abs(lhs_push - (kernel + log_abs))
    if which == "cor36":
        return abs((lhs_push - divisor_plus_jet()) - kernel)
    raise ValueError(f"unknown identity {which!r}")


# --- the classical 1/z example -------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalCheck:
    max_residual: float
    log_capacity: float   # log cap(K) = log rho for a radius-rho disk
    robin_constant: float  # classical Robin constant of K at infinity = -log cap


def classical_inverse_check(
    hole_radius: float, samples: int = 20, resolution: int = 256
) -> ClassicalCheck:
    """Recover G_K(z, infinity) - V_inf(K) = int log|z - w| dmu_inf(w) for the
    closed disk K of the given radius through the inversion chart w = 1/z.

    The domain V is the image of the complement of K under 1/z (a disk of
    radius 1/hole_radius centered at 0 = image of infinity); G_K(z) is read
    off as g_{V,0}(1/z), the equilibrium measure pushes forward through the
    chart, and the Robin constant of the inverted domain is the classical
    Robin constant of K.
    """
    if hole_radius <= 0:
        raise ValueError("hole radius must be positive")
    from .curves import circle_domain
    from .greens import equilibrium_measure

    sol = solve_green(circle_domain(1.0 / hole_radius), resolution)
    pairs = equilibrium_measure(sol, resolution)
    nodes = np.array([p for p, _ in pairs], dtype=complex)
    weights = np.array([w for _, w in pairs])
    support = 1.0 / nodes  # measure nodes on the boundary of K

    rng = np.random.default_rng(11)
    radii = hole_radius * (1.0 + np.concatenate([[0.3, 1.0, 4.0, 99.0], rng.uniform(0.2, 8.0, max(samples - 4, 0))]))
    angles = rng.uniform(0.0, 2 * np.pi, len(radii))
    zs = radii[:samples] * np.exp(1j * angles[:samples])

    worst = 0.0
    for zz in zs:
        G = sol.green(1.0 / zz)
        potential = float(weights @ np.log(np.abs(zz - support)))
        worst = max(worst, abs(G + (-sol.robin_c) - potential))
    return ClassicalCheck(
        max_residual=worst,
        log_capacity=-sol.robin_c,
        robin_constant=sol.robin_c,
    )


# --- real symmetry ---------------------------------------------------------------------------


def _conjugation_symmetric(curve: TrigCurve, tol: float = 1e-8) -> bool:
    """True when conj(gamma(t)) reparameterizes gamma.

    Reflection pattern conj(gamma(t)) = gamma(tau - t) needs conj(c_k) = c_k e^{ik tau};
    shift pattern conj(gamma(t)) = gamma(t + tau) needs conj(c_{-k}) = c_k e^{ik tau}.
    A candidate tau is solved from the lowest frequency and verified on the rest.
    """
    cmap = dict(zip(curve.freqs, curve.coeffs))

    def ratios(pattern):
        out = {}
        for k, c in cmap.items():
            if k == 0:
                if abs(np.conj(c) - c) > tol * (1 + abs(c)):
                    return None
                continue
            target = np.conj(c) if pattern == "reflect" else np.conj(cmap.get(-k, 0.0))
            if abs(target) < tol * (1 + abs(c)) or abs(abs(target / c) - 1.0) > tol:
                return None
            out[k] = target / c
        return out

    for pattern in ("reflect", "shift"):
        rs = ratios(pattern)
        if rs is None:
            continue
        if not rs:
            return True
        k0 = min(rs, key=abs)
        base = np.angle(rs[k0])
        for j in range(abs(k0)):
            tau = (base + 2 * np.pi * j) / k0
            if all(abs(np.exp(1j * k * tau) - r) < 10 * tol for k, r in rs.items()):
                return True
    return False


def symmetry_check(f: AnalyticMap, domain: DomainSpec, samples: int = 256) -> float:
    """max over boundary samples of |f(conj z) - conj(f(z))| (Schwarz-reflection
    compatibility); AsymmetricDomain when the domain is not conjugation
    symmetric with a real center."""
    if abs(domain.center.imag) > 1e-12 * (1 + abs(domain.center)):
        raise AsymmetricDomain("center is not real")
    for c in domain.curves:
        if not _conjugation_symmetric(c):
            raise AsymmetricDomain("a boundary curve is not conjugation symmetric")
    t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    dev = 0.0
    for c in domain.curves:
        z = c(t)
        dev = max(dev, float(np.max(np.abs(f(np.conj(z)) - np.conj(f(z))))))
    return dev


# --- Arakelov degree ----------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeResult:
    degree: float
    pseudoconvex: bool


def arakelov_degree(sol: GreenSolution, gluing_jet: JetData) -> DegreeResult:
    """log||d phi(O)|| in the capacitary metric: log|c_1| + robin_c, from the
    order-1 jet of the gluing inverse; the surface is pseudoconvex when the
    degree is negative."""
    if gluing_jet.order != 1:
        raise WrongVanishingOrder(f"gluing jet has order {gluing_jet.order}, need 1")
    degree = float(np.log(np.abs(gluing_jet.leading)) + sol.robin_c)
    return DegreeResult(degree=degree, pseudoconvex=degree < 0.0)


def degree_consistency_residual(sol: GreenSolution, e: int, c1: complex = 1.0) -> float:
    """|log jet norm of (c1 (z-O))^e  -  e * degree|: the capacitary norm of a
    monic order-e composite must equal e times the Arakelov degree."""
    O = sol.domain.center
    base = PolyMap([-c1 * O, c1])
    comp = base.shifted_power(O, e)
    jet = taylor_jet(comp, sol.domain, order=e + 4)
    degree = float(np.log(np.abs(c1)) + sol.robin_c)
    return abs(jet_cap_norm(jet, sol) - e * degree)
