"""Patching: from a monic rational polynomial with certified infimum > 1 on the
complement K of a bounded open set U, produce a monic *integer* polynomial with
the same property, together with an exact-arithmetic certificate.

Pipeline: rationalize the input, square it if linear, certify a rational lower
bound R for inf_K |f|, pick the exponent chain (r, k, N = dk, M > k), then run
the greedy fractional-part clearing on f^M.  Every inequality the construction
needs is checked in exact rational arithmetic; floating point only appears in
the optional spot check of |p| at sample points.

U is restricted to finite unions of open disks, which keeps membership tests
exact and covers every desk-scale experiment.
"""

from __future__ import annotations

import dataclasses
import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CertificateCheckFailed,
    DegreeCapExceeded,
    InsufficientMargin,
    NoMargin,
    NotFound,
    NotMonic,
    TopCoefficientsNotIntegral,
)
from .integerize import minimal_integerizing_exponent, verify_top_integrality
from .polys import IntPoly, RatPoly, int_poly_div_exact, scaled_integer_form


# --- region geometry -----------------------------------------------------------


@dataclass(frozen=True)
class Hole:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("hole radius must be positive")


@dataclass(frozen=True)
class RegionSpec:
    """U = union of open disks; K = C \\ U is its closed complement."""

    holes: tuple[Hole, ...]

    def __init__(self, holes: Sequence):
        hs = tuple(h if isinstance(h, Hole) else Hole(complex(h[0]), float(h[1])) for h in holes)
        if not hs:
            raise ValueError("need at least one hole")
        object.__setattr__(self, "holes", hs)

    @property
    def bounding_radius(self) -> Fraction:
        """Exact rational r with U inside D_r: each hole's |center| (over the
        stored binary floats) is rounded up to a multiple of 1/den(|center|^2)."""
        return max(_abs_upper(h.center) + Fraction(h.radius) for h in self.holes)

    def contains(self, z: complex) -> bool:
        """z in U (strict interior of some hole)."""
        return any(abs(z - h.center) < h.radius for h in self.holes)

    @classmethod
    def disk(cls, radius: float, center: complex = 0j) -> "RegionSpec":
        return cls([(center, radius)])


def _abs_upper(z: complex) -> Fraction:
    """Rational upper bound for |z|, exact when z is 0."""
    q = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    n = q.numerator * q.denominator
    root = math.isqrt(n)
    return Fraction(root + (root * root < n), q.denominator)


def _quarter_above(x: Fraction) -> Fraction:
    """Smallest multiple of 1/4 strictly greater than x."""
    return Fraction(math.floor(4 * x) + 1, 4)


def _lipschitz_bound(f: RatPoly, rho: Fraction) -> Fraction:
    """Exact upper bound for |f'| on the closed disk of radius rho >= 1."""
    return sum(
        (i * abs(Fraction(c)) * rho ** (i - 1) for i, c in enumerate(f.coeffs) if i >= 1),
        Fraction(0),
    )


def certified_lower_bound(
    f: RatPoly,
    region: RegionSpec,
    r: Fraction,
    grid: int = 64,
    max_refinements: int = 4,
) -> Fraction:
    """Certified rational L <= inf over K intersect closed D_r of |f|.

    Covers the disk with grid x grid square cells, keeps every cell that could
    meet K, and lower-bounds |f| on each kept cell by the exact value at its
    center minus Lipschitz slack.  A cell is discarded only when it sits
    entirely inside a single hole, so the bound is conservative at every
    resolution and converges as the grid refines.  Refines up to
    max_refinements doublings while the bound stays <= 0, then raises NoMargin.

    Each refinement runs on an exact integer grid (see _grid_minimum); it
    stops at its first kept cell whose bound is <= 0, since the minimum can
    only fall from there.
    """
    if grid < 2:
        raise ValueError("grid resolution must be at least 2")
    r = Fraction(r)
    g, cf = scaled_integer_form(f)
    holes = [(Fraction(h.center.real), Fraction(h.center.imag), Fraction(h.radius)) for h in region.holes]

    n = grid
    for _ in range(max_refinements + 1):
        h = 2 * r / n * Fraction(3, 4)  # rational bound >= half-diagonal of a cell
        slack = _lipschitz_bound(f, r + 2 * h) * h
        best = _grid_minimum(g.coeffs, cf, holes, r, n, slack)
        if best is not None:
            return best - slack
        n *= 2
    raise NoMargin(f"no positive lower bound for |f| on K within D_{float(r):g} at grid {n // 2}")


def _grid_minimum(coeffs: tuple, cf: int, holes: list, r: Fraction, n: int, slack: Fraction):
    """min of sqrt_lo(|f(c)|^2) over the kept cell centres c of the n x n
    grid on [-r, r]^2, with f = sum(coeffs[k] x^k) / cf; None when no cell is
    kept or some kept cell has sqrt_lo(|f(c)|^2) <= slack.  For a / e in
    lowest terms, sqrt_lo(a / e) = isqrt(a e) / e, a lower bound for the
    square root tight to 1 / e.

    Centres, h, the keep radius r + h and the hole data are integers over one
    common denominator D, so the keep and hole tests are integer compares.
    The centres are (X + iY) / Dc with Dc = n * den(r), and a Gaussian-integer
    Horner step gives |f(c)|^2 = A / E with E = (cf Dc^d)^2 fixed.  Cells are
    scanned row by row in natural order.
    """
    rn, rd = r.numerator, r.denominator
    dc = n * rd
    d = max(len(coeffs) - 1, 0)
    scaled = [c * dc ** (d - k) for k, c in enumerate(coeffs)][::-1]
    E = (cf * dc**d) ** 2
    cen = [rn * (2 * i + 1 - n) for i in range(n)]  # centres over Dc

    D = math.lcm(2 * dc, *(q.denominator for hole in holes for q in hole))
    m = D // dc
    H = m // 2 * 3 * rn  # h = 3r / (2n) over D
    keep2 = (m * rn * n + H) ** 2
    sq = [(m * c) ** 2 for c in cen]
    active = []
    for hx, hy, hr in holes:
        HR = hr.numerator * (D // hr.denominator)
        if HR > H:
            HX, HY = hx.numerator * (D // hx.denominator), hy.numerator * (D // hy.denominator)
            active.append((HX, HY, (HR - H) ** 2))

    sn, sd = slack.numerator, slack.denominator
    best = None  # (s, e) with best value s / e
    for x, x2 in zip(cen, sq):
        mx = m * x
        row_holes = []
        for HX, HY, rad2 in active:
            room = rad2 - (mx - HX) ** 2
            if room >= 0:
                row_holes.append((HY, room))
        for y, y2 in zip(cen, sq):
            if x2 + y2 > keep2:
                continue
            my = m * y
            if any((my - HY) ** 2 <= room for HY, room in row_holes):
                continue
            re = im = 0
            for c in scaled:
                re, im = re * x - im * y + c, re * y + im * x
            A = re * re + im * im
            gg = math.gcd(A, E)
            e = E // gg
            s = math.isqrt(A // gg * e)  # sqrt_lo(A / E) = s / e
            if s * sd <= sn * e:
                return None
            if best is None or s * best[1] < best[0] * e:
                best = (s, e)
    return None if best is None else Fraction(*best)


def _outside_disk_bound(f: RatPoly, r: Fraction) -> Fraction:
    """Exact bound |f(x)| >= r^{d-1} (r - sum|b_i|) for all |x| >= r.

    Valid (and increasing in |x|) once r exceeds the non-leading coefficient
    sum; callers arrange r > sum + 2.
    """
    s = f.abs_tail_sum()
    if r <= s:
        raise ValueError("radius below coefficient sum")
    return r ** (f.degree - 1) * (r - s) if f.degree >= 1 else Fraction(1)


# --- parameters ------------------------------------------------------------------


@dataclass(frozen=True)
class PatchParams:
    epsilon: Fraction
    r: Fraction
    R_lower: Fraction
    k: int
    N: int
    M: int
    d: int

    def inequalities_hold(self) -> bool:
        """Exact check of the two certificate inequalities plus M > k, N = dk.

        R^{k-1} > r^d d/(R-1) + 2   (inside the disk)
        R^{k-d-1} > d/(R-1) + 2     (outside, via |f(x)| > |x|)
        """
        R, r, d, k = self.R_lower, self.r, self.d, self.k
        if self.epsilon <= 0 or R <= 1 or self.N != d * k or self.M <= k:
            return False
        ok1 = R ** (k - 1) > r ** d * Fraction(d) / (R - 1) + 2
        ok2 = R ** (k - d - 1) > Fraction(d) / (R - 1) + 2
        return ok1 and ok2

    def growth_inequality_holds(self, tail_sum: Fraction) -> bool:
        """|x|^{d-1}(|x| - sum|b_i|) > |x| at |x| = r, so |f(x)| > |x| outside D_r."""
        return self.r ** (self.d - 1) * (self.r - tail_sum) > self.r


@dataclass(frozen=True)
class SpotCheck:
    num_samples: int
    min_abs_value: float
    min_log10_abs: float


@dataclass(frozen=True)
class PatchCertificate:
    p: IntPoly
    params: PatchParams
    greedy_steps: int
    spot_check: SpotCheck
    exact_cert_ok: bool
    reconstruction_ok: bool
    route: str  # "patched" | "already-integer"


@dataclass(frozen=True)
class PatchConfig:
    grid: int = 48
    max_refinements: int = 4
    max_degree: int = 8192
    search_cap: int = 65536
    denominator_limit: int = 64
    spot_samples: int = 1000
    seed: int = 0
    threads: int = 1  # no effect: the spot check runs in one process
    check_reconstruction: bool = True


def choose_parameters(f: RatPoly, region: RegionSpec, config: PatchConfig = PatchConfig()) -> PatchParams:
    """Pick (r, k, N, M) for the greedy on f^M, all inequalities exact.

    r: smallest quarter-integer with U inside D_r, r > sum|coeffs| + 2 and the
       growth inequality |f(x)| > |x| outside D_r.
    k: minimal value making both certificate inequalities true.
    M: smallest verified integerizing exponent above k (1 for integral f,
       where the greedy is a no-op and no bound on M is needed).
    """
    if not f.is_monic:
        raise NotMonic("f must be monic")
    d = f.degree
    if d < 2:
        raise ValueError("choose_parameters needs deg f >= 2 (square first)")
    tail = f.abs_tail_sum()
    r = _quarter_above(max(region.bounding_radius, tail + 2))
    grid_bound = certified_lower_bound(f, region, r, config.grid, config.max_refinements)
    R = min(grid_bound, _outside_disk_bound(f, r))
    if R <= 1:
        raise InsufficientMargin(f"certified lower bound {float(R):.6g} <= 1")
    eps = min(R - 1, Fraction(1))

    rhs1 = r ** d * Fraction(d) / (R - 1) + 2
    rhs2 = Fraction(d) / (R - 1) + 2
    k = 1
    while not (R ** (k - 1) > rhs1 and R ** (k - d - 1) > rhs2):
        k += 1
        if k > 10_000:
            raise InsufficientMargin("certificate inequalities unreachable; R too close to 1")
    N = d * k

    if f.is_integral:
        M = 1
    else:
        # any M above max_degree // d is rejected below, so the search stops there
        cap = max(1, min(config.search_cap, config.max_degree // d))
        try:
            M = minimal_integerizing_exponent(f, N, cap=cap, min_exponent=k + 1).M
        except NotFound as exc:
            raise DegreeCapExceeded(str(exc)) from exc
    if M * d > config.max_degree:
        raise DegreeCapExceeded(f"patched degree M*d = {M * d} exceeds cap {config.max_degree}")
    params = PatchParams(epsilon=eps, r=r, R_lower=R, k=k, N=N, M=M, d=d)
    if not f.is_integral and not (params.inequalities_hold() and params.growth_inequality_holds(tail)):
        raise InsufficientMargin("certificate inequalities fail for the chosen parameters")
    return params


# --- the greedy ---------------------------------------------------------------------


def clear_fractional_parts(
    f: RatPoly, M: int, N: int, want_ledger: bool = False
):
    """Greedy fractional-part clearing on f^M (monic f, top N coefficients of
    f^M already integral).

    Step i targets degree t = Md - N + 1 - i, writes t = d q_i + r_i with
    0 <= r_i < d, and subtracts {a_t} f^{q_i} x^{r_i}, where {a} in [0,1) is
    the fractional part (a - {a} = floor(a), also for negative a).  After the
    step, every coefficient at degree >= t is an integer; after all
    Md - N + 1 steps the result is a monic integer polynomial of degree Md.

    The work runs on F^M with F = c^d f(x/c) (see _scaled_greedy_state), so a
    step is num[j + r] -= fn F^q[j] in plain integers, and F^q descends by
    exact monic division by F.

    Returns the IntPoly, or (IntPoly, ledger) with ledger a list of
    (q_i, r_i, fraction) when want_ledger is set.  The reconstruction identity
    output + sum {a_i} f^{q_i} x^{r_i} = f^M holds exactly.
    """
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if not verify_top_integrality(f, M, N):
        raise TopCoefficientsNotIntegral(f"top {N} coefficients of f^{M} are not all integers")
    d = f.degree
    num, cpow, F = _scaled_greedy_state(f, M)
    Md = M * d

    t_top = Md - N
    q_cur = t_top // d
    Fq = F ** q_cur
    ledger = []
    for t in range(t_top, -1, -1):
        q, rr = divmod(t, d)
        while q_cur > q:
            Fq = int_poly_div_exact(Fq, F)
            q_cur -= 1
        D_t = cpow[Md - t]
        fn = num[t] % D_t
        if fn:
            _scaled_subtract(num, fn, Fq, rr)
        ledger.append((q, rr, Fraction(fn, D_t)))
        if num[t] % D_t:
            raise CertificateCheckFailed("greedy step left a fractional coefficient")
    out = IntPoly([n // cpow[Md - t] for t, n in enumerate(num)])
    if not (out.is_monic and out.degree == Md):
        raise CertificateCheckFailed(f"greedy output is not monic of degree {Md}")
    return (out, ledger) if want_ledger else out


def _scaled_greedy_state(f: RatPoly, M: int):
    """(num, cpow, F): the greedy's integer state num[t] = (f^M)_t c^{Md-t}, the
    powers cpow[e] = c^e for e <= Md, and F = c^d f(x/c) = sum f_i c^{d-i} x^i.

    c is the lcm of f's denominators, so F is a monic integer polynomial, and
    num is exactly the coefficient list of F^M.  Likewise c^{Md-t} times the
    coefficient of x^t in f^q x^r is that of F^q x^r (for t = dq + r), so a
    greedy step subtracts fn F^q x^r from num with no scale factor.
    """
    d = f.degree
    c = f.denominator_lcm()
    Md = M * d
    cpow = [1] * (Md + 1)
    for e in range(1, Md + 1):
        cpow[e] = cpow[e - 1] * c
    F = IntPoly([a * cpow[d - i] for i, a in enumerate(f.coeffs)])
    return list((F ** M).coeffs), cpow, F


def _scaled_subtract(num: list, fn: int, Fq: IntPoly, rr: int):
    """num -= fn x^rr F^q: the step's {a_t} f^q x^rr on F^M's scale."""
    for j, a in enumerate(Fq.coeffs):
        num[j + rr] -= fn * a


def reconstruction_residual(f: RatPoly, M: int, p: IntPoly, ledger) -> RatPoly:
    """f^M - p - sum {a_i} f^{q_i} x^{r_i}; exact zero for a faithful ledger."""
    d = f.degree
    num, cpow, F = _scaled_greedy_state(f, M)
    Md = M * d
    for i, pc in enumerate(p.coeffs):
        num[i] -= pc * cpow[Md - i]
    q_cur = None
    Fq = None
    for q, rr, frac in ledger:
        if frac == 0:
            continue
        if q_cur is None or q > q_cur:
            Fq = F ** q
            q_cur = q
        while q_cur > q:
            Fq = int_poly_div_exact(Fq, F)
            q_cur -= 1
        t = d * q + rr
        D_t = cpow[Md - t]
        fn = frac.numerator * (D_t // frac.denominator)  # frac over the fixed scale
        _scaled_subtract(num, fn, Fq, rr)
    return RatPoly(
        [Fraction(n, cpow[Md - t]) for t, n in enumerate(num)]
    )


# --- rationalization ------------------------------------------------------------------


def rationalize(
    m: RatPoly,
    region: RegionSpec,
    epsilon: Fraction,
    r: Fraction,
    limit: int = 64,
) -> RatPoly:
    """Monic approximation with denominators <= limit, each coefficient within
    epsilon / (2 d r^{d-1}) of the input's; identity when already within the
    limit.  The perturbation bound gives sup over D_r of |output - input| < eps/2.
    """
    if not m.is_monic:
        raise NotMonic("m must be monic")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = m.degree
    bound = Fraction(epsilon) / (2 * d * Fraction(r) ** (d - 1))
    out = []
    for a in m.coeffs[:-1]:
        a = Fraction(a)
        if a.denominator <= limit:
            out.append(a)
            continue
        lim = limit
        b = a.limit_denominator(lim)
        while abs(b - a) >= bound:
            lim *= 2
            b = a.limit_denominator(lim)
        out.append(b)
    return RatPoly(out + [1])


# --- spot check ---------------------------------------------------------------------


def _sample_kr_points(region: RegionSpec, r: float, count: int, seed: int) -> list[complex]:
    """Deterministic samples of K intersect closed D_r: hole boundaries, the
    circle |z| = r, and uniform rejection samples of the disk minus U."""
    rng = np.random.default_rng(seed)
    pts: list[complex] = []
    n_ring = max(count // 4, 1)
    per_hole = max(n_ring // len(region.holes), 1)
    for hole in region.holes:
        theta = rng.uniform(0, 2 * math.pi, per_hole)
        pts.extend(hole.center + hole.radius * np.exp(1j * theta))
    theta = rng.uniform(0, 2 * math.pi, n_ring)
    pts.extend(r * np.exp(1j * theta))
    attempts = 0
    while len(pts) < count and attempts < 200 * count:
        z = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        attempts += 1
        if abs(z) <= r and not region.contains(z):
            pts.append(z)
    while len(pts) < count:  # pathological cover: fall back to the outer circle
        pts.append(r * complex(math.cos(len(pts)), math.sin(len(pts))))
    return pts[:count]


def _dyadic(z: complex) -> tuple[int, int, int]:
    """(X, Y, E) with z = (X + iY) / 2^E exactly; z has float parts."""
    (xn, xd), (yn, yd) = float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio()
    E = max(xd, yd).bit_length() - 1
    return xn * (2**E // xd), yn * (2**E // yd), E


def _horner_fixed(rev: tuple, X: int, Y: int, E: int, P: int) -> tuple[int, int, int, bool]:
    """p(z) = (A + iB) 2^s at z = (X + iY) / 2^E != 0, coefficients from the top.

    The product by X + iY is exact.  c_k is added at scale 2^s, rounded down
    when s > 0, which only happens while the larger of A, B has P bits, so the
    rounding is below 2^(1-P) |acc z|.  Then A and B are truncated so that the
    larger has at most P bits (shifted back up while s > 0 after a
    cancellation).  Each step errs by at most (1 + sqrt 2) 2^(1-P) (|acc z| +
    |c_k|).  Returns (A, B, s, exact), exact when nothing was rounded.
    """
    A = B = s = 0
    exact = True
    for c in rev:
        A, B = A * X - B * Y, A * Y + B * X
        s -= E
        A += (c >> s) if s > 0 else (c << -s)
        t = max(A.bit_length(), B.bit_length()) - P
        if t > 0:
            A >>= t
            B >>= t
            s += t
            exact = False
        elif t < 0 < s:
            t = min(-t, s)
            A <<= t
            B <<= t
            s -= t
    return A, B, s, exact


def _min_abs2(coeffs: tuple, points: list[complex]) -> tuple[int, int]:
    """(m, s) with m 4^s = |p~(z)|^2 smallest over the points, where each
    p~(z) is within 2^-60 |p~(z)| of p(z).

    Horner runs in fixed point at P bits (_horner_fixed).  By Higham's bound
    (Accuracy and Stability of Numerical Algorithms, 5.1) the error is at
    most gamma_{n+1} S <= (n+1) 2^(4-P) S with S = sum |c_k| |z|^k, and log2 S
    is bounded above by a log-sum-exp over the coefficient bit lengths.  A
    point whose bound exceeds 2^-60 |p~(z)| is redone with P raised by the
    deficit; a computation that rounded nothing is exact.
    """
    if not coeffs:
        return 0, 0
    n = len(coeffs) - 1
    rev = coeffs[::-1]
    nz = np.array([i for i, c in enumerate(coeffs) if c])
    bits = np.array([coeffs[i].bit_length() for i in nz], dtype=float)
    slack = math.log2(n + 1) + 4 + 60 + 1  # the bound, the 2^-60 target, 1 bit for float rounding
    start = 256 + n // 4  # > log2(n+1) + 3, which the bound needs
    best = None
    for z in points:
        X, Y, E = _dyadic(z)
        if X == Y == 0:
            m, s = coeffs[0] ** 2, 0
        else:
            l = bits + nz * math.log2(abs(z))
            top = l.max()
            log2_S = top + math.log2(np.exp2(l - top).sum())
            P = start
            while True:
                A, B, s, exact = _horner_fixed(rev, X, Y, E, P)
                m = A * A + B * B
                if exact:
                    break
                log2_p = math.log2(m) / 2 + s if m else -math.inf
                deficit = slack - P + log2_S - log2_p
                if deficit <= 0:
                    break
                P = 2 * P if m == 0 else P + math.ceil(deficit) + 32
        if best is None or _scaled_less(m, s, *best):
            best = (m, s)
    return best


def _scaled_less(m1: int, s1: int, m2: int, s2: int) -> bool:
    """m1 4^s1 < m2 4^s2, exactly."""
    if s1 >= s2:
        return m1 << 2 * (s1 - s2) < m2
    return m1 < m2 << 2 * (s2 - s1)


def _abs_and_log10(m: int, s: int) -> tuple[float, float]:
    """|w| and log10 |w| for |w|^2 = m 4^s, each rounded once from 40 digits."""
    if m == 0:
        return 0.0, -math.inf
    ctx = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    w = ctx.multiply(ctx.sqrt(decimal.Decimal(m)), ctx.power(2, s))
    return float(w), float(ctx.log10(w))


def spot_check_min_abs(p: IntPoly, region: RegionSpec, r: float, config: PatchConfig) -> SpotCheck:
    """min |p| over >= spot_samples points of K intersect closed D_r, each
    value within a relative 2^-60 (see _min_abs2)."""
    pts = _sample_kr_points(region, r, config.spot_samples, config.seed)
    mn, lg = _abs_and_log10(*_min_abs2(p.coeffs, pts))
    return SpotCheck(num_samples=len(pts), min_abs_value=mn, min_log10_abs=lg)


# --- the full pipeline -----------------------------------------------------------------


def patch(m: RatPoly, region: RegionSpec, config: PatchConfig = PatchConfig()) -> PatchCertificate:
    """Full patching pipeline; see the module docstring.

    An input that is already a monic integer polynomial with certified bound
    > 1 is returned unchanged (route "already-integer").
    """
    if not m.is_monic:
        raise NotMonic("m must be monic")
    if m.degree < 1:
        raise InsufficientMargin("constant polynomial cannot exceed 1 on an unbounded set")

    tail_m = m.abs_tail_sum()
    r0 = _quarter_above(max(region.bounding_radius, tail_m + 2))
    grid_bound = certified_lower_bound(m, region, r0, config.grid, config.max_refinements)
    L_m = min(grid_bound, _outside_disk_bound(m, r0))
    if L_m <= 1:
        raise InsufficientMargin(f"certified lower bound {float(L_m):.6g} <= 1 for the input")
    eps = min(L_m - 1, Fraction(1))

    if m.is_integral:
        p = m.to_int_poly()
        params = PatchParams(epsilon=eps, r=r0, R_lower=L_m, k=0, N=0, M=1, d=m.degree)
        sc = spot_check_min_abs(p, region, float(r0), config)
        return PatchCertificate(
            p=p, params=params, greedy_steps=0, spot_check=sc,
            exact_cert_ok=True, reconstruction_ok=True, route="already-integer",
        )

    f = rationalize(m, region, eps, r0, config.denominator_limit)
    if f.degree <= 1:
        f = f * f
    params = choose_parameters(f, region, config)
    # the certificate records epsilon for the *input* polynomial m
    params = dataclasses.replace(params, epsilon=eps)
    p, ledger = clear_fractional_parts(f, params.M, params.N, want_ledger=True)
    recon_ok = True
    if config.check_reconstruction:
        recon_ok = reconstruction_residual(f, params.M, p, ledger).is_zero
    sc = spot_check_min_abs(p, region, float(params.r), config)
    cert_ok = params.inequalities_hold() and params.growth_inequality_holds(f.abs_tail_sum())
    return PatchCertificate(
        p=p, params=params, greedy_steps=len(ledger), spot_check=sc,
        exact_cert_ok=cert_ok, reconstruction_ok=recon_ok, route="patched",
    )


# --- best-effort heuristic (no guarantee; failure reported as NotFound) -----------------


def heuristic_real_candidate(samples: Sequence[complex], degree_budget: int = 8) -> RatPoly:
    """Best-effort search for a monic rational polynomial with empirical
    min |p| > 1 over the sample cloud.

    Candidates place all roots at Fekete points of a disk inside the sampled
    set's complement around 0 (for n equally spaced points on a circle of
    radius rho the product collapses to x^n - rho^n), plus the degenerate
    all-roots-at-center x^n.  This is known to fail in general -- the sampled
    set may force every monic polynomial below 1 somewhere -- and the failure
    is reported as NotFound rather than papered over.
    """
    samples = [complex(w) for w in samples]
    if not samples:
        raise ValueError("empty sample cloud")
    delta = min(abs(w) for w in samples)
    rho = delta * (1 - 1 / 16)
    best: tuple[float, RatPoly] | None = None
    for n in range(1, degree_budget + 1):
        cands = [RatPoly([0] * n + [1])]
        if rho > 0:
            const = Fraction(rho ** n).limit_denominator(10 ** 6)
            cands.append(RatPoly([-const] + [0] * (n - 1) + [1]))
        for cand in cands:
            emp = min(abs(cand(w)) for w in samples)
            if best is None or emp > best[0]:
                best = (emp, cand)
        if best is not None and best[0] > 1:
            return best[1]
    raise NotFound(
        f"no monic candidate exceeded 1 on the samples (best empirical min {best[0]:.4g})"
    )
