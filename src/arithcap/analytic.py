"""Holomorphic maps on a domain: complex polynomials (full support) and
truncated series with an evaluation radius (evaluation-only), plus Taylor jets
at the center and polynomial preimages.

Preimage-dependent operations require a PolyMap; a SeriesMap supports exactly
the operations that only evaluate it (jets, symmetry checks, boundary
integrals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import DomainSpec
from .errors import AllCoefficientsBelowTolerance, ConstantMap
from .greens import GreenSolution
from .polys import IntPoly, RatPoly, horner


class AnalyticMap:
    """Common interface: __call__(points) vectorized, deriv(points)."""

    def __call__(self, z):  # pragma: no cover - interface
        raise NotImplementedError

    def deriv(self, z):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class PolyMap(AnalyticMap):
    coeffs: tuple[complex, ...]  # coeffs[i] multiplies z^i

    def __init__(self, coeffs: Sequence[complex]):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_rat_poly(cls, p: RatPoly | IntPoly) -> "PolyMap":
        return cls([complex(c) for c in p.coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return horner(self.coeffs, np.asarray(z, dtype=complex))

    def deriv(self, z):
        return horner(_derivative(self.coeffs), np.asarray(z, dtype=complex))

    def shifted_power(self, e: int) -> "PolyMap":
        """(p(z))^e as a PolyMap (helper for jet consistency checks)."""
        out = np.array([1.0 + 0j])
        base = np.array(self.coeffs, dtype=complex)
        for _ in range(e):
            out = np.convolve(out, base)
        return PolyMap(out)


@dataclass(frozen=True)
class SeriesMap(AnalyticMap):
    """sum c_k (z - center)^k valid for |z - center| <= radius, with a tail
    bound constant recorded for documentation of the truncation quality."""

    coeffs: tuple[complex, ...]
    center: complex
    radius: float
    tail_bound: float = 0.0

    def __init__(self, coeffs, center=0j, radius=1.0, tail_bound=0.0):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))
        object.__setattr__(self, "center", complex(center))
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "tail_bound", float(tail_bound))

    @classmethod
    def from_trunc_series(cls, s, center=0j, radius=1.0, tail_bound=0.0) -> "SeriesMap":
        return cls([complex(c) for c in s.coeffs], center, radius, tail_bound)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        w = z - self.center
        if np.any(np.abs(w) > self.radius * (1 + 1e-12)):
            raise ValueError("evaluation outside the series radius")
        return horner(self.coeffs, w)

    def deriv(self, z):
        return horner(_derivative(self.coeffs), np.asarray(z, dtype=complex) - self.center)


def _derivative(coeffs: Sequence[complex]) -> list[complex]:
    return [i * c for i, c in enumerate(coeffs)][1:]


@dataclass(frozen=True)
class JetData:
    """Leading Taylor data of f - f(O) at the center: vanishing order e and
    the coefficients c_e, c_{e+1}, ... in the coordinate z - O."""

    order: int                  # e >= 1
    coeffs: tuple[complex, ...]  # c_e ...
    tolerance: float
    radius: float

    @property
    def vanishing_order(self) -> int:
        return self.order

    @property
    def leading(self) -> complex:
        return self.coeffs[0]


def taylor_jet(
    f: AnalyticMap,
    domain: DomainSpec,
    order: int = 8,
    radius: float | None = None,
    rel_tolerance: float = 1e-10,
) -> JetData:
    """Taylor coefficients c_1..c_order of f - f(O) at O by trapezoid Cauchy
    integrals on a small circle (spectrally accurate); the vanishing order is
    the first index whose coefficient clears rel_tolerance * max|c_j|.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    O = domain.center
    if radius is None:
        radius = 0.5 * domain.boundary_distance(O)
    if isinstance(f, SeriesMap):
        radius = min(radius, 0.8 * f.radius)
    n = max(64, 4 * (order + 1))
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    ring = O + radius * np.exp(1j * theta)
    vals = f(ring)
    hat = np.fft.fft(vals) / n
    ks = np.arange(1, order + 1)
    cs = hat[1 : order + 1] / radius ** ks.astype(float)
    top = float(np.max(np.abs(cs)))
    if top == 0.0:
        raise AllCoefficientsBelowTolerance("all jet coefficients vanish")
    mask = np.abs(cs) >= rel_tolerance * top
    if not np.any(mask):
        raise AllCoefficientsBelowTolerance("no coefficient above tolerance")
    e = int(ks[mask][0])
    return JetData(
        order=e,
        coeffs=tuple(cs[e - 1 :]),
        tolerance=rel_tolerance,
        radius=radius,
    )


def jet_cap_norm(jet: JetData, sol: GreenSolution) -> float:
    """log of the capacitary norm of the e-jet: log|c_e| + e * robin_c.

    The norm weighs |c_e| against the e-th power of the conformal radius
    e^{robin_c}; with this convention the identity jet on a radius-rho disk
    has log-norm log(rho).
    """
    return float(np.log(np.abs(jet.leading)) + jet.order * sol.robin_c)


def _companion_roots(P: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of the rows of P (highest
    coefficient first, leading entry nonzero), laid out as np.roots lays out
    its single matrix, from one stacked np.linalg.eigvals call."""
    rows, m = P.shape[0], P.shape[1] - 1
    A = np.zeros((rows, m, m), dtype=complex)
    A[:, 0, :] = -P[:, 1:] / P[:, :1]
    A[:, np.arange(1, m), np.arange(m - 1)] = 1
    return np.linalg.eigvals(A)


def preimage_clusters(f: AnalyticMap, ys, cluster_tol: float = 1e-7):
    """The solutions of f(z) = y_j for every y_j at once, in multiplicity groups.

    Returns (points, mults), both of shape (len(ys), degree): row j lists the
    groups of f(z) = y_j in the order preimages reports them, padded with
    multiplicity 0 (and point nan).  The roots of all shifted polynomials
    f(z) - y_j come from one stacked companion eigenproblem, built as np.roots
    builds its matrix.  A row whose constant term is exactly 0 takes np.roots's
    path for trailing zeros: its roots at 0 are exact zeros, one per order of
    vanishing, after the eigenvalues of the deflated polynomial.  Three
    vectorized Newton sweeps polish the roots; roots closer than
    cluster_tol * (1 + max |root|) form one group, represented by their mean.
    Each row's values match a one-row call bit for bit.
    """
    if not isinstance(f, PolyMap):
        raise TypeError("preimages require a polynomial map")
    d = f.degree
    if d < 1:
        raise ConstantMap("map is constant; fibers are not finite")
    ys = np.atleast_1d(np.asarray(ys, dtype=complex))
    P = np.tile(np.array(f.coeffs[::-1], dtype=complex), (len(ys), 1))
    P[:, d] -= ys
    roots = np.zeros((len(ys), d), dtype=complex)
    zero = P[:, d] == 0
    roots[~zero] = _companion_roots(P[~zero])
    # in a row with c_0 - y_j = 0, the trailing zeros c_0 - y_j, c_1, c_2, ...
    # are roots at 0, left as the row's last entries
    trailing = 1
    while trailing < d and f.coeffs[trailing] == 0:
        trailing += 1
    if trailing < d:
        roots[zero, : d - trailing] = _companion_roots(P[zero, : d + 1 - trailing])
    for _ in range(3):
        fv = f(roots) - ys[:, None]
        dv = f.deriv(roots)
        safe = np.abs(dv) > 1e-14 * (1 + np.abs(fv))
        roots[safe] = roots[safe] - fv[safe] / dv[safe]

    scale = 1.0 + np.max(np.abs(roots), axis=1)
    # close[j, i, k]: root k of row j lies in the group around root i
    close = np.abs(roots[:, None, :] - roots[:, :, None]) < (cluster_tol * scale)[:, None, None]
    points = roots.copy()
    mults = np.ones(roots.shape, dtype=int)
    for j in np.flatnonzero(np.any(close & ~np.eye(d, dtype=bool), axis=(1, 2))):
        used = np.zeros(d, dtype=bool)
        k = 0
        for i in range(d):
            if used[i]:
                continue
            group = close[j, i] & ~used
            points[j, k] = complex(roots[j][group].mean())
            mults[j, k] = int(group.sum())
            used |= group
            k += 1
        points[j, k:] = np.nan
        mults[j, k:] = 0
    return points, mults


def preimages(f: AnalyticMap, y: complex, domain: DomainSpec, cluster_tol: float = 1e-7):
    """All solutions of f(z) = y: (point, multiplicity, inside V) triples.

    One row of preimage_clusters, with the inside flags from one containment
    call.
    """
    points, mults = preimage_clusters(f, [y], cluster_tol)
    keep = mults[0] > 0
    pts = points[0][keep]
    inside = domain.contains(pts)
    return [(complex(z), int(m), bool(i)) for z, m, i in zip(pts, mults[0][keep], inside)]
