"""Smooth closed boundary curves as trigonometric polynomials, and planar
compact domains built from them.

A curve is gamma(t) = sum_k c_k e^{ikt} over a finite set of integer
frequencies.  The first curve of a DomainSpec is the outer boundary
(normalized counterclockwise); any further curves are holes (normalized
clockwise, so the compact region V always lies on the left and the outward
normal of V is -i gamma'/|gamma'| on every component).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CenterOnBoundary

# Query points per block of TrigCurve.winding: 32 points x 2048 nodes is a
# 1 MiB complex quotient.  Blocks of 512 points ran slower and took more memory.
_WINDING_BLOCK = 32


@dataclass(frozen=True)
class TrigCurve:
    freqs: tuple[int, ...]
    coeffs: tuple[complex, ...]

    def __init__(self, coeff_map: Mapping[int, complex]):
        items = sorted((int(k), complex(v)) for k, v in coeff_map.items() if v != 0)
        if not items:
            raise ValueError("empty curve")
        object.__setattr__(self, "freqs", tuple(k for k, _ in items))
        object.__setattr__(self, "coeffs", tuple(v for _, v in items))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, c in zip(self.freqs, self.coeffs):
            out += c * np.exp(1j * k * t)
        return out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, c in zip(self.freqs, self.coeffs):
            out += 1j * k * c * np.exp(1j * k * t)
        return out

    def continued(self, sigma: float) -> "TrigCurve":
        """Analytic continuation gamma(t - i sigma): coefficients scale by e^{k sigma}.

        For curves traced by a Laurent map of the unit circle this moves the
        curve outward for sigma > 0 and inward for sigma < 0.
        """
        return TrigCurve(
            {k: c * np.exp(k * sigma) for k, c in zip(self.freqs, self.coeffs)}
        )

    def reversed(self) -> "TrigCurve":
        """Reparameterize t -> -t (flips orientation)."""
        return TrigCurve({-k: c for k, c in zip(self.freqs, self.coeffs)})

    def scale(self) -> float:
        return float(sum(abs(c) for c in self.coeffs))

    def turning_number(self, n: int = 1024) -> int:
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        d = self.deriv(t)
        if np.min(np.abs(d)) < 1e-12 * self.scale():
            raise ValueError("curve has a stationary point; not immersed")
        dphi = np.angle(d[np.r_[1:n, 0]] / d)
        return int(round(dphi.sum() / (2 * np.pi)))

    def winding(self, points, n: int = 2048):
        """Winding numbers of the curve around each query point (vectorized).

        The winding number is the trapezoid rule for (1/2 pi i) integral of
        gamma' / (gamma - z) dt on n nodes.  Each grid shift samples gamma and
        gamma' once; the quotients are then formed for _WINDING_BLOCK query
        points at a time, so memory stays flat however many points one call
        brings, and each point's sum does not depend on the others.

        Points within quadrature reach of the curve itself get the grid
        shifted by a half-step; if that still does not settle the integral
        they are classified as winding 0 (boundary points carry g = 0 anyway).
        The result has the shape of the query array (1-d for a scalar).
        """
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        shape = pts.shape
        pts = pts.ravel()
        out = np.zeros(pts.shape, dtype=int)
        todo = np.ones(pts.shape, dtype=bool)
        for shift in (0.0, np.pi / n, np.e / (7 * n)):
            pending = np.flatnonzero(todo)
            if not len(pending):
                break
            t = np.linspace(0.0, 2 * np.pi, n, endpoint=False) + shift
            g = self(t)
            dg = self.deriv(t)
            for lo in range(0, len(pending), _WINDING_BLOCK):
                idx = pending[lo : lo + _WINDING_BLOCK]
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = (dg[None, :] / (g[None, :] - pts[idx, None])).mean(axis=1) / 1j
                good = np.isfinite(w) & (np.abs(w - np.rint(w.real)) < 0.3)
                vals = np.where(good, np.rint(np.where(np.isfinite(w), w, 0).real), 0).astype(int)
                out[idx[good]] = vals[good]
                todo[idx[good]] = False
        return out.reshape(shape)


@dataclass(frozen=True)
class DomainSpec:
    """Compact region V bounded by one outer curve and optional hole curves,
    with a distinguished interior point O (local coordinate z - O)."""

    curves: tuple[TrigCurve, ...]
    center: complex

    def __init__(self, curves: Sequence[TrigCurve], center: complex):
        curves = list(curves)
        if not curves:
            raise ValueError("need at least one boundary curve")
        fixed = []
        for i, c in enumerate(curves):
            tn = c.turning_number()
            if abs(tn) != 1:
                raise ValueError(f"curve {i} is not simple (turning number {tn})")
            want = 1 if i == 0 else -1  # outer ccw, holes cw
            fixed.append(c if tn == want else c.reversed())
        object.__setattr__(self, "curves", tuple(fixed))
        object.__setattr__(self, "center", complex(center))
        self._validate()

    def _validate(self):
        t = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        samples = [c(t) for c in self.curves]
        scale = max(np.max(np.abs(s)) for s in samples)
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                d = np.min(np.abs(samples[i][:, None] - samples[j][None, :]))
                if d < 1e-9 * scale:
                    raise ValueError(f"curves {i} and {j} touch")
        if self.boundary_distance(self.center, 1024) < 1e-9 * max(scale, 1.0):
            raise CenterOnBoundary("center lies on a boundary curve")
        outer = self.curves[0]
        if outer.winding([self.center])[0] != 1:
            raise ValueError("center is not inside the outer curve")
        for i, c in enumerate(self.curves[1:], start=1):
            if abs(c.winding([self.center])[0]) != 0:
                raise ValueError("center lies inside a hole")
            if outer.winding([c(np.array([0.0]))[0]])[0] != 1:
                raise ValueError(f"hole {i} is not inside the outer curve")

    @property
    def scale(self) -> float:
        return max(c.scale() for c in self.curves)

    def contains(self, points) -> np.ndarray:
        """True for points in the interior of V (vectorized)."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        inside = self.curves[0].winding(pts) == 1
        for hole in self.curves[1:]:
            inside &= np.abs(hole.winding(pts)) == 0
        return inside

    def boundary_distance(self, z: complex, n: int = 2048) -> float:
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return min(float(np.min(np.abs(c(t) - z))) for c in self.curves)

    def require_center_off_boundary(self, tol: float = 1e-9):
        if self.boundary_distance(self.center) < tol * max(self.scale, 1.0):
            raise CenterOnBoundary("center lies on a boundary curve")


# --- named shapes ------------------------------------------------------------------


def circle_domain(radius: float, center: complex = 0j, O: complex | None = None) -> DomainSpec:
    if not radius > 0:
        raise ValueError("circle radius must be positive")
    curve = TrigCurve({0: center, 1: radius})
    return DomainSpec([curve], center if O is None else O)


def ellipse_domain(a: float, b: float, center: complex = 0j, O: complex | None = None) -> DomainSpec:
    """Axis-aligned ellipse with semi-axes a (real direction) and b."""
    curve = TrigCurve({0: center, 1: (a + b) / 2, -1: (a - b) / 2})
    return DomainSpec([curve], center if O is None else O)


def conformal_image_domain(psi_coeffs: Sequence[complex], O: complex | None = None) -> DomainSpec:
    """Image of the closed unit disk under the polynomial psi(w) = sum c_j w^j.

    The default center is psi(0).  The caller is responsible for psi being
    injective on the closed disk; the simpleness check catches gross failures.
    """
    coeffs = [complex(c) for c in psi_coeffs]
    curve = TrigCurve({j: c for j, c in enumerate(coeffs)})
    return DomainSpec([curve], coeffs[0] if O is None else O)


def perturbed_circle_domain(
    radius: float = 1.0, eps: float = 0.05, mode: int = 3, O: complex = 0j
) -> DomainSpec:
    """Circle with a cos(mode * t) radial ripple: gamma = radius e^{it} (1 + eps cos(m t)).

    The ripple's two terms sit at frequencies m + 1 and 1 - m; coefficients
    that share a frequency (all three at m = 0) are summed.
    """
    if not float(mode).is_integer():
        raise ValueError(f"perturbation mode must be an integer, got {mode!r}")
    coeffs = {1: radius}
    for k in (int(mode) + 1, 1 - int(mode)):
        coeffs[k] = coeffs.get(k, 0.0) + radius * eps / 2
    return DomainSpec([TrigCurve(coeffs)], O)


def trig_domain(coeff_map: Mapping[int, complex], O: complex, holes: Sequence[Mapping[int, complex]] = ()) -> DomainSpec:
    return DomainSpec([TrigCurve(coeff_map)] + [TrigCurve(h) for h in holes], O)
