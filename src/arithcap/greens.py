"""Equilibrium Green's function solver (method of fundamental solutions).

The Green's function of the compact region V at O is g = log(1/|z-O|) + h
with h harmonic on the interior and h = log|z-O| on the boundary, so that g
vanishes there and is extended by zero outside.  h is represented as

    h(z) = c0 + sum_j c_j log|z - s_j|

with real charges c_j at source points s_j placed outside V (beyond the outer
curve, inside the holes) on analytic continuations of the boundary curves, and
fitted by least squares at boundary collocation points.  The equilibrium
measure is the outward normal flux (1/2pi) dg/dn ds, evaluated from the same
representation analytically, so its raw quadrature weights sum to 1 up to
spectral-size quadrature error.

The expansion is exponentially convergent for the analytic boundaries used
here; solution quality is measured by the boundary residual at interleaved
validation points (by the maximum principle it bounds the interior error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DomainSpec
from .errors import PoleAtCenter, SolverIllConditioned

# Points per block of a harmonic_part evaluation: 256 points x 128 sources
# (resolution 256) is a 0.5 MiB complex temporary.
_HARMONIC_BLOCK = 256


@dataclass(frozen=True)
class GreenSolution:
    domain: DomainSpec
    sources: np.ndarray        # complex source points, all curves concatenated
    charges: np.ndarray        # real charges c_j
    const: float               # c0
    robin_c: float             # h(O)
    capacity: float            # e^{-robin_c}
    nodes_t: np.ndarray        # collocation parameters per node (outer curve first)
    nodes_z: np.ndarray        # collocation points
    weights: np.ndarray        # normalized equilibrium weights at the nodes
    raw_weight_sum: float      # quadrature mass before normalization
    collocation_residual: float
    curve_index: np.ndarray    # which curve each node belongs to

    # -- evaluation ------------------------------------------------------------

    def harmonic_part(self, z) -> np.ndarray:
        """h(z) = c0 + sum_j c_j log|z - s_j| at each point of a 1-d array.

        Each point's sum is its own BLAS dot product, so a value does not
        depend on which other points share the call; points go through in
        blocks of _HARMONIC_BLOCK to bound the points x sources temporaries.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty(z.shape, dtype=float)
        for lo in range(0, len(z), _HARMONIC_BLOCK):
            block = z[lo : lo + _HARMONIC_BLOCK]
            logs = np.log(np.abs(block[:, None] - self.sources[None, :]))
            out[lo : lo + len(block)] = self.const + np.matmul(logs[:, None, :], self.charges)[:, 0]
        return out

    def green(self, x):
        """g(x): zero outside the interior, pole at O.

        A scalar gives a float and an array gives an array of its shape.
        PoleAtCenter if any point is O.  One containment pass covers every
        point, and g is evaluated on the inside ones only.
        """
        pts = np.asarray(x, dtype=complex)
        flat = pts.ravel()
        center = self.domain.center
        if np.any(flat == center):
            raise PoleAtCenter("Green's function has its pole at the center")
        out = np.zeros(flat.shape, dtype=float)
        if flat.size:
            inside = self.domain.contains(flat)
            zi = flat[inside]
            d = zi - center
            # hypot, as Python's abs(complex) computes it; numpy's complex
            # absolute value can differ from it in the last bit
            out[inside] = -np.log(np.hypot(d.real, d.imag)) + self.harmonic_part(zi)
        return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)

    def analytic_derivative(self, z) -> np.ndarray:
        """W(z) with g = Re of an antiderivative: W = -1/(z-O) + sum c_j/(z-s_j)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return -1.0 / (z - self.domain.center) + (
            1.0 / (z[:, None] - self.sources[None, :])
        ) @ self.charges.astype(complex)

    def measure_density_t(self, curve_idx: int, t) -> np.ndarray:
        """Equilibrium measure density in the parameter t (per unit t).

        density = -(1/2pi) Re(W(z) n(z)) |gamma'(t)| with n the outward unit
        normal -i gamma'/|gamma'|; nonnegative by the maximum principle.
        """
        curve = self.domain.curves[curve_idx]
        t = np.atleast_1d(np.asarray(t, dtype=float))
        z = curve(t)
        dz = curve.deriv(t)
        normal = -1j * dz / np.abs(dz)
        flux = -(self.analytic_derivative(z) * normal).real / (2 * np.pi)
        return flux * np.abs(dz)


def _source_points(domain: DomainSpec, counts: list[int], offset: float) -> np.ndarray:
    """Sources on the analytic continuations gamma(t - i offset).

    With the orientation normalization (outer ccw, holes cw) the continuation
    amplifies the dominant positive frequency of the outer curve (moving
    outward) and suppresses the dominant negative frequency of a hole curve
    (moving into the hole) - in both cases off the V side.  A winding check
    guards the construction, falling back to an offset along the outward
    normal of V, which also points off the V side on every component.
    """
    pieces = []
    for i, (curve, m) in enumerate(zip(domain.curves, counts)):
        t = np.linspace(0.0, 2 * np.pi, m, endpoint=False) + np.pi / m
        cand = curve.continued(offset)(t)
        if i == 0:
            ok = np.all(domain.curves[0].winding(cand) == 0)
        else:
            ok = np.all(np.abs(curve.winding(cand)) == 1)
        if not ok:
            dz = curve.deriv(t)
            n = -1j * dz / np.abs(dz)
            cand = curve(t) + offset * n * (curve.scale() / 2)
        pieces.append(cand)
    return np.concatenate(pieces)


def solve_green(
    domain: DomainSpec,
    resolution: int = 256,
    source_offset: float = 0.6,
    residual_threshold: float = 1e-6,
) -> GreenSolution:
    """Solve the Dirichlet problem for the equilibrium Green's function.

    resolution = collocation points per boundary curve; half as many sources.
    Raises CenterOnBoundary / SolverIllConditioned per the residual check.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    domain.require_center_off_boundary()
    O = domain.center

    ncurves = len(domain.curves)
    col_counts = [resolution] * ncurves
    src_counts = [max(resolution // 2, 8)] * ncurves
    t = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    nodes = np.concatenate([c(t) for c in domain.curves])
    nodes_t = np.concatenate([t] * ncurves)
    curve_index = np.concatenate([np.full(resolution, i) for i in range(ncurves)])
    sources = _source_points(domain, src_counts, source_offset)

    A = np.concatenate(
        [np.log(np.abs(nodes[:, None] - sources[None, :])), np.ones((len(nodes), 1))],
        axis=1,
    )
    b = np.log(np.abs(nodes - O))
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    charges, const = coef[:-1], float(coef[-1])

    # validation residual at interleaved boundary points
    tv = t + np.pi / resolution
    vnodes = np.concatenate([c(tv) for c in domain.curves])
    Av = np.concatenate(
        [np.log(np.abs(vnodes[:, None] - sources[None, :])), np.ones((len(vnodes), 1))],
        axis=1,
    )
    residual = float(np.max(np.abs(Av @ coef - np.log(np.abs(vnodes - O)))))
    if residual > residual_threshold:
        raise SolverIllConditioned(
            f"boundary residual {residual:.3g} above threshold {residual_threshold:g}"
        )

    robin = float(const + np.log(np.abs(O - sources)) @ charges)

    sol = GreenSolution(
        domain=domain,
        sources=sources,
        charges=charges,
        const=const,
        robin_c=robin,
        capacity=float(np.exp(-robin)),
        nodes_t=nodes_t,
        nodes_z=nodes,
        weights=np.zeros(len(nodes)),
        raw_weight_sum=0.0,
        collocation_residual=residual,
        curve_index=curve_index,
    )
    # fill the measure weights from the analytic flux
    raw = np.concatenate(
        [
            sol.measure_density_t(i, t) * (2 * np.pi / resolution)
            for i in range(ncurves)
        ]
    )
    total = float(raw.sum())
    object.__setattr__(sol, "raw_weight_sum", total)
    object.__setattr__(sol, "weights", raw / total)
    return sol


def equilibrium_measure(sol: GreenSolution, nodes: int = 256):
    """Fresh quadrature discretization of the equilibrium measure with the
    requested node count per curve: list of (point, weight), weights >= 0
    normalized to sum exactly 1."""
    if nodes < 1:
        raise ValueError("need at least one node per curve")
    t = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    pts = []
    ws = []
    for i, curve in enumerate(sol.domain.curves):
        pts.append(curve(t))
        ws.append(sol.measure_density_t(i, t) * (2 * np.pi / nodes))
    pts = np.concatenate(pts)
    ws = np.concatenate(ws)
    ws = ws / ws.sum()
    return list(zip(pts.tolist(), ws.tolist()))
