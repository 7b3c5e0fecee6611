"""Continuum families of integer power series sum_n a_n / q(X)^n.

For a monic integer p of degree m, set q(X) = p(1/X).  Since X^m p(1/X) has
constant term 1, the formal series 1/q(X) = X^m / (X^m p(1/X)) lies in
X^m Z[[X]], so 1/q(X)^n starts at X^{mn} and any bounded integer seed
sequence (a_n) yields a well-defined integer series sum a_n / q(X)^n.  Seeds
differing at index n produce series differing at order <= mn, which is how a
continuum of distinct members is witnessed at finite truncation order.

A member is built in O(order^2) coefficient products.  With R = X^m p(1/X)
and N = min(len(seed), floor(order/m)), the sum is H / R^N for

    H = sum_{n=1}^N a_n X^{mn} R^{N-n},

so the integer Horner step H <- H R + a_n X^{mn} builds H in N products by
the m + 1 coefficients of R, each O(order m).  Miller's recurrence at
exponent -N gives the unit series 1/R^N in O(order m), and one truncated
product of H by it, O(order^2), finishes the member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import AnalyticMap
from .curves import DomainSpec
from .errors import NonzeroConstantTerm, NotMonic, SampleSingularity
from .polys import IntPoly, horner, mul_coeffs, pow_coeffs, reverse_unit_poly
from .series import TruncSeries, series_compose


@dataclass(frozen=True)
class SeedSequence:
    """Bounded integer sequence a_1, a_2, ... (implicit zero tail)."""

    values: tuple[int, ...]
    bound: int

    def __init__(self, values: Sequence[int], bound: int | None = None):
        raw = tuple(values)
        try:
            vals = tuple(int(v) for v in raw)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"seed values must be integers: {exc}") from None
        if vals != raw:
            raise ValueError(f"seed values must be integers, got {list(raw)!r}")
        b = max((abs(v) for v in vals), default=0) if bound is None else int(bound)
        if any(abs(v) > b for v in vals):
            raise ValueError(f"seed exceeds the bound {b}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bound", b)

    @classmethod
    def from_bits(cls, x: float, length: int) -> "SeedSequence":
        """Binary digits of a real parameter in [0, 1): the continuum index."""
        if not 0 <= x < 1:
            raise ValueError("parameter must lie in [0, 1)")
        bits = []
        for _ in range(length):
            x *= 2
            bit = int(x)
            bits.append(bit)
            x -= bit
        return cls(bits, bound=1)


def q_inverse_series(p: IntPoly, order: int) -> TruncSeries:
    """1/q(X) = X^m * (X^m p(1/X))^{-1} truncated at the given order; integer
    coefficients with lowest term exactly X^m.  It is the member of seed (1)."""
    return family_member(p, SeedSequence([1]), order)


def family_member(p: IntPoly, seed: SeedSequence, order: int) -> TruncSeries:
    """sum_n a_n (1/q)^n truncated; only terms with m n <= order contribute.

    Computed as H / R^N (see the module docstring), exactly."""
    if not p.is_monic:
        raise NotMonic("p must be monic")
    if order < 0:
        raise ValueError("order must be nonnegative")
    m = p.degree
    R = reverse_unit_poly(p).coeffs
    N = len(seed.values) if m == 0 else min(len(seed.values), order // m)
    H: list[int] = []
    for n, a in enumerate(seed.values[:N], start=1):
        H = mul_coeffs(H, R, order)
        if a:
            H += [0] * (m * n + 1 - len(H))
            H[m * n] += a
    return TruncSeries(mul_coeffs(H, pow_coeffs(R, -N, order), order), order)


def compose_with_f(g: TruncSeries, f: TruncSeries, order: int | None = None) -> TruncSeries:
    """g(f(T)) over Z: the regular-function representative of a family member."""
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm("inner series must vanish at 0")
    return series_compose(g, f, order)


@dataclass(frozen=True)
class DistinctnessReport:
    distinct: bool
    collision: tuple[int, int] | None  # indices of the first colliding pair


def distinctness_check(members: Sequence[TruncSeries]) -> DistinctnessReport:
    """Pairwise distinctness of truncated family members.

    Seeds differing within the first floor(order/m) entries always separate
    (the difference first shows at X^{mn} for the first differing index n);
    seeds agreeing there may collide at this truncation order.
    """
    seen: dict[tuple, int] = {}
    for i, member in enumerate(members):
        c = member.coeffs
        if c in seen:
            return DistinctnessReport(distinct=False, collision=(seen[c], i))
        seen[c] = i
    return DistinctnessReport(distinct=True, collision=None)


@dataclass(frozen=True)
class TailBound:
    delta: float
    geometric_ok: bool
    argmax: complex


def tail_bound_check(
    p: IntPoly,
    phi: AnalyticMap,
    domain: DomainSpec,
    samples: int = 256,
    interior_rings: int = 3,
) -> TailBound:
    """delta = max over samples of |1/q(phi(x))| = |1/p(1/phi(x))|.

    geometric_ok certifies uniform geometric convergence of the family sums
    at rate delta < 1.  Samples cover the boundary (where the holomorphic
    maximum lives) plus interior rings for sanity.
    """
    if not p.is_monic:
        raise NotMonic("p must be monic")
    t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    pts = [c(t) for c in domain.curves]
    O = domain.center
    for j in range(1, interior_rings + 1):
        shrink = j / (interior_rings + 1.0)
        pts.append(O + shrink * (domain.curves[0](t) - O))
    pts = np.concatenate(pts)
    pv = phi(pts)
    bad = np.abs(pv) < 1e-14 * (1 + np.max(np.abs(pv)))
    if np.any(bad & (np.abs(pts - O) > 1e-12 * (1 + abs(O)))):
        raise SampleSingularity("phi vanishes at a sample away from the center")
    qv = np.abs(horner(p.coeffs, 1.0 / np.where(bad, 1.0, pv)))
    with np.errstate(divide="ignore"):
        vals = np.where(bad, 0.0, np.where(qv > 0, 1.0 / np.where(qv > 0, qv, 1.0), np.inf))
    i = int(np.argmax(vals))
    delta = float(vals[i])
    return TailBound(delta=delta, geometric_ok=delta < 1.0, argmax=complex(pts[i]))

