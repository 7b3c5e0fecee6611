"""Exact truncated power series with an explicit truncation order.

A TruncSeries of order D stores exactly D+1 coefficients for X^0..X^D and
represents its value modulo X^{D+1}.  Coefficients follow the same int/Fraction
normalization as RatPoly, so a series "over Z" is one whose stored coefficients
are all ints.  Binary arithmetic truncates to the minimum operand order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    NonInvertibleLinearTerm,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
)
from .polys import RatPoly, _norm_scalar, pow_coeffs


@dataclass(frozen=True)
class TruncSeries:
    coeffs: tuple
    order: int

    def __init__(self, coeffs: Iterable, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        vals = [_norm_scalar(c) for c in coeffs]
        if len(vals) > order + 1:
            raise ValueError(f"{len(vals)} coefficients exceed order {order}")
        vals += [0] * (order + 1 - len(vals))
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "order", order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, p: RatPoly, order: int) -> "TruncSeries":
        return cls(p.coeffs[: order + 1], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([1], order)

    @classmethod
    def identity(cls, order: int) -> "TruncSeries":
        """The series T."""
        return cls([0, 1], order)

    # -- structure -----------------------------------------------------------

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def coeff(self, i: int) -> int | Fraction:
        if i > self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient; None if zero mod X^{D+1}."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1], order)

    def __call__(self, x):
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        d = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(d + 1)], d
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return TruncSeries([c * other for c in self.coeffs], self.order)
        d = min(self.order, other.order)
        out = [0] * (d + 1)
        for i, ca in enumerate(self.coeffs[: d + 1]):
            if ca == 0:
                continue
            for j in range(d + 1 - i):
                cb = other.coeffs[j]
                if cb != 0:
                    out[i + j] += ca * cb
        return TruncSeries(out, d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncSeries":
        return TruncSeries(pow_coeffs(self.coeffs, n, self.order), self.order)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncSeries([{shown}{tail}], order={self.order})"


# --- operations --------------------------------------------------------------------


def series_reciprocal(
    s: TruncSeries, order: int | None = None, *, allow_rational: bool = False
) -> TruncSeries:
    """Multiplicative inverse mod X^{D+1}.

    A series stored over Z must have constant term +-1 (a unit) unless
    allow_rational is set, in which case any nonzero constant term works and
    the result may be rational.
    Recurrence: b_0 = 1/a_0, b_m = -(1/a_0) * sum_{k=1..m} a_k b_{m-k}.
    """
    d = s.order if order is None else order
    if d > s.order:
        raise ValueError("requested order exceeds stored order")
    a0 = s.coeffs[0]
    if a0 == 0:
        raise NonUnitConstantTerm("constant term is zero")
    if s.is_integral and a0 not in (1, -1) and not allow_rational:
        raise NonUnitConstantTerm(f"constant term {a0} is not a unit in Z")
    inv0 = a0 if a0 in (1, -1) else Fraction(1) / a0
    out = [0] * (d + 1)
    out[0] = _norm_scalar(inv0)
    for m in range(1, d + 1):
        acc = 0
        for k in range(1, min(m, s.order) + 1):
            ak = s.coeffs[k]
            if ak != 0:
                acc += ak * out[m - k]
        out[m] = _norm_scalar(-inv0 * acc) if acc != 0 else 0
    return TruncSeries(out, d)


def series_compose(g: TruncSeries, f: TruncSeries, order: int | None = None) -> TruncSeries:
    """g(f(X)) mod X^{D+1}; the inner series must have zero constant term."""
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm("inner series must vanish at 0")
    d = min(g.order, f.order) if order is None else order
    if d > min(g.order, f.order):
        raise ValueError("requested order exceeds stored orders")
    ft = f.truncate(d)
    acc = TruncSeries([], d)
    for c in reversed(g.coeffs[: d + 1]):
        acc = acc * ft + TruncSeries([c], d)
    return acc


def series_comp_inverse(
    f: TruncSeries, order: int | None = None, *, allow_rational: bool = False
) -> TruncSeries:
    """Compositional inverse h with f(h(T)) = h(f(T)) = T mod T^{D+1}.

    Requires f(0) = 0 and an invertible linear coefficient: +-1 when f is
    stored over Z (unless allow_rational), merely nonzero over Q.  Newton
    iteration h <- h - (f(h) - T)/f'(h) doubles the correct order each step;
    exact over Q, and lands in Z automatically for integral f with unit
    linear term.
    """
    d = f.order if order is None else order
    if d > f.order:
        raise ValueError("requested order exceeds stored order")
    if f.coeffs[0] != 0:
        raise NonInvertibleLinearTerm("series must vanish at 0")
    f1 = f.coeffs[1] if f.order >= 1 else 0
    if f1 == 0:
        raise NonInvertibleLinearTerm("linear coefficient is zero")
    if f.is_integral and f1 not in (1, -1) and not allow_rational:
        raise NonInvertibleLinearTerm(f"linear coefficient {f1} is not a unit in Z")
    if d == 0:
        return TruncSeries([0], 0)

    fp = TruncSeries(f.coeffs[: d + 1], d)
    # f' is only known mod X^d; the zero-padding is harmless because the Newton
    # error always has valuation >= 2, so the padded tail never reaches order d.
    fprime = TruncSeries([i * c for i, c in enumerate(f.coeffs)][1:], d)
    inv_f1 = f1 if f1 in (1, -1) else Fraction(1) / f1
    h = TruncSeries([0, inv_f1], d)
    correct = 1
    while correct < d:
        err = series_compose(fp, h, d) - TruncSeries.identity(d)
        if err.valuation() is None:
            break
        deriv = series_compose(fprime, h, d)
        h = h - err * series_reciprocal(deriv, d, allow_rational=True)
        correct *= 2
    return h
