"""Dense exact univariate polynomials over the rationals and the integers.

A polynomial is a tuple of exact coefficients, index i holding the coefficient
of x^i, with trailing zeros stripped (the zero polynomial stores no
coefficients).  Rational values are `fractions.Fraction`, normalized to plain
`int` whenever the denominator is 1, so "lives in Z[x]" is simply "every
stored coefficient is an int".

Each exact operation is written once, on coefficient sequences, and the
polynomial and series types are thin wrappers over it: `add_coeffs`,
`mul_coeffs` (truncated when given an order), `pow_coeffs` (Miller's
recurrence), `div_exact_coeffs` (monic divisor) and `horner` (evaluation at an
exact, float, complex or numpy point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import NonzeroRemainder, NotMonic

Scalar = Union[int, Fraction]


def _norm_scalar(c) -> Scalar:
    """Coerce to an exact scalar; collapse denominator-1 fractions to int."""
    if isinstance(c, int):
        return c
    if isinstance(c, float):
        # Exact binary value of the float; use parse_polynomial for decimals.
        c = Fraction(c)
    elif isinstance(c, str):
        c = Fraction(c)
    elif not isinstance(c, Fraction):
        raise TypeError(f"not an exact coefficient: {c!r}")
    return int(c) if c.denominator == 1 else c


def _strip(coeffs: list) -> tuple:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class RatPoly:
    """Polynomial with exact rational coefficients.

    >>> RatPoly([Fraction(1, 4), 1, 1])            # x^2 + x + 1/4
    RatPoly('x^2 + x + 1/4')
    >>> RatPoly([0]).is_zero
    True
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _strip([_norm_scalar(c) for c in coeffs]))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def coeff(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        return RatPoly(add_coeffs(self.coeffs, other.coeffs))

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        return RatPoly(mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        return poly_pow(self, n)

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, float and complex values."""
        return horner(self.coeffs, x)

    # -- helpers ---------------------------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def abs_tail_sum(self) -> Fraction:
        """Sum of |coefficients| below the leading term."""
        return sum((abs(Fraction(c)) for c in self.coeffs[:-1]), Fraction(0))

    def denominator_lcm(self) -> int:
        """lcm of the coefficient denominators (1 for an integer polynomial)."""
        dens = [c.denominator for c in self.coeffs if isinstance(c, Fraction)]
        return lcm(*dens) if dens else 1

    def to_int_poly(self) -> "IntPoly":
        if not self.is_integral:
            raise ValueError("polynomial has non-integer coefficients")
        return IntPoly(self.coeffs)

    def __repr__(self):
        from .parsing import poly_to_string

        return f"RatPoly('{poly_to_string(self)}')"


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with exact integer coefficients; same layout as RatPoly."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable = ()):
        vals = []
        for c in coeffs:
            c = _norm_scalar(c)
            if not isinstance(c, int):
                raise ValueError(f"non-integer coefficient: {c}")
            vals.append(c)
        object.__setattr__(self, "coeffs", _strip(vals))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def to_rat(self) -> RatPoly:
        return RatPoly(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(add_coeffs(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        return IntPoly(mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        return IntPoly(pow_coeffs(self.coeffs, n))

    def __call__(self, x):
        return horner(self.coeffs, x)

    def __repr__(self):
        from .parsing import poly_to_string

        return f"IntPoly('{poly_to_string(self.to_rat())}')"


# --- module-level operations ----------------------------------------------------


def add_coeffs(a: Sequence, b: Sequence) -> list:
    """Coefficients of a(x) + b(x); the result has the longer length."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def mul_coeffs(a: Sequence, b: Sequence, order: int | None = None) -> list:
    """Coefficients of a(x) b(x), or of a(x) b(x) mod x^(order+1) when order is
    given: len(a) + len(b) - 1 entries, at most order + 1, none for an empty
    factor.  Zero coefficients are skipped: a Fraction times 0 is not free."""
    n = len(a) + len(b) - 1 if len(a) and len(b) else 0
    if order is not None:
        n = max(min(n, order + 1), 0)
    out = [0] * n
    for i, ca in enumerate(a[:n]):
        if ca:
            for j, cb in enumerate(b[: n - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def horner(coeffs: Sequence, x):
    """sum coeffs[i] x^i by Horner's rule, for an int, Fraction, float,
    complex or numpy-array x; a zero of x's type for no coefficients.

    The first step is 0 * x + c, so on a numpy array the result equals a
    Horner loop started from a zero array bit for bit, signed zeros too."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc if len(coeffs) else 0 * x + 0


def pow_coeffs(a: tuple, n: int, order: int | None = None) -> list:
    """Coefficients of a(x)^n, or of a(x)^n mod x^(order+1) when order is given;
    n may be negative when an order is given and a_0 != 0 (so -1 gives the
    reciprocal series).

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): for a_0 != 0 and
    b = a^n, b_0 = a_0^n and, for every integer n,

        k a_0 b_k = sum_{j=1}^{min(d,k)} ((n+1) j - k) a_j b_{k-j},

    d * len(b) coefficient products against len(b)^2 for binary powering.
    A zero constant term is factored out as a power of x first.  Each
    division is exact; integer a stays on ints when n >= 0 or a_0 = +-1,
    where an inexact division raises NonzeroRemainder.
    Trailing zeros of a are allowed; 0^0 = 1.
    """
    nonzero = [i for i, c in enumerate(a) if c != 0]
    if n < 0 and (order is None or not nonzero or nonzero[0] != 0):
        raise ValueError("a negative power needs an order and a nonzero constant term")
    if not nonzero:
        return [1] if n == 0 else []
    v, e = nonzero[0], nonzero[-1]
    shift = v * n
    count = (e - v) * n + 1 if n >= 0 else order + 1
    if order is not None:
        count = min(count, order + 1 - shift)
        if count <= 0:
            return []
    a0 = a[v]
    terms = [(j - v, a[j]) for j in nonzero[1:]]
    integral = (n >= 0 or a0 in (1, -1)) and all(isinstance(a[j], int) for j in nonzero)
    n1 = n + 1
    b = [_norm_scalar(Fraction(a0) ** n)]
    for k in range(1, count):
        s = 0
        for j, aj in terms:
            if j > k:
                break
            s += (n1 * j - k) * aj * b[k - j]
        if integral:
            q, rem = divmod(s, k * a0)
            if rem:
                raise NonzeroRemainder("power recurrence division is inexact")
            b.append(q)
        else:
            b.append(_norm_scalar(Fraction(s) / (k * a0)))
    return [0] * shift + b


def poly_pow(f: RatPoly, n: int) -> RatPoly:
    """Exact n-th power by Miller's recurrence; poly_pow(f, 0) == 1."""
    return RatPoly(pow_coeffs(f.coeffs, n))


def div_exact_coeffs(a: tuple, b: tuple) -> list:
    """Coefficients of a(x) / b(x) for monic b dividing a exactly, by
    synthetic division; over Z or Q alike.

    Raises NotMonic for a divisor that is not monic and NonzeroRemainder when
    the division leaves a remainder.
    """
    if not b or b[-1] != 1:
        raise NotMonic("divisor must be monic")
    db = len(b) - 1
    rem = list(a)
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db]
        if c:
            q[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    if any(rem[:db]):
        raise NonzeroRemainder("division is inexact")
    return q


def poly_div_exact(f: RatPoly, g: RatPoly) -> RatPoly:
    """Quotient f/g for monic g dividing f exactly (see div_exact_coeffs)."""
    return RatPoly(div_exact_coeffs(f.coeffs, g.coeffs))


def reverse_unit_poly(p: IntPoly) -> IntPoly:
    """X^m * p(1/X) for monic p of degree m: the reversed coefficient list.

    The result has constant term 1, so it is a unit in Z[[X]].
    """
    if not p.is_monic:
        raise NotMonic("reverse_unit_poly requires a monic polynomial")
    return IntPoly(tuple(reversed(p.coeffs)))


def int_poly_div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f/g over Z for monic g dividing f exactly (see div_exact_coeffs)."""
    return IntPoly(div_exact_coeffs(f.coeffs, g.coeffs))


def scaled_integer_form(f: RatPoly) -> tuple[IntPoly, int]:
    """Write f = g / c with g integral and c the lcm of coefficient denominators."""
    c = f.denominator_lcm()
    return IntPoly([coef * c for coef in f.coeffs]), c
