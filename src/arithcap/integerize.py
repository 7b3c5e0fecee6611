"""Integerizing exponents: powers f^M of a monic rational polynomial whose top
N non-leading coefficients are integers.

Only the top N+1 coefficients of f^M matter: they are R^M mod X^{N+1} for
the reversed series R = X^d f(1/X), which has constant term 1.  The valuation
formula picks M = prod_{p | k} p^{N(1 + v_p(k))} with k the lcm of the
coefficient denominators, so that k^N divides every multinomial coefficient
in the top N coefficients of f^M.  The search finds the smallest M from the
subgroup structure: the M with R^M integral mod X^{N+1} form a group M_0 Z,
since p-integral unit series are closed under products and inverses.  Its
p-part is p^{a_p} Z, because a u-th root of a p-integral unit series is
p-integral when p does not divide u.  So M_0 = prod_{p | k} p^{a_p}, with
a_p the least a for which R^{p^a} is p-integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DegreeTooSmall, NotFound, NotMonic
from .padic import prime_factorization, vp_integer
from .polys import RatPoly, pow_coeffs
from .series import TruncSeries


@dataclass(frozen=True)
class IntegerizationResult:
    M: int
    k: int
    prime_exponents: tuple[tuple[int, int], ...]  # (p, v_p(M)) for p | k
    verified: bool
    route: str  # "formula" | "search"

    def multiples(self) -> Iterator[int]:
        """The guarantee survives multiplication: yields M, 2M, 3M, ..."""
        t = 1
        while True:
            yield t * self.M
            t += 1


def _reversed_series(f: RatPoly, order: int) -> TruncSeries:
    """x^d f(1/x) truncated: coefficient i is the coefficient of x^{d-i} in f."""
    return TruncSeries(tuple(reversed(f.coeffs))[: order + 1], order)


def verify_top_integrality(f: RatPoly, M: int, N: int) -> bool:
    """True iff the coefficients of x^{dM-i}, 1 <= i <= N, of f^M are integers.

    Works on the reversed polynomial as a series mod X^{N+1}, so only the top
    N+1 coefficients of f^M are ever computed.
    """
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    if f.degree * M < N:
        raise DegreeTooSmall(f"d*M = {f.degree * M} < N = {N}")
    top = _reversed_series(f, N) ** M
    return all(isinstance(c, int) for c in top.coeffs[1 : N + 1])


def integerizing_exponent(f: RatPoly, N: int) -> IntegerizationResult:
    """Smallest M of the valuation-formula form for the given f and N.

    k is the lcm of the coefficient denominators rather than their product:
    the argument only needs k^N to clear any product of at most N non-leading
    coefficients, which the lcm power already does, and it keeps M smaller.
    """
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if f.degree < 1:
        raise ValueError("need deg f >= 1")
    if N < 1:
        raise ValueError("N must be positive")
    k = f.denominator_lcm()
    if k == 1:
        return IntegerizationResult(M=1, k=1, prime_exponents=(), verified=True, route="formula")
    M = 1
    exps = []
    for p, _ in prime_factorization(k):
        e = N * (1 + vp_integer(k, p))
        exps.append((p, e))
        M *= p ** e
    verified = verify_top_integrality(f, M, N)
    return IntegerizationResult(
        M=M, k=k, prime_exponents=tuple(exps), verified=verified, route="formula"
    )


def minimal_integerizing_exponent(
    f: RatPoly, N: int, cap: int, min_exponent: int = 1
) -> IntegerizationResult:
    """Smallest M in [min_exponent, cap] with verify_top_integrality(f, M, N):
    the least multiple of M_0 (see the module docstring) that is at least
    min_exponent and N/d.  The search for a_p stops once M_0 passes cap.
    """
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if cap < 1:
        raise ValueError("cap must be positive")
    d, k = f.degree, f.denominator_lcm()
    R = _reversed_series(f, N).coeffs
    M0 = 1
    for p, _ in prime_factorization(k):
        q = 1  # p^a, raised while R^(p^a) is not p-integral
        while M0 * q <= cap and any(c.denominator % p == 0 for c in pow_coeffs(R, q, N)):
            q *= p
        M0 *= q
    lower = max(min_exponent, 1, -(-N // max(d, 1)))  # M >= min_exponent, d M >= N
    M = -(-lower // M0) * M0
    if M > cap or d * M < N:  # d * M < N only for d = 0
        raise NotFound(f"no integerizing exponent <= {cap} (N={N})")
    exps = tuple((p, vp_integer(M, p)) for p, _ in prime_factorization(k))
    return IntegerizationResult(M=M, k=k, prime_exponents=exps, verified=True, route="search")
