"""Primitives of two-parameter (p, q)-calculus.

For 0 < q <= p <= 1 the (p,q)-integer is

    [n] = p^{n-1} + p^{n-2} q + ... + q^{n-1},

which equals (p^n - q^n)/(p - q) when p != q and n p^{n-1} at p = q.
On top of it sit the product power

    (a + b)^n = (a + b)(pa + qb)(p^2 a + q^2 b) ... (p^{n-1} a + q^{n-1} b),

and the integral over [0, 1]: the series-defined truncated sum, and the
closed form 1/[j+1] for monomials.

Every function in this module is pure and accepts either floats or
`fractions.Fraction` values inside `PQPair`; passing Fractions keeps the
whole computation exact (the artifact's identity-verification mode).
The bracket recurrence `_brackets` runs on any scalars, Python ints
included: with p = P/D and q = Q/D it gives the integer numerators of
[k] = N_k / D^{k-1} from P and Q, which the exact direct sums carry.
The series integral is float-only since it is an infinite sum; it calls
its integrand once per chunk of nodes on a 2-D float array, so an
integrand (a `FunctionHandle` or any callable) must map a float ndarray
to a float array of the same shape, as it maps a float to a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError

Scalar = Union[float, Fraction]

#: Hard cap on series terms for the truncated (p,q)-integral.
TERM_CAP = 10 ** 6

#: Terms always summed before the tail-bound stop rule may fire; guards
#: against a spurious stop when the integrand vanishes at the first nodes.
MIN_TERMS = 16


@dataclass(frozen=True)
class PQPair:
    """Deformation parameters with the validity regime 0 < q <= p <= 1.

    q < p strictly is required by the series-based integral (queryable via
    `is_strict`); p = q = 1 is the classical limit.  Fields are floats or
    rationals, stored as Fractions; mixing keeps only float accuracy.
    """

    p: Scalar
    q: Scalar

    def __post_init__(self):
        if not (0 < self.q <= self.p <= 1):
            raise DomainError(f"require 0 < q <= p <= 1, got p={self.p}, q={self.q}")
        _store_fractions(self, "p", "q")

    @property
    def is_strict(self) -> bool:
        """True when q < p, the regime the series integral needs."""
        return self.q < self.p

    @property
    def is_classical(self) -> bool:
        return self.p == 1 and self.q == 1

    @property
    def is_exact(self) -> bool:
        """True when both parameters are rational (exact-arithmetic mode)."""
        return isinstance(self.p, Rational) and isinstance(self.q, Rational)


def _store_fractions(obj, *names: str) -> None:
    """Store each named rational field of a frozen dataclass as a Fraction."""
    for name in names:
        if isinstance(getattr(obj, name), Rational):
            object.__setattr__(obj, name, Fraction(getattr(obj, name)))


def _brackets(count: int, p: Scalar, q: Scalar) -> list:
    """[0], [1], ..., [count-1] in the scalars of p and q, by the Horner
    recurrence [k+1] = p^k + q [k]; entry k takes the same operations
    whatever count is."""
    out = [p * 0] * count
    pw = p * 0 + 1
    for k in range(1, count):
        out[k] = pw + q * out[k - 1]
        pw = pw * p
    return out


def pq_integer(n: int, pq: PQPair) -> Scalar:
    """(p,q)-integer [n], via the homogeneous sum sum_{i<n} p^{n-1-i} q^i.

    Well defined at p = q, unlike the quotient (p^n - q^n)/(p - q) it
    equals for p != q.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return _brackets(n + 1, pq.p, pq.q)[n]


def _pq_powers(a: Scalar, b: Scalar, n: int, pq: PQPair) -> list:
    """The product powers of orders 0..n; entry k takes the same operations
    as `pq_power` of order k.  1-D arrays a and b give a table, one row per
    order, by cumulative products in the loop's order."""
    p, q = pq.p, pq.q
    out = [p * 0 + 1]
    pw_p = pw_q = out[0]
    if isinstance(a, np.ndarray):
        pw_p, pw_q = (np.cumprod([out[0]] + [r] * n)[:n] for r in (p, q))
        factors = np.outer(pw_p, a) + np.outer(pw_q, b)
        return np.cumprod(np.vstack([np.full((1,) + a.shape, out[0]), factors]), axis=0)
    for _ in range(n):
        out.append(out[-1] * (pw_p * a + pw_q * b))
        pw_p = pw_p * p
        pw_q = pw_q * q
    return out


def pq_power(a: Scalar, b: Scalar, n: int, pq: PQPair) -> Scalar:
    """Product power (a + b)(pa + qb)...(p^{n-1} a + q^{n-1} b); empty = 1."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return _pq_powers(a, b, n, pq)[n]


def predicted_terms(pq: PQPair, rel_tol: float) -> int:
    """Fewest series terms the truncation rule below can stop after:
    ceil(ln(rel_tol) / ln(q/p)).

    The tail bound M (q/p)^J compares with rel_tol |acc|, and |acc| < M
    (M = running max |f|), so it cannot drop below before (q/p)^J <=
    rel_tol.  Requires q < p strictly and 0 < rel_tol < inf.
    """
    if not pq.is_strict:
        raise RegimeError("series integral requires q < p strictly")
    if not 0 < rel_tol < math.inf:
        raise DomainError(f"rel_tol must be a positive finite number, got {rel_tol}")
    p = float(pq.p)
    one_minus_r = (p - float(pq.q)) / p
    # below q/p ~ 2^-54, 1 - q/p rounds to 1 and log1p(-1) has no value
    log_r = math.log1p(-one_minus_r) if one_minus_r < 1.0 else math.log(float(pq.q) / p)
    return max(0, math.ceil(math.log(rel_tol) / log_r))


def truncated_series(f, a: np.ndarray, b: np.ndarray, pq: PQPair,
                     rel_tol: float) -> np.ndarray:
    """Truncated series for the integrals of f(a_k + b_k t) over [0, 1],

        (p - q) * sum_{j>=0} t_j f(a_k + b_k t_j),   t_j = q^j / p^{j+1},

    for every k at once.  Requires q < p strictly.  f is called on a 2-D
    float array of nodes per chunk and must return a float array of the
    same shape.  The nodes t_j start at 1/p (which exceeds 1 when p < 1),
    so f must be evaluable on a_k + b_k [0, 1/p].  Truncation stops,
    checked every 256 terms, once for every k the geometric tail bound

        M_k * (p-q)/p * (q/p)^J / (1 - q/p),   M_k = running max |f|,

    drops to rel_tol times |accumulated value|, after at least MIN_TERMS
    terms.  The running max makes the bound rigorous for f whose
    magnitude on the unvisited nodes does not exceed the visited ones.
    When `predicted_terms` exceeds TERM_CAP the rule cannot fire within
    the cap, and ConvergenceError is raised before f is evaluated.  A
    value of f that is not finite raises DomainError after its chunk.
    """
    needed = predicted_terms(pq, rel_tol)
    p = float(pq.p)
    q = float(pq.q)
    r = q / p
    if needed > TERM_CAP:
        raise ConvergenceError(
            f"series integral needs at least {needed} terms to reach "
            f"rel_tol={rel_tol}, above the cap of {TERM_CAP} (q/p={r})"
        )
    acc = np.zeros_like(a)
    max_abs = np.zeros_like(a)
    j0 = 0
    chunk = 256
    while j0 < TERM_CAP:
        js = np.arange(j0, min(j0 + chunk, TERM_CAP))
        t = (r ** js) / p
        fv = f(a[:, None] + b[:, None] * t[None, :])
        acc += (p - q) * (fv @ t)
        max_abs = np.maximum(max_abs, np.max(np.abs(fv), axis=1))
        if not np.isfinite(max_abs).all():
            raise DomainError("the integrand is not finite on the series nodes")
        j0 = int(js[-1]) + 1
        tail = max_abs * ((p - q) / p) * r ** j0 / (1.0 - r)
        if j0 >= MIN_TERMS and np.all(tail <= rel_tol * np.abs(acc)):
            return acc
    raise ConvergenceError(
        f"series integral did not reach rel_tol={rel_tol} within {TERM_CAP} terms "
        f"(q/p={r})"
    )


def pq_integral_monomial(j: int, pq: PQPair) -> Scalar:
    """Closed form of the unit-interval integral of t^j: 1/[j+1].

    Follows from summing the geometric series (p-q) sum_k (q^k/p^{k+1})^{j+1}
    = (p-q)/(p^{j+1} - q^{j+1}).  Valid at p = q as well, where the series
    definition itself degenerates.  Raises DomainError when a float [j+1]
    underflows to 0.
    """
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    bracket = pq_integer(j + 1, pq)
    if bracket == 0:
        raise DomainError(f"[{j + 1}] underflows to 0 at p={pq.p}, q={pq.q}, "
                          f"so 1/[{j + 1}] is past the float range")
    return 1 / bracket
