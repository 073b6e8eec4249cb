"""Independent reference implementations that the tests compare against.

Kept out of the package: the classical oracle imports scipy, and the
commands never call the scalar cross-checks of the (p,q)-primitives and
of the node map.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from pqkanto import DomainError, FunctionHandle, OperatorParams, PQPair, RegimeError
from pqkanto.moments import MOMENT_KEYS
from pqkanto.pq_calculus import (Scalar, _brackets, pq_integer, pq_integral_monomial,
                                 truncated_series)


def pq_integer_quotient(n: int, pq: PQPair) -> Scalar:
    """[n] via (p^n - q^n)/(p - q); requires q < p.

    Kept as an independent cross-check of `pq_integer`; the homogeneous
    sum is the production form because it is uniformly valid at p = q.
    """
    if not pq.is_strict:
        raise RegimeError("quotient form requires q < p")
    return (pq.p ** n - pq.q ** n) / (pq.p - pq.q)


def pq_factorial(n: int, pq: PQPair) -> Scalar:
    """[n]! = [1][2]...[n]; empty product is 1.  O(n): one bracket
    recurrence, the one `pq_integer` runs."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    acc = pq.p * 0 + 1
    for bracket in _brackets(n + 1, pq.p, pq.q)[1:]:
        acc = acc * bracket
    return acc


def pq_binomial(n: int, k: int, pq: PQPair) -> Scalar:
    """(p,q)-binomial coefficient [n]! / ([k]! [n-k]!).

    Exact inputs go through the factorials; float inputs use the product
    of ratios [n-i]/[i+1], which keeps intermediates near the magnitude
    of the result instead of near [n]!.
    """
    if k < 0 or n < 0:
        raise DomainError("n and k must be nonnegative")
    if k > n:
        raise DomainError(f"k={k} exceeds n={n}")
    if pq.is_exact:
        return pq_factorial(n, pq) / (pq_factorial(k, pq) * pq_factorial(n - k, pq))
    k = min(k, n - k)
    br = _brackets(n + 1, pq.p, pq.q)
    acc = 1.0
    for i in range(k):
        acc *= br[n - i] / br[i + 1]
    return acc


def pq_binomial_expand(a: Scalar, b: Scalar, n: int, pq: PQPair) -> Scalar:
    """Expanded form of `pq_power`:

        sum_k [n k] p^{(n-k)(n-k-1)/2} q^{k(k-1)/2} a^{n-k} b^k.

    The triangular power factors are essential: the naive expansion
    without them already contradicts the product definition at n = 2
    ((a+b)(pa+qb) has cross term (p+q)ab, matching [2] ab only with the
    factors p^0 q^0 in place and p a^2, q b^2 on the ends).  Equality
    with `pq_power` is exact in rational arithmetic and is covered by
    the test suite for n <= 12.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    p, q = pq.p, pq.q
    acc = p * 0
    for k in range(n + 1):
        acc = acc + (
            pq_binomial(n, k, pq)
            * p ** ((n - k) * (n - k - 1) // 2)
            * q ** (k * (k - 1) // 2)
            * a ** (n - k)
            * b ** k
        )
    return acc


def pq_integral_unit(f, pq: PQPair, rel_tol: float = 1e-12) -> float:
    """Truncated series for the integral of f over [0, 1]:

        (p - q) * sum_{j>=0} (q^j / p^{j+1}) f(q^j / p^{j+1}),

    the one-node case a = 0, b = 1 of `truncated_series` (same stop rule,
    same ConvergenceError).  f must be evaluable on [0, 1/p].
    """
    return float(truncated_series(f, np.zeros(1), np.ones(1), pq, rel_tol)[0])


def kantorovich_node(k: int, t: Scalar, params: OperatorParams, pq: PQPair) -> Scalar:
    """Integration-node map ((1-t) [k] + [k+1] t + alpha) b_n / ([n+1] + beta).

    Affine in t; for 0 <= k <= n+m and t in [0, 1/p] the values stay in
    [0, node_hull_max].
    """
    if not (0 <= k <= params.degree):
        raise DomainError(f"k={k} outside 0..{params.degree}")
    num = (1 - t) * pq_integer(k, pq) + pq_integer(k + 1, pq) * t + params.alpha
    return num * params.b_n / (pq_integer(params.n + 1, pq) + params.beta)


def apply_classical_reference(f: FunctionHandle, x, params: OperatorParams) -> float:
    """Independent classical-limit oracle (p = q = 1 throughout).

    Bernstein weights C(n+m, k) s^k (1-s)^{n+m-k}, node map
    (k + t + alpha) b_n / (n+1+beta), and plain Riemann integrals over
    [0, 1]: power rule for polynomial f, adaptive quadrature otherwise.
    Shares no code with the (p,q) evaluation path.
    """
    if not (0 <= x <= params.b_n):
        raise DomainError(f"x={x} outside [0, b_n] with b_n={params.b_n}")
    s = float(x / params.b_n)
    deg = params.degree
    alpha = float(params.alpha)
    scale = float(params.b_n) / (params.n + 1 + float(params.beta))
    total = 0.0
    for k in range(deg + 1):
        wk = math.comb(deg, k) * s ** k * (1.0 - s) ** (deg - k)
        if wk == 0.0:
            continue
        a_k = (k + alpha) * scale
        b_k = scale
        if f.polynomial_coeffs is not None:
            val = 0.0
            for u, c in enumerate(f.polynomial_coeffs):
                if c == 0:
                    continue
                val += float(c) * sum(
                    math.comb(u, j) * a_k ** (u - j) * b_k ** j / (j + 1)
                    for j in range(u + 1)
                )
        else:
            val, _err = quad(lambda t: float(f.evaluator(a_k + b_k * t)),
                             0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += wk * val
    return total


# The exact direct sums on object arrays of Fractions, as the package ran
# them before its exact vectors became integer numerators over one
# denominator (`operators.Scaled`).  Every value is a Fraction.

def node_affine_fractions(params: OperatorParams, pq: PQPair):
    """(A, B) with node_k(t) = A[k] + B[k] t, object arrays of Fractions."""
    br = np.asarray(_brackets(params.degree + 2, pq.p, pq.q))
    scale = Fraction(params.b_n) / (br[params.n + 1] + Fraction(params.beta))
    a = (br[: params.degree + 1] + Fraction(params.alpha)) * scale
    b = (br[1: params.degree + 2] - br[: params.degree + 1]) * scale
    return a, b


def monomial_terms_fractions(deg: int, a, b, pq: PQPair) -> list:
    """T_u, the integral of (A + B t)^u over [0,1] against d_pq t, for
    u <= deg, via the monomial rule."""
    mono = [Fraction(pq_integral_monomial(j, pq)) for j in range(deg + 1)]
    terms = []
    for u in range(deg + 1):
        term = np.zeros_like(a)
        for j in range(u + 1):
            term += math.comb(u, j) * a ** (u - j) * b ** j * mono[j]
        terms.append(term)
    return terms


def poly_integrals_fractions(coeffs, terms: list):
    """sum_u c_u T_u over the nonzero c_u, in order."""
    out = np.zeros_like(terms[0])
    for c, term in zip(coeffs, terms):
        if c != 0:
            out += Fraction(c) * term
    return out


def weights_exact_fractions(degree: int, pq: PQPair, s: Fraction, mode: str) -> list:
    """Weights from the literal product definition, as prefix products of
    the brackets and of the factors p^j - q^j s."""
    factorials = [Fraction(1)]
    for bracket in _brackets(degree + 1, pq.p, pq.q)[1:]:
        factorials.append(factorials[-1] * bracket)
    prods = [Fraction(1)]
    for j in range(degree):
        prods.append(prods[-1] * (pq.p ** j - pq.q ** j * s))
    out = []
    for k in range(degree + 1):
        binomial = factorials[degree] / (factorials[k] * factorials[degree - k])
        w = binomial * s ** k * prods[degree - k]
        if mode == "normalized":
            w *= pq.p ** ((k * (k - 1) - degree * (degree - 1)) // 2)
        out.append(w)
    return out


def direct_moments_fractions(params: OperatorParams, pq: PQPair, xs) -> list:
    """The five moments by direct summation at every rational x in xs,
    keyed as MOMENT_KEYS, on the object arrays above."""
    a, b = node_affine_fractions(params, pq)
    terms = monomial_terms_fractions(2, a, b, pq)
    out = []
    for x in xs:
        w = weights_exact_fractions(params.degree, pq, x / params.b_n, params.mode)
        x = Fraction(x)
        central = [poly_integrals_fractions(c, terms) for c in ((-x, 1), (x * x, -2 * x, 1))]
        out.append(dict(zip(MOMENT_KEYS, [Fraction(np.dot(w, v)) for v in terms + central])))
    return out
