"""Independent reference implementations that the tests compare against.

Kept out of the package so that importing `pqkanto` does not import scipy.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from pqkanto import DomainError, FunctionHandle, OperatorParams, PQPair
from pqkanto.moments import MOMENT_KEYS
from pqkanto.pq_calculus import _brackets, pq_integral_monomial


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
