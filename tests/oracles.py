"""Independent reference implementations that the tests compare against.

Kept out of the package so that importing `pqkanto` does not import scipy.
"""

import math

from scipy.integrate import quad

from pqkanto import DomainError, FunctionHandle, OperatorParams


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
