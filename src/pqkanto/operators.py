"""Kantorovich-type positive linear operators on [0, b_n].

The central operator maps f to

    sum_{k=0}^{n+m} w_k(x/b_n) * integral_0^1 f(node_k(t)) d_pq t,

with basis weights

    w_k(s) = [n+m k] s^k prod_{j=0}^{n+m-k-1} (p^j - q^j s)        (literal)

and integration nodes

    node_k(t) = ((1-t) [k] + [k+1] t + alpha) b_n / ([n+1] + beta).

The literal weights do not sum to one for p < 1 (already at n+m = 2,
p = 0.9, q = 0.8, s = 0.5 the sum is 0.925).  `normalized` mode rescales
weight k by p^{k(k-1)/2 - (n+m)(n+m-1)/2}, which restores the partition
of unity exactly; it is the default because constants are then
reproduced, the property every error bound here relies on.

Key computational identity: the normalized weights coincide with the
one-parameter basis at ratio r = q/p,

    w_k(s) = [n+m k]_r s^k prod_{j<n+m-k} (1 - r^j s),

whose factors are all in [0, 1]; the float path evaluates this form, so
weights stay overflow-free up to n+m ~ 1000 (the (p,q)-binomial itself
tops out near C(1000, 500) ~ 1e299).  Past that, as q/p -> 1, the
r-binomials overflow and the operator raises DomainError, before any
inner integral, instead of returning a non-finite value.  A block of
rows takes s^k only below its cut, the first k with s^k < 2^-1100 at the
block's largest s (every s is in [0, 1]).  Past it the exact s^k is over
0.99 ulp below the least subnormal 2^-1074, so pow would return +0.0, the
block's fill: its slow underflow path is skipped and every bit is kept.

Evaluation is a weight matrix times inner-integral vectors.
`operator_profile` takes any number of handles and x-grid points: it
builds the node map and each handle's inner integrals once, and the
weights once per block of x-grid rows, shared by every handle and by the
float direct sums of `moments`, each block taken by one `_contract` call.
`apply_operator` is its one-point, one-handle case.

Inner integrals, one path per integrand and regime:

  * polynomial f, any regime: exact monomial rule;
  * p = q = 1: piecewise-linear f exactly (trapezoids), else the handle's
    integral hook when it carries one (every builtin does), else fixed
    64-point Gauss-Legendre quadrature, the one path for such a handle;
  * p = q < 1: RegimeError for anything but polynomials;
  * q < p, piecewise-linear f: exact geometric tail sums;
  * q < p, general f: the series (p - q) sum_j t_j f(A + B t_j),
    t_j = (q/p)^j / p.  Its truncated sum needs at least
    `predicted_terms` = ceil(ln(rel_tol) / ln(q/p)) terms, about 72k at
    n = 50 on the default sequence.  When that count exceeds EM_MIN_TERMS
    and the handle declares its kinks (`FunctionHandle.kinks`, empty for
    smooth f) and carries an integral hook, the series is evaluated by
    Gregory's form of the Euler-Maclaurin formula, with direct sums over a
    window of nodes around each kink; its error estimate must reach
    rel_tol times the value, node by node.  Every other case, and every
    node the Euler-Maclaurin path cannot certify, takes the truncated sum.

ConvergenceError is raised at once, before f is evaluated, when the
truncated sum would need more than TERM_CAP terms, and otherwise when it
reaches TERM_CAP without meeting its stop rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, RegimeError
from .functions import _EPS, FunctionHandle, PiecewiseLinear
from .pq_calculus import (
    PQPair,
    Scalar,
    _brackets,
    _store_fractions,
    pq_integral_monomial,
    predicted_terms,
    truncated_series,
)

MODES = ("literal", "normalized")


@dataclass(frozen=True)
class OperatorParams:
    """Full parameter set of one operator instance.

    n >= 1 is the principal degree, m >= 0 extends the summation range,
    (alpha, beta) with 0 <= alpha <= beta shift the nodes, b_n > 0 scales
    [0, 1] up to [0, b_n].  Integer alpha, beta, m are the documented
    regime; real values are accepted as a superset, rational ones are
    stored as Fractions.  `mode` selects the basis normalization.
    """

    n: int
    m: int = 0
    alpha: Scalar = 0.0
    beta: Scalar = 0.0
    b_n: Scalar = 1.0
    mode: str = "normalized"

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not (isinstance(self.m, int) and self.m >= 0):
            raise DomainError(f"m must be a nonnegative integer, got {self.m}")
        if not (0 <= self.alpha <= self.beta):
            raise DomainError(
                f"require 0 <= alpha <= beta, got alpha={self.alpha}, beta={self.beta}"
            )
        if not self.b_n > 0:
            raise DomainError(f"b_n must be positive, got {self.b_n}")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        _store_fractions(self, "alpha", "beta", "b_n")

    @property
    def degree(self) -> int:
        """Summation range n + m."""
        return self.n + self.m

    def is_exact(self, pq: PQPair) -> bool:
        return pq.is_exact and all(
            isinstance(v, Rational) for v in (self.alpha, self.beta, self.b_n)
        )


class Scaled(NamedTuple):
    """An exact vector: Python-int numerators over one int denominator."""
    nums: List[int]
    den: int


def _scaled(values: Sequence[Fraction]) -> Scaled:
    """Rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return Scaled([v.numerator * (den // v.denominator) for v in values], den)


def _check_x(params: OperatorParams, x: Scalar) -> Scalar:
    if not (0 <= x <= params.b_n):
        raise DomainError(f"x={x} outside [0, b_n] with b_n={params.b_n}")
    return x / params.b_n


def _check_xs(params: OperatorParams, xs: Sequence[Scalar]) -> np.ndarray:
    """`_check_x` on a sequence by one comparison; x / b_n in its types."""
    xa = np.asarray(xs)
    inside = np.asarray((0 <= xa) & (xa <= params.b_n), dtype=bool)
    if not inside.all():
        raise DomainError(f"x={xs[int(inside.argmin())]} outside [0, b_n] with b_n={params.b_n}")
    return xa / params.b_n


def _weight_factors(degree: int, pq: PQPair, mode: str) -> Tuple[np.ndarray, ...]:
    """`_weights_float`'s x-free factors: [N k]_r, r^j (j < N), literal's p-factor or None."""
    p = float(pq.p)
    r = float(pq.q) / p
    if r == 1.0:
        brackets = np.arange(1, degree + 1, dtype=float)
    else:
        # [k]_r = (r^k - 1)/(r - 1) via expm1/log1p: r - 1 is exact for r in
        # [0.5, 1], while 1 - r**k cancels as r -> 1 (weights off by ~1e-12).
        # Below r ~ 2^-54, r - 1 rounds to -1, where log1p has no value.
        d = r - 1.0
        log_r = math.log1p(d) if d > -1.0 else math.log(r)
        brackets = np.expm1(np.arange(1, degree + 1) * log_r) / d
    binoms = np.ones(degree + 1)
    np.cumprod(brackets[::-1] / brackets, out=binoms[1:])  # [N-i]_r / [i+1]_r
    ks = np.arange(degree + 1)
    return binoms, r ** ks[:-1], (p ** ((degree * (degree - 1) - ks * (ks - 1)) / 2.0)
                                  if mode == "literal" else None)


def _weights_float(x_norm: np.ndarray, binoms: np.ndarray, r_powers: np.ndarray,
                   literal: Optional[np.ndarray]) -> np.ndarray:
    """Float basis weights at every normalized point of x_norm, one row per
    point; each row takes the same float operations as a single point.  s^k
    is taken below the block's cut (module docstring), and is +0.0 past it."""
    s = x_norm[:, None]
    prefix = np.ones((len(s), len(binoms)))
    np.cumprod(1.0 - r_powers * s, axis=1, out=prefix[:, 1:])
    top = float(x_norm.max())
    cut = (len(binoms) if top == 1.0 or np.signbit(x_norm).any() else 1 if top == 0.0
           else min(len(binoms), math.floor(-1100.0 / math.log2(top)) + 1))
    w = np.zeros_like(prefix)
    np.power(s, np.arange(cut), out=w[:, :cut])
    w *= binoms  # binoms * s^k * prefix * literal, in order and at full width:
    w *= prefix[:, ::-1]  # an overflowed binomial times a skipped 0.0 stays nan
    if literal is not None:
        w *= literal
    return w


#: Weight entries per block of x-grid rows in `_weight_blocks` (64 KB of
#: float64); larger blocks at high degree only add memory.
WEIGHT_BLOCK = 8192


def _weight_blocks(params: OperatorParams, pq: PQPair,
                   xs: Sequence[Scalar]) -> Iterator[Tuple[slice, np.ndarray]]:
    """Float basis weights at every x in xs as pairs (a slice of xs, its
    rows), blocks of at most WEIGHT_BLOCK entries.  Every x is checked at
    the call; the x-free factors (once) and each block are built only as
    the iteration reaches them, under the caller's np.errstate."""
    x_norm = np.asarray(_check_xs(params, xs), dtype=float)
    rows = max(1, WEIGHT_BLOCK // (params.degree + 1))

    def blocks():
        factors = _weight_factors(params.degree, pq, params.mode)
        for start in range(0, len(x_norm), rows):
            yield slice(start, start + rows), _weights_float(x_norm[start:start + rows], *factors)
    return blocks()


def _blocks_and_integrals(handles: Optional[Sequence[FunctionHandle]], params: OperatorParams,
                          pq: PQPair, xs: Sequence[Scalar], rel_tol: float):
    """(`_weight_blocks` of xs, A, B, each handle's inner integrals as rows), under the
    caller's np.errstate.  Weights that overflow raise before any inner integral: the
    binomials that overflow do not depend on x, so the first block decides.  handles None
    (no operator values) takes no integrals and leaves every check to the caller."""
    blocks = _weight_blocks(params, pq, xs)
    first = list(itertools.islice(blocks, 1))
    if handles is not None and first and not np.isfinite(first[0][1]).all():
        raise _not_finite("operator value is", params.degree, first[0][1])
    a, b = _node_affine(params, pq)
    integrals = [_inner_integrals(f, a, b, pq, rel_tol) for f in handles or ()]
    return itertools.chain(first, blocks), a, b, np.reshape(integrals, (len(integrals), len(a)))


def _contract(w: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rows of w (R, K) dotted with shared (H, K) or per-row (R, H, K) vectors
    as (R, H), with `np.dot`'s bits: matmul runs its 1-D loop (tests pin it)."""
    return np.matmul(w[:, None, None, :], vectors[..., None])[..., 0, 0]


def _not_finite(what: str, degree: int, weights: np.ndarray) -> DomainError:
    cause = ("the inner integrals are not finite" if np.isfinite(weights).all()
             else "the float basis weights overflow past degree ~1030")
    return DomainError(f"{what} not finite at degree n+m = {degree}: {cause}")


def _weights_exact(degree: int, pq: PQPair, s: Fraction, mode: str) -> Scaled:
    """Exact weights from the literal product definition (module docstring),
    the independent check of the r-form the float path evaluates.  With
    p = P/D, q = Q/D, s = S/T and [k] = N_k / D^{k-1} (N_k: the brackets of
    the integers P, Q), weight k is N_1..N_N // (N_1..N_k N_1..N_{N-k}) S^k
    prod_{j<N-k} (P^j T - Q^j S) / (T^N D^{e_k}), e_k = (N(N-1) - k(k-1))/2;
    normalized mode turns D^{e_k} into P^{e_k}."""
    (big_p, big_q), d = _scaled([pq.p, pq.q])
    top, bottom = s.numerator, s.denominator
    factorials = [1]
    for bracket in _brackets(degree + 1, big_p, big_q)[1:]:
        factorials.append(factorials[-1] * bracket)
    prods = [1]
    for j in range(degree):
        prods.append(prods[-1] * (big_p ** j * bottom - big_q ** j * top))
    base = big_p if mode == "normalized" else d
    nums = [factorials[degree] // (factorials[k] * factorials[degree - k]) * top ** k
            * prods[degree - k] * base ** (k * (k - 1) // 2) for k in range(degree + 1)]
    return Scaled(nums, bottom ** degree * base ** (degree * (degree - 1) // 2))


def basis_weights(params: OperatorParams, pq: PQPair,
                  x: Scalar) -> Union[np.ndarray, List[Fraction]]:
    """Basis weights at x in [0, b_n], in the mode set on `params`; entry k
    multiplies node integral k.

    A list of Fractions from exact rational arithmetic when every input is
    rational, else the float row the operator uses at x.  Normalized
    weights are nonnegative and sum to 1; literal weights are nonnegative
    only.  Raises DomainError when a float weight is not finite (past
    degree ~1030 as q/p -> 1).
    """
    if params.is_exact(pq) and isinstance(x, Rational):
        exact = _weights_exact(params.degree, pq, _check_x(params, x), params.mode)
        return [Fraction(v, exact.den) for v in exact.nums]
    blocks = _weight_blocks(params, pq, [x])
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        w = next(blocks)[1][0]
    if not np.isfinite(w).all():
        raise _not_finite("basis weights are", params.degree, w)
    return w


def node_hull_max(params: OperatorParams, pq: PQPair) -> float:
    """Upper end of the interval containing every argument f sees inside
    the operator: ([n+m+1]/p + alpha) b_n / ([n+1] + beta).  (The series
    integral samples t up to 1/p.)  Raises DomainError when a float
    [n+1] + beta underflows to 0."""
    br = _brackets(params.degree + 2, pq.p, pq.q)
    top = br[params.degree + 1] / pq.p + params.alpha
    den = br[params.n + 1] + params.beta
    if den == 0:
        raise DomainError(f"[n+1] + beta underflows to 0 at p={pq.p}, q={pq.q}")
    return float(top * params.b_n / den)


def _node_affine(params: OperatorParams, pq: PQPair) -> Tuple[np.ndarray, np.ndarray]:
    """(A, B) with node_k(t) = A[k] + B[k] t, as float arrays whatever
    scalars params and pq hold."""
    deg = params.degree
    # Python floats: the same IEEE operations as numpy, less overhead
    br = np.array(_brackets(deg + 2, float(pq.p), float(pq.q)))
    scale = float(params.b_n) / (br[params.n + 1] + float(params.beta))
    a = (br[: deg + 1] + float(params.alpha)) * scale
    b = (br[1: deg + 2] - br[: deg + 1]) * scale
    return a, b


def _node_numerators(params: OperatorParams, pq: PQPair) -> Tuple[List[int], List[int], int]:
    """The node map of exact inputs: integer numerators of A and B over one
    shared denominator (the brackets [k] = N_k / D^{k-1} of `_weights_exact`,
    over D^{n+m})."""
    deg = params.degree
    (big_p, big_q), d = _scaled([pq.p, pq.q])
    top, alpha, beta, b_n = d ** deg, params.alpha, params.beta, params.b_n
    br = [v * d ** (deg + 1 - k) for k, v in enumerate(_brackets(deg + 2, big_p, big_q))]
    # ([k] + alpha) b_n / ([n+1] + beta) with [k] = br[k] / top, where top cancels
    num = b_n.numerator * beta.denominator
    den = alpha.denominator * b_n.denominator * (br[params.n + 1] * beta.denominator
                                                  + beta.numerator * top)
    a = [(v * alpha.denominator + alpha.numerator * top) * num for v in br[:deg + 1]]
    b = [(v1 - v0) * alpha.denominator * num for v0, v1 in zip(br, br[1:])]
    return a, b, den


def _monomial_terms(deg: int, a: np.ndarray, b: np.ndarray, pq: PQPair) -> List[np.ndarray]:
    """T_u, the integral of (A + B t)^u over [0,1] against d_pq t, for
    u <= deg, via the monomial rule (integral of t^j is 1/[j+1])."""
    mono = [float(pq_integral_monomial(j, pq)) for j in range(deg + 1)]
    terms = []
    for u in range(deg + 1):
        term = np.zeros_like(a)
        for j in range(u + 1):
            term += math.comb(u, j) * a ** (u - j) * b ** j * mono[j]
        terms.append(term)
    return terms


def _poly_integrals(coeffs: Sequence[Scalar], terms: List[np.ndarray]) -> np.ndarray:
    """Integrals of sum_u c_u (A + B t)^u: sum_u c_u T_u over the nonzero
    c_u, in order (see `_monomial_terms`)."""
    out = np.zeros_like(terms[0])
    for c, term in zip(coeffs, terms):
        if c != 0:
            out += float(c) * term
    return out


#: Series integrals of handles with known kinks take the Euler-Maclaurin
#: path when `predicted_terms` exceeds this; shorter series are summed.
EM_MIN_TERMS = 4096

#: Gregory coefficients: sum_{j>=0} G_j = (1/h) int_0^inf G(u) du
#: + sum_i GREGORY[i] Delta^i G_0 for G_j = G(j h).  The last one only
#: estimates the error of the terms before it.
GREGORY = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480,
           275 / 24192, -33953 / 3628800)

#: Nodes summed directly on each side of a kink.
KINK_WINDOW = 256


def _log_product(p: float, tau: float) -> float:
    """ln(p tau) for p, tau > 0, as ln p + ln tau only where p tau underflows to 0."""
    return math.log(p * tau) if p * tau != 0.0 else math.log(p) + math.log(tau)


def _series_integrals(f: FunctionHandle, a: np.ndarray, b: np.ndarray,
                      pq: PQPair, rel_tol: float) -> np.ndarray:
    """Series integrals of f(A_k + B_k t) for every k, q < p.

    Handles that declare their kinks and carry an integral hook take the
    Euler-Maclaurin path when the truncated sum would need more than
    EM_MIN_TERMS terms; a node whose error estimate there exceeds rel_tol
    times its value falls back to `truncated_series`, which raises
    ConvergenceError at once when its predicted term count exceeds TERM_CAP.
    """
    if f.kinks is None or f.integral is None or predicted_terms(pq, rel_tol) <= EM_MIN_TERMS:
        return truncated_series(f, a, b, pq, rel_tol)
    values, err = _euler_maclaurin(f, a, b, pq)
    bad = ~(err <= rel_tol * np.abs(values))
    if np.any(bad):
        values[bad] = truncated_series(f, a[bad], b[bad], pq, rel_tol)
    return values


def _euler_maclaurin(f: FunctionHandle, a: np.ndarray, b: np.ndarray,
                     pq: PQPair) -> Tuple[np.ndarray, np.ndarray]:
    """Series integrals and their error estimates by Gregory's form of the
    Euler-Maclaurin formula; f must declare its kinks and carry an integral hook.

    With r = q/p, h = -ln r and G(u) = e^{-u} f(A + B e^{-u}/p), the
    series (p - q) sum_j t_j f(A + B t_j) is (1 - r) sum_j G(j h).  On a
    range of j where G is smooth,

        sum_{j=s}^{e} G_j = (p/h) int_{t_e}^{t_s} f(A + B t) dt
                            + sum_i GREGORY[i] (Delta^i G_s + (-1)^i nabla^i G_e),

    with no e-terms for e = inf, and the integral and its rounding estimate
    from the handle's hook.  A kink at t = tau in (0, 1/p] (or up to
    KINK_WINDOW nodes beyond 1/p) sits at j* = -ln(p tau)/h; the nodes
    within KINK_WINDOW of j* are summed directly and the smooth ranges on
    either side get Gregory ends.  The error estimate adds the first
    omitted Gregory term, the integral's estimate and a rounding floor of
    one ulp.
    """
    p = float(pq.p)
    one_minus_r = (p - float(pq.q)) / p
    h = -math.log1p(-one_minus_r)
    total = np.zeros_like(a)
    err = np.zeros_like(a)
    kinked = {}
    if f.kinks:
        tau = (np.asarray(f.kinks, dtype=float)[:, None] - a[None, :]) / b[None, :]
        near = (tau > 0) & (tau <= np.exp(KINK_WINDOW * h) / p)
        for i, k in zip(*np.nonzero(near)):
            kinked.setdefault(int(k), []).append(-_log_product(p, tau[i, k]) / h)
    smooth = np.ones(len(a), dtype=bool)
    smooth[list(kinked)] = False
    if np.any(smooth):
        total[smooth], err[smooth] = _gregory_segment(f, a[smooth], b[smooth], p, h, 0, None)
    for k, jstars in kinked.items():
        total[k], err[k] = _kinked_node(f, a[k:k + 1], b[k:k + 1], p, h, jstars)
    return one_minus_r * total, one_minus_r * err


def _kinked_node(f: FunctionHandle, a: np.ndarray, b: np.ndarray, p: float,
                 h: float, jstars: List[float]) -> Tuple[float, float]:
    """sum_j G_j and its error estimate for one node (1-element a, b) with
    kinks at the real indices jstars: direct sums over the windows, Gregory
    segments over the gaps (each at least len(GREGORY) nodes long)."""
    ends = len(GREGORY)
    windows: List[List[int]] = []
    for js in sorted(jstars):
        lo = max(0, math.floor(js) - KINK_WINDOW)
        hi = math.floor(js) + KINK_WINDOW + 1
        if lo < ends:
            lo = 0
        if windows and lo < windows[-1][1] + ends:
            windows[-1][1] = max(windows[-1][1], hi)
        else:
            windows.append([lo, hi])
    total, err = 0.0, 0.0
    for lo, hi in windows:
        e = np.exp(-np.arange(lo, hi) * h)
        total += float(e @ f(a[0] + b[0] / p * e))
    starts = [0] + [hi for _lo, hi in windows]
    stops = [lo - 1 for lo, _hi in windows] + [None]
    for s, stop in zip(starts, stops):
        if stop is None or stop >= s:
            seg, seg_err = _gregory_segment(f, a, b, p, h, s, stop)
            total += float(seg[0])
            err += float(seg_err[0])
    return total, err


def _gregory_segment(f: FunctionHandle, a: np.ndarray, b: np.ndarray,
                     p: float, h: float, start: int,
                     stop: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{j=start}^{stop} G_j (stop None: to infinity) for every node,
    with its error estimate, by Gregory's formula (see `_euler_maclaurin`)."""
    t_hi = math.exp(-start * h) / p
    t_lo = 0.0 if stop is None else math.exp(-stop * h) / p
    integral, err = f.integral(a, b, t_lo, t_hi)
    main = (p / h) * integral
    err = (p / h) * err
    corr = np.zeros_like(a)
    steps = np.arange(len(GREGORY))
    for js in [start + steps] + ([] if stop is None else [stop - steps]):
        e = np.exp(-js * h)
        diffs = e * f(a[:, None] + b[:, None] / p * e[None, :])
        for g in GREGORY[:-1]:
            corr += g * diffs[:, 0]
            diffs = diffs[:, 1:] - diffs[:, :-1]
        err += np.abs(GREGORY[-1] * diffs[:, 0])
    total = main + corr
    return total, err + _EPS * (np.abs(main) + np.abs(corr))


@functools.cache
def _gl_rule() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-point Gauss-Legendre rule on [0, 1], built
    at first use, so that importing the package loads no numpy.polynomial."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _gl_integrals(f: FunctionHandle, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Classical integrals of f(A_k + B_k t) over [0,1] by 64-point
    Gauss-Legendre; exact to machine precision for smooth f (the p = q = 1
    path of a handle with no other description)."""
    t, w = _gl_rule()
    return f(a[:, None] + b[:, None] * t[None, :]) @ w


def _pl_edges(pl: PiecewiseLinear, a: np.ndarray, b: np.ndarray,
              t_end: float) -> np.ndarray:
    """Piece edges of f(A + Bt) on [0, t_end], one ascending row per node:
    0, the cut points tau = (x_k - A)/B in (0, t_end) over the interior
    breakpoints x_k, and t_end, where cuts out of range (and every cut of
    a node with B = 0) become t_end."""
    kinks = np.asarray(pl.xs[1:], dtype=float)
    tau = np.divide(kinks[None, :] - a[:, None], b[:, None],
                    out=np.full((len(a), len(kinks)), t_end), where=b[:, None] != 0.0)
    cuts = np.sort(np.where((tau > 0.0) & (tau < t_end), tau, t_end), axis=1)
    return np.hstack([np.zeros((len(a), 1)), cuts, np.full((len(a), 1), t_end)])


def _sum_pieces(pieces: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Row sums of the pieces between neighbouring edges, column by column
    from the left.  A piece between equal edges (a repeated cut, or
    padding) adds +0.0, which leaves any sum that starts from +0.0
    unchanged, whatever its own value."""
    total = np.zeros(len(pieces))
    for column in np.where(edges[:, 1:] != edges[:, :-1], pieces, 0.0).T:
        total += column
    return total


def _pl_integrals_classical(pl: PiecewiseLinear, a: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
    """Exact classical integral of the piecewise-linear f(A + Bt) on [0,1]:
    trapezoid rule over the affine pieces, summed upward from t = 0, for
    every node at once."""
    edges = _pl_edges(pl, a, b, 1.0)
    g = pl(a[:, None] + b[:, None] * edges)
    pieces = 0.5 * (g[:, :-1] + g[:, 1:]) * (edges[:, 1:] - edges[:, :-1])
    return _sum_pieces(pieces, edges)


def _pl_integrals_strict(pl: PiecewiseLinear, a: np.ndarray, b: np.ndarray,
                         pq: PQPair) -> np.ndarray:
    """Exact series integral of piecewise-linear f(A + Bt) for q < p.

    The series is a point mass sum over nodes t_j = (q/p)^j / p.  On any
    node range where the integrand is affine a' + b' t, the partial sums
    are geometric:

        sum_{j>=J} (p-q) t_j       = r^J            (r = q/p)
        sum_{j>=J} (p-q) t_j^2     = r^{2J} / (p+q)

    so splitting at the kinks gives the exact value, however slowly the
    series converges.  All nodes are done at once, one array pass per
    piece, the pieces summed from t = 1/p downward.  Only the cuts inside
    (0, 1/p) need J, the count of nodes t_j above them, and its sums;
    they take `math.log` and Python powers, one cut at a time, since
    numpy's vector log and power can differ from them in the last bit.
    """
    p = float(pq.p)
    q = float(pq.q)
    r = q / p
    t_max = 1.0 / p
    log_r = math.log(r)
    edges = _pl_edges(pl, a, b, t_max)[:, ::-1]
    # r^J and r^{2J}/(p+q) at each edge: J = 0 at t = 1/p, no node below t = 0
    top = edges == t_max
    s0, s1 = np.where(top, 1.0, 0.0), np.where(top, 1.0 / (p + q), 0.0)
    cuts = (edges > 0.0) & ~top
    counts = [max(0, math.ceil(_log_product(p, tau) / log_r)) for tau in edges[cuts].tolist()]
    s0[cuts] = [r ** j for j in counts]
    s1[cuts] = [r ** (2 * j) / (p + q) for j in counts]
    icpt, slope = pl.piece_at(a[:, None] + b[:, None] * 0.5 * (edges[:, :-1] + edges[:, 1:]))
    ga = icpt + slope * a[:, None]
    gb = slope * b[:, None]
    pieces = ga * (s0[:, :-1] - s0[:, 1:]) + gb * (s1[:, :-1] - s1[:, 1:])
    return _sum_pieces(pieces, edges)


def _inner_integrals(f: FunctionHandle, a: np.ndarray, b: np.ndarray,
                     pq: PQPair, rel_tol: float) -> np.ndarray:
    if f.polynomial_coeffs is not None:
        coeffs = f.polynomial_coeffs
        return _poly_integrals(coeffs, _monomial_terms(len(coeffs) - 1, a, b, pq))
    if pq.is_classical:
        if f.piecewise_linear is not None:
            return _pl_integrals_classical(f.piecewise_linear, a, b)
        return _gl_integrals(f, a, b) if f.integral is None else f.integral(a, b, 0.0, 1.0)[0]
    if not pq.is_strict:
        raise RegimeError(
            "p = q < 1 supports only polynomial integrands (monomial rule); "
            "general integration needs q < p or p = q = 1"
        )
    if f.piecewise_linear is not None:
        return _pl_integrals_strict(f.piecewise_linear, a, b, pq)
    return _series_integrals(f, a, b, pq, rel_tol)


def apply_operator(f: FunctionHandle, x: Scalar, params: OperatorParams,
                   pq: PQPair, rel_tol: float = 1e-12) -> float:
    """Evaluate the operator at x in [0, b_n]: `operator_profile` at one
    point for one handle.

    Requires q < p, p = q = 1, or a polynomial f (any regime).  Linear,
    positive, and monotone in f; reproduces constants exactly in
    normalized mode.
    """
    return float(operator_profile(f, params, pq, [x], rel_tol)[0])


def operator_profile(fs: Union[FunctionHandle, Sequence[FunctionHandle]],
                     params: OperatorParams, pq: PQPair, xs: Sequence[Scalar],
                     rel_tol: float = 1e-12) -> np.ndarray:
    """Operator values of one handle, or of each of a sequence of handles,
    at every x in xs (each within [0, b_n]).

    Returns a 1-D array for one handle, else one row per handle.  The node
    map and each handle's inner integrals are built once; the weights come
    from `_weight_blocks` (as for the float direct sums), one block of
    x-grid rows at a time (the first before the integrals), and one
    `_contract` call per block meets every handle, so a value does not
    depend on the grid, the block or the other handles.

    Raises DomainError, not a numpy warning, when a value is not finite;
    it blames the weights (past degree ~1030 as q/p -> 1) only if they are,
    and then before any inner integral is computed.
    """
    single = isinstance(fs, FunctionHandle)
    handles = [fs] if single else list(fs)
    out = np.empty((len(handles), len(xs)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # raised below instead
        blocks, _a, _b, integrals = _blocks_and_integrals(handles, params, pq, xs, rel_tol)
        for block, w in blocks:
            out[:, block] = _contract(w, integrals).T
            if not np.isfinite(out[:, block]).all():
                raise _not_finite("operator value is", params.degree, w)
    return out[0] if single else out


def apply_extended(f: FunctionHandle, x: Scalar, params: OperatorParams,
                   pq: PQPair, rel_tol: float = 1e-12) -> float:
    """Extension to [0, inf): operator value on [0, b_n], f(x) beyond.

    x = b_n takes the operator branch (boundary convention).  Raises
    DomainError where f(x) is past the float range.
    """
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if x > params.b_n:
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
            value = float(f.evaluator(float(x)))
        if not math.isfinite(value):
            raise DomainError(f"{f.name}(x) is past the float range at x={x}")
        return value
    return apply_operator(f, x, params, pq, rel_tol)
