"""Moduli of smoothness and rate-of-convergence bound reports.

Three bounds are evaluated per point:

  * Lipschitz bound   M * central2^{gamma/2}       for f in Lip_M(gamma),
  * modulus bound     2 * omega(f, sqrt(central2)),
  * two-term smoothness pair (omega_2(f, sqrt(peetre_arg)),
    omega(f, |bias|)) whose bound carries an unspecified constant and is
    therefore reported without a total.

central2 is always the direct-summation second central moment, taken at
every point of the grid by one call.  The first two bounds are proven
inequalities for a positive operator that reproduces constants, so with
exact moduli they must hold at every point; `holds_*` flags assert
exactly that and are set only when the first modulus comes from global
exact metadata, not from a modulus over the hull.

Moduli are measured over the node hull [0, node_hull_max], which is not
where the operator reads f: for p < 1 the nodes reach past it (bounds-grid's
setting 0 reads f up to 5.42 against 1.527), and for p < 1/2 below 0
(ROADMAP.md, item 8, mends it).  `_Moduli` is the one routine for both orders.

Every modulus is exact, from the handle's structure, and f itself is never
sampled.  omega_1 comes from `exact_modulus` (over [0, inf)), else over the
domain for a polynomial of degree <= 2 (square; `_quadratic_modulus`).
omega_2 over the domain comes from `exact_second_modulus` (const1, id,
square, sin, lip; `lip_handle` has the proof), else for a piecewise-linear
handle (absdev, bump; `_pl_second_modulus`).  A delta that none of them
answers, and a delta or a modulus that is not finite, raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .functions import FunctionHandle
from .moments import _direct_moments, peetre_bound_args
from .operators import WEIGHT_BLOCK, OperatorParams, node_hull_max
from .pq_calculus import PQPair

#: Multiplicative and additive slack when asserting a proven bound in floats.
HOLDS_RTOL = 1e-9
HOLDS_ATOL = 1e-12

#: Work (candidate rows times their kink terms) that the piecewise-linear
#: omega_2 may spend on one delta: about K^4 for K kinks inside the domain,
#: which 40 kinks stay under at any delta.
PL_MAX_WORK = 2 ** 23


def _pl_second_modulus(f: FunctionHandle, deltas: Sequence[float], lo: float,
                       hi: float) -> List[float]:
    """omega_2 over [lo, hi] of piecewise-linear f = affine + sum c_k (x - k)_+
    (kinks k inside) at every delta: Delta^2_h f(x) = sum c_k max(0, h - |x + h - k|)
    peaks at x = k - c h (c = 0, 1, 2) or an end, piecewise linearly in h with breaks
    (k' - k)/j, (k - lo)/j, (hi - k)/j (j = 1, 2); a delta tries those up to its
    cap and the cap, every delta's rows in one pass.  DomainError for a delta
    whose rows cost more than PL_MAX_WORK."""
    xs = np.asarray(f.piecewise_linear.xs, dtype=float)
    inside = (xs[1:] > lo) & (xs[1:] < hi)
    k, c = xs[1:][inside], np.diff(f.piecewise_linear.piece_at(xs)[1])[inside]
    caps = np.array([min(delta, (hi - lo) / 2.0) for delta in deltas])
    breaks = np.concatenate([(k[:, None] - k).ravel(), k - lo, hi - k])
    h = np.sort(np.concatenate([breaks, breaks / 2.0]))
    h = h[h > 0]
    below = np.searchsorted(h, caps, side="right")  # a delta's rows: h[:below] and its cap
    costly = (below + 1) * (3 * k.size + 2) * k.size > PL_MAX_WORK
    if costly.any():
        raise DomainError(f"{f.name} has no exact omega_2 at delta {deltas[costly.argmax()]}: "
                          f"its {k.size} kinks in [{lo}, {hi}] are too many for the "
                          "piecewise-linear enumeration")
    top = int(below.max(initial=0))
    h = np.concatenate([h[:top], caps])[:, None]
    x = np.hstack([k - j * h for j in (0.0, 1.0, 2.0)] + [np.full_like(h, lo), hi - 2.0 * h])
    x = np.clip(x, lo, hi - 2.0 * h)
    total = np.zeros_like(x)
    for k_i, c_i in zip(k, c):
        total += c_i * np.maximum(0.0, h - np.abs(x + h - k_i))
    rows = np.abs(total).max(axis=1)  # maxima are exact, in any grouping
    prefix = np.concatenate([[0.0], np.maximum.accumulate(rows[:top])])
    return np.maximum(prefix[below], rows[top:]).tolist()


def _quadratic_modulus(coeffs: Sequence[float], delta: float, lo: float, hi: float) -> float:
    """omega_1 over [lo, hi] of c0 + c1 t + c2 t^2: f(t + h) - f(t) = h (c1 + c2 (2t + h)) is
    affine in t, largest at t = lo or hi - h; in h, at h = min(delta, hi - lo) or a vertex below."""
    c1, c2 = (float(c) for c in (tuple(coeffs) + (0.0,) * 3)[1:3])
    cap = min(delta, hi - lo)
    ends = (lambda h: h * (c1 + c2 * (2.0 * lo + h)), lambda h: h * (c1 + c2 * (2.0 * hi - h)))
    vertices = [-(c1 + 2.0 * c2 * lo) / (2.0 * c2), (c1 + 2.0 * c2 * hi) / (2.0 * c2)] if c2 else []
    return max(abs(end(h)) for end in ends for h in [cap] + [v for v in vertices if 0.0 < v < cap])


class _Moduli:
    """omega_1 and omega_2 of one f over one domain, at any number of deltas:
    `column` makes one call of the exact moduli (module docstring) per delta
    and one array pass of the piecewise-linear omega_2."""

    def __init__(self, f: FunctionHandle, domain: Tuple[float, float]):
        self.f = f
        self.lo, self.hi = domain

    def __call__(self, order: int, delta: float) -> float:
        return self.column(order, [delta])[0]

    def column(self, order: int, deltas: Sequence[float]) -> List[float]:
        """omega_order(f, delta) at every delta of deltas."""
        for delta in deltas:
            if not 0 <= delta < np.inf:
                raise DomainError(f"delta must be finite and nonnegative, got {delta}")
        f, lo, hi = self.f, self.lo, self.hi
        if order == 1 and f.exact_modulus is not None:
            return [float(f.exact_modulus(delta)) for delta in deltas]
        if hi <= lo:
            raise DomainError(f"empty domain [{lo}, {hi}]")
        out = [None if delta else 0.0 for delta in deltas]
        if order == 1 and f.polynomial_coeffs is not None and not any(f.polynomial_coeffs[3:]):
            out = [_quadratic_modulus(f.polynomial_coeffs, delta, lo, hi) for delta in deltas]
        if order == 2 and f.exact_second_modulus is not None:
            out = [f.exact_second_modulus(delta, lo, hi) if best is None else best
                   for delta, best in zip(deltas, out)]
        todo = [delta for delta, best in zip(deltas, out) if best is None]
        if order == 2 and f.piecewise_linear is not None and todo:
            answers = iter(_pl_second_modulus(f, todo, lo, hi))
            out = [next(answers) if best is None else best for best in out]
        elif todo:
            needs = ("exact_modulus or a polynomial of degree <= 2" if order == 1
                     else "exact_second_modulus or piecewise_linear")
            raise DomainError(f"{f.name} has no exact omega_{order} at delta {todo[0]}: "
                              f"bounds needs {needs}")
        for delta, best in zip(deltas, out):
            if not np.isfinite(best):
                raise DomainError(f"modulus of {f.name} overflows at delta {delta}")
        return out


@dataclass(kw_only=True)
class BoundReport:
    """Observed error and every bound quantity at a single point, its
    fields in the order of the `bounds` CSV columns.

    `lipschitz_bound` and `holds_lipschitz` are present only for handles
    carrying a Lipschitz pair; `holds_modulus` only when the modulus is
    exact metadata.  `bias` is signed; |bias| feeds the modulus."""

    x: float
    observed_error: float
    second_central_moment: float
    modulus_at_sqrt_moment: float
    modulus_bound: float
    lipschitz_bound: Optional[float] = None
    peetre_arg: float
    bias: float
    second_modulus_at_sqrt_peetre: float
    modulus_at_abs_bias: float
    holds_lipschitz: Optional[bool] = None
    holds_modulus: Optional[bool] = None


BOUND_CSV_FIELDS = tuple(f.name for f in fields(BoundReport))


def _holds(observed: float, bound: float) -> bool:
    return observed <= bound * (1.0 + HOLDS_RTOL) + HOLDS_ATOL


def bound_reports(f: FunctionHandle, xs, params: OperatorParams, pq: PQPair,
                  rel_tol: float = 1e-12) -> List[BoundReport]:
    """Observed error and all bound quantities at every x in xs (each in
    [0, b_n]).

    Requires normalized mode: the bounds are proved for an operator that
    reproduces constants.  The hull, the operator values with the direct sums
    (one weight build), the Peetre arguments (blocked as the weights) and the
    three moduli columns (two calls) are taken once for the call; they equal
    `apply_operator`, `peetre_bound_args` and the direct-summation c2 of
    `verify_moments` at each x.
    The sqrt argument of the second modulus clamps the printed peetre_arg
    at zero (it is reported unclamped)."""
    if params.mode != "normalized":
        raise DomainError("bound reports require normalized mode")
    domain = (0.0, node_hull_max(params, pq))
    values, direct = _direct_moments(params, pq, xs, f, rel_tol)
    xa, rows = np.asarray(xs), max(1, WEIGHT_BLOCK // (2 * params.degree + 1))
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):  # as Python floats do
        blocks = [peetre_bound_args(params, pq, xa[i:i + rows]) for i in range(0, xa.size, rows)]
    peetre = [[float(v) for block in blocks for v in block[j]] for j in (0, 1)]
    central = [max(float(moments["c2"]), 0.0) for moments in direct]
    deltas = (np.sqrt(central).tolist(), np.sqrt([max(v, 0.0) for v in peetre[0]]).tolist(),
              [abs(bias) for bias in peetre[1]])
    omega = _Moduli(f, domain)
    try:  # both order-1 columns in one call; numpy warnings raise: only the retry shows them
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            first = omega.column(1, deltas[0] + deltas[2])
            points = list(zip([float(f.evaluator(float(x))) for x in xs], first,
                              omega.column(2, deltas[1]), first[len(xs):]))
    except Exception:  # ask again point by point: the error is the first in (x, column) order
        # of a delta that is not finite or that no exact source answers, a modulus
        # that overflows, and an error of f at x or of a closed form
        points = [(float(f.evaluator(float(x))), omega(1, a), omega(2, b), omega(1, c))
                  for x, a, b, c in zip(xs, *deltas)]
    reports = []
    for x, kf, central2, peetre_arg, bias, (fx, om, om2, om_bias) in zip(
            xs, values, central, *peetre, points):
        observed = abs(kf - fx)
        mod_bound = 2.0 * om
        lip_bound = None
        holds_lip = None
        if f.lip is not None:
            m_const, gamma = f.lip
            lip_bound = float(m_const) * central2 ** (float(gamma) / 2.0)
            holds_lip = _holds(observed, lip_bound)
        holds_mod = _holds(observed, mod_bound) if f.exact_modulus is not None else None
        reports.append(BoundReport(
            x=float(x),
            observed_error=observed,
            second_central_moment=central2,
            modulus_at_sqrt_moment=om,
            modulus_bound=mod_bound,
            peetre_arg=peetre_arg,
            bias=bias,
            second_modulus_at_sqrt_peetre=om2,
            modulus_at_abs_bias=om_bias,
            lipschitz_bound=lip_bound,
            holds_lipschitz=holds_lip,
            holds_modulus=holds_mod,
        ))
    return reports

