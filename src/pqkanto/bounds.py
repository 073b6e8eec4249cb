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
exact metadata: never from a grid estimate (a lower bound of the true
modulus, which could fake a violation), nor from a modulus over the hull.

Moduli are measured over the node hull [0, node_hull_max], which is not
where the operator reads f: for p < 1 the nodes reach past it (bounds-grid's
setting 0 reads f up to 5.42 against 1.527), and for p < 1/2 below 0
(ROADMAP.md, item 8, mends it).  `_Moduli` is the one routine for both orders.

omega_1 over the domain is exact for a polynomial of degree <= 2 without
exact metadata (square; `_quadratic_modulus`).  omega_2 over it is exact for
const1, id, square, sin, lip with its kink in the domain
(`exact_second_modulus`; `lip_handle` has the proof) and for
piecewise-linear handles (absdev, bump; `_pl_second_modulus`).  A grid
estimates omega_2 of lip with its kink outside the domain and omega_r (r =
1, 2) of a handle without such structure.  f is sampled once on the
DOMAIN_STEPS + 1 equally spaced base points x_i of the domain, spacing D =
(hi - lo)/DOMAIN_STEPS, and the estimate is the largest |Delta^r_h f(x_i)|
with x_i + r h in the domain over two kinds of offset h:

  * the grid-aligned offsets h = j D <= delta, j <= k = floor(delta/D),
    read off the base samples alone: for r = 1 the largest max - min over
    windows of k + 1 consecutive samples; for r = 2 a table of the
    per-offset maxima, prefix-maximised over j, which answers every delta
    by lookup;
  * the offset h = delta itself, which costs r evaluations of f at the
    shifted base points.

Every candidate is an admissible pair (x, h <= delta), so the estimate is
a lower estimate of the true modulus.  A delta, a sample of f or a
modulus that is not finite raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .functions import FunctionHandle, PiecewiseLinear
from .moments import _direct_moments, peetre_bound_args
from .operators import WEIGHT_BLOCK, OperatorParams, node_hull_max
from .pq_calculus import PQPair

#: Base points of the grid estimates: the domain in DOMAIN_STEPS equal
#: steps.  Keeps grid bias below the tolerances asserted for the bundled
#: test functions.
DOMAIN_STEPS = 4096

#: Multiplicative and additive slack when asserting a proven bound in floats.
HOLDS_RTOL = 1e-9
HOLDS_ATOL = 1e-12


def _difference(order: int, values: Sequence[np.ndarray]) -> np.ndarray:
    """Delta^order_h f(x) from [f(x), f(x + h), ..., f(x + order h)]."""
    if order == 1:
        return values[1] - values[0]
    return values[2] - 2.0 * values[1] + values[0]


def _pl_second_modulus(pl: PiecewiseLinear, deltas: Sequence[float], lo: float,
                       hi: float) -> List[Optional[float]]:
    """omega_2 over [lo, hi] of f = affine + sum c_k (x - k)_+ (kinks k
    inside) at every delta: Delta^2_h f(x) = sum c_k max(0, h - |x + h - k|)
    peaks at x = k - c h (c = 0, 1, 2) or an end, piecewise linearly in h
    with breaks (k' - k)/j, (k - lo)/j, (hi - k)/j (j = 1, 2); a delta tries
    those up to its cap and the cap, every delta's rows in one pass.  None
    for a delta whose rows cost more than the grid table (~K^4, K kinks)."""
    xs = np.asarray(pl.xs, dtype=float)
    inside = (xs[1:] > lo) & (xs[1:] < hi)
    k, c = xs[1:][inside], np.diff(pl.piece_at(xs)[1])[inside]
    caps = np.array([min(delta, (hi - lo) / 2.0) for delta in deltas])
    breaks = np.concatenate([(k[:, None] - k).ravel(), k - lo, hi - k])
    h = np.sort(np.concatenate([breaks, breaks / 2.0]))
    h = h[h > 0]
    below = np.searchsorted(h, caps, side="right")  # a delta's rows: h[:below] and its cap
    fits = (below + 1) * (3 * k.size + 2) * k.size <= DOMAIN_STEPS * DOMAIN_STEPS // 2
    top = int(below[fits].max(initial=0))
    h = np.concatenate([h[:top], caps[fits]])[:, None]
    x = np.hstack([k - j * h for j in (0.0, 1.0, 2.0)] + [np.full_like(h, lo), hi - 2.0 * h])
    x = np.clip(x, lo, hi - 2.0 * h)
    total = np.zeros_like(x)
    for k_i, c_i in zip(k, c):
        total += c_i * np.maximum(0.0, h - np.abs(x + h - k_i))
    rows = np.abs(total).max(axis=1)  # maxima are exact, in any grouping
    prefix = np.concatenate([[0.0], np.maximum.accumulate(rows[:top])])
    best = iter(np.maximum(prefix[below[fits]], rows[top:]).tolist())
    return [next(best) if fit else None for fit in fits]


def _quadratic_modulus(coeffs: Sequence[float], delta: float, lo: float, hi: float) -> float:
    """omega_1 over [lo, hi] of c0 + c1 t + c2 t^2: f(t + h) - f(t) = h (c1 + c2 (2t + h)) is
    affine in t, largest at t = lo or hi - h; in h, at h = min(delta, hi - lo) or a vertex below."""
    c1, c2 = (float(c) for c in (tuple(coeffs) + (0.0,) * 3)[1:3])
    cap = min(delta, hi - lo)
    ends = (lambda h: h * (c1 + c2 * (2.0 * lo + h)), lambda h: h * (c1 + c2 * (2.0 * hi - h)))
    vertices = [-(c1 + 2.0 * c2 * lo) / (2.0 * c2), (c1 + 2.0 * c2 * hi) / (2.0 * c2)] if c2 else []
    return max(abs(end(h)) for end in ends for h in [cap] + [v for v in vertices if 0.0 < v < cap])


def _fill(out: List[Optional[float]], answers: Sequence[float]) -> List[float]:
    """out with its None entries replaced by answers, in order."""
    answers = iter(answers)
    return [next(answers) if best is None else best for best in out]


class _Moduli:
    """omega_1 and omega_2 of one f over one domain, at any number of deltas.

    `column` takes a column of deltas in passes: exact moduli (module
    docstring) one call per delta, the piecewise-linear omega_2 one array
    pass, and the grid the rest, sampling f at first use and at each
    delta's offset h = delta.  Order 1 takes max - min over windows of
    k + 1 base samples, from the window extrema over spans of 2^j that
    the instance keeps: a rounded difference is monotone in each
    argument and odd, so that is the largest |f(x_{i+j}) - f(x_i)| over
    j <= k, bit for bit.  Order 2 loops over the offsets with one buffer
    and grows its table only as far as the largest delta asked for.
    `bound_reports` shares one instance across its x-grid, for one call.
    """

    def __init__(self, f: FunctionHandle, domain: Tuple[float, float]):
        self.f = f
        self.lo, self.hi = domain
        self._base: Optional[np.ndarray] = None
        self._f_base: Optional[np.ndarray] = None
        self._levels: List[Tuple[np.ndarray, np.ndarray]] = []
        self._second: List[float] = [0.0]

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
            out = _fill(out, _pl_second_modulus(f.piecewise_linear, todo, lo, hi))
            todo = [delta for delta, best in zip(deltas, out) if best is None]
        if todo:
            out = _fill(out, self._grid(order, todo))
        for delta, best in zip(deltas, out):
            if not np.isfinite(best):
                raise DomainError(f"modulus of {f.name} overflows at delta {delta}")
        return out

    def _grid(self, order: int, deltas: List[float]) -> List[float]:
        if self._base is None:  # stored once sampled: a sample that raises raises again
            # a subnormal step can round up and carry base points past hi
            base = np.minimum(np.linspace(self.lo, self.hi, DOMAIN_STEPS + 1), self.hi)
            self._f_base, self._base = self._sample(base), base
        step = (self.hi - self.lo) / DOMAIN_STEPS
        if step == 0:
            raise DomainError(f"domain [{self.lo}, {self.hi}] is too narrow for a grid")
        out = []
        for delta in deltas:
            # past a subnormal step, delta / step may be inf
            best = self._grid_aligned(order, int(min(delta / step, DOMAIN_STEPS // order)))
            ok = self._base + order * delta <= self.hi
            if np.any(ok):
                x = self._base[ok]
                values = [self._f_base[ok]] + [self._sample(x + j * delta)
                                               for j in range(1, order + 1)]
                best = max(best, float(np.abs(_difference(order, values)).max()))
            out.append(best)
        return out

    def _sample(self, x: np.ndarray) -> np.ndarray:
        values = np.asarray(self.f.evaluator(x), dtype=float)
        if not np.isfinite(values).all():
            raise DomainError(f"{self.f.name} is not finite on [{self.lo}, {self.hi}]")
        return values

    def _grid_aligned(self, order: int, k: int) -> float:
        """Largest |Delta^order_{jD} f(x_i)| over the offsets j <= k."""
        f = self._f_base
        if order == 1:
            # level j: max and min over each span of 2^j samples; two spans
            # of the longest level that fits cover each window of k + 1
            levels = self._levels = self._levels or [(f, f)]
            top = (k + 1).bit_length() - 1
            while len(levels) <= top:
                hi, lo = levels[-1]
                span = 2 ** (len(levels) - 1)
                levels.append((np.maximum(hi[:-span], hi[span:]),
                               np.minimum(lo[:-span], lo[span:])))
            hi, lo = levels[top]
            rest = k + 1 - 2 ** top
            hi = np.maximum(hi[:hi.size - rest], hi[rest:])
            lo = np.minimum(lo[:lo.size - rest], lo[rest:])
            # numpy leaves open which zero np.maximum returns, so an all-zero
            # window may give -0.0; abs keeps the loop's +0.0
            return abs(float((hi - lo).max()))
        table = self._second
        if k >= len(table):
            # per offset j: (f[i + 2j] - 2 f[i + j]) + f[i] in one buffer
            twice, buf = 2.0 * f, np.empty(f.size)
            maxima = [table[-1]]
            for j in range(len(table), k + 1):
                m = f.size - 2 * j
                out = np.subtract(f[2 * j:], twice[j:j + m], out=buf[:m])
                np.abs(np.add(out, f[:m], out=out), out=out)
                maxima.append(out.max())
            table.extend(np.maximum.accumulate(maxima)[1:].tolist())
        return table[k]


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
        omega = _Moduli(f, domain)
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

