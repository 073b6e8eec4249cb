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
exactly that and are set only when the modulus comes from exact
metadata, never from a grid estimate (grid estimates are lower bounds of
the true modulus and could fake a violation).

Moduli are measured over the node hull [0, node_hull_max]: the operator
never evaluates f outside it, and the bound proofs only need |t - x|
with t in the hull.

Where a handle carries no exact modulus, omega_r(f, delta) (r = 1, 2) is
estimated on a grid.  f is sampled once on the DOMAIN_STEPS + 1 equally
spaced base points x_i of the domain, spacing D = (hi - lo)/DOMAIN_STEPS,
and the estimate is the largest |Delta^r_h f(x_i)| with x_i + r h in the
domain over two kinds of offset h:

  * the grid-aligned offsets h = j D <= delta, j <= k = floor(delta/D),
    read off the base samples alone: for r = 1 the largest max - min over
    windows of k + 1 consecutive samples; for r = 2 a table of the
    per-offset maxima, prefix-maximised over j, which answers every delta
    by lookup;
  * the offset h = delta itself, which costs r evaluations of f at the
    shifted base points.

Every candidate is an admissible pair (x, h <= delta), so the estimate is
a lower estimate of the true modulus.  A delta, a sample of f or an
estimate that is not finite raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .functions import FunctionHandle
from .moments import _direct_moments, peetre_bound_args
from .operators import OperatorParams, node_hull_max, operator_profile
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


def _window_range(f: np.ndarray, width: int) -> float:
    """Largest max - min over the windows of `width` consecutive entries of
    f, by doubling: hi[i] and lo[i] span f[i : i + span], and two
    overlapping spans cover each window."""
    hi = lo = f
    span = 1
    while 2 * span <= width:
        hi = np.maximum(hi[:-span], hi[span:])
        lo = np.minimum(lo[:-span], lo[span:])
        span *= 2
    rest = width - span
    hi = np.maximum(hi[:hi.size - rest], hi[rest:])
    lo = np.minimum(lo[:lo.size - rest], lo[rest:])
    # numpy leaves open which zero np.maximum returns, so an all-zero
    # window may give -0.0; abs keeps the loop's +0.0
    return abs(float((hi - lo).max()))


class _Moduli:
    """omega_1 and omega_2 of one f over one domain, at any number of deltas.

    Exact metadata is returned as is.  Otherwise f is sampled at first
    use.  Order 1 takes max - min over windows of k + 1 base samples: a
    rounded difference is monotone in each argument and odd, so that is
    the largest |f(x_{i+j}) - f(x_i)| over j <= k, bit for bit.  Order 2
    loops over the offsets with one buffer and grows its table only as
    far as the largest delta asked for.  An instance lives for one call
    of the public functions below, never longer.
    """

    def __init__(self, f: FunctionHandle, domain: Tuple[float, float]):
        self.f = f
        self.lo, self.hi = domain
        self._base: Optional[np.ndarray] = None
        self._f_base: Optional[np.ndarray] = None
        self._second: List[float] = [0.0]

    def __call__(self, order: int, delta: float) -> float:
        if not 0 <= delta < np.inf:
            raise DomainError(f"delta must be finite and nonnegative, got {delta}")
        exact = self.f.exact_modulus if order == 1 else self.f.exact_second_modulus
        if exact is not None:
            return float(exact(delta))
        if self.hi <= self.lo:
            raise DomainError(f"empty domain [{self.lo}, {self.hi}]")
        if delta == 0:
            return 0.0
        if self._base is None:
            self._base = np.linspace(self.lo, self.hi, DOMAIN_STEPS + 1)
            self._f_base = self._sample(self._base)
        step = (self.hi - self.lo) / DOMAIN_STEPS
        best = self._grid_aligned(order, min(int(delta / step), DOMAIN_STEPS // order))
        ok = self._base + order * delta <= self.hi
        if np.any(ok):
            x = self._base[ok]
            values = [self._f_base[ok]] + [self._sample(x + j * delta)
                                           for j in range(1, order + 1)]
            best = max(best, float(np.abs(_difference(order, values)).max()))
        if not np.isfinite(best):
            raise DomainError(f"grid modulus of {self.f.name} overflows at delta {delta}")
        return best

    def _sample(self, x: np.ndarray) -> np.ndarray:
        values = np.asarray(self.f.evaluator(x), dtype=float)
        if not np.isfinite(values).all():
            raise DomainError(f"{self.f.name} is not finite on [{self.lo}, {self.hi}]")
        return values

    def _grid_aligned(self, order: int, k: int) -> float:
        """Largest |Delta^order_{jD} f(x_i)| over the offsets j <= k."""
        f = self._f_base
        if order == 1:
            return _window_range(f, k + 1)
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


def modulus(f: FunctionHandle, delta: float, domain: Tuple[float, float]) -> float:
    """Modulus of continuity sup_{|t-x| <= delta} |f(t) - f(x)|.

    Returns exact metadata when the handle carries it; otherwise a grid
    estimate over `domain`, which is a lower estimate of the true value.
    """
    return _Moduli(f, domain)(1, delta)


def second_modulus(f: FunctionHandle, delta: float, domain: Tuple[float, float]) -> float:
    """Second modulus sup_{0 < h <= delta} |f(x+2h) - 2 f(x+h) + f(x)|
    over x with x + 2h in `domain`; exact metadata honored."""
    return _Moduli(f, domain)(2, delta)


@dataclass
class BoundReport:
    """Observed error and every bound quantity at a single point.

    `lipschitz_bound` and `holds_lipschitz` are present only for handles
    carrying a Lipschitz pair; `holds_modulus` only when the modulus is
    exact metadata.  `bias` is signed; |bias| feeds the modulus."""

    x: float
    observed_error: float
    second_central_moment: float
    modulus_at_sqrt_moment: float
    modulus_bound: float
    peetre_arg: float
    bias: float
    second_modulus_at_sqrt_peetre: float
    modulus_at_abs_bias: float
    lipschitz_bound: Optional[float] = None
    holds_lipschitz: Optional[bool] = None
    holds_modulus: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


BOUND_CSV_FIELDS = (
    "x", "observed_error", "second_central_moment", "modulus_at_sqrt_moment",
    "modulus_bound", "lipschitz_bound", "peetre_arg", "bias",
    "second_modulus_at_sqrt_peetre", "modulus_at_abs_bias",
    "holds_lipschitz", "holds_modulus",
)


def _holds(observed: float, bound: float) -> bool:
    return observed <= bound * (1.0 + HOLDS_RTOL) + HOLDS_ATOL


def bound_reports(f: FunctionHandle, xs, params: OperatorParams, pq: PQPair,
                  rel_tol: float = 1e-12) -> List[BoundReport]:
    """Observed error and all bound quantities at every x in xs (each in
    [0, b_n]).

    Requires normalized mode: the bounds are proved for an operator that
    reproduces constants.  The hull, the inner integrals, the direct sums
    and the grid-moduli tables are built once for the whole call; the
    values equal `apply_operator` and `second_central_moment` at each x.
    The sqrt argument of the second modulus clamps the printed peetre_arg
    at zero (it is reported unclamped)."""
    if params.mode != "normalized":
        raise DomainError("bound reports require normalized mode")
    omega = _Moduli(f, (0.0, node_hull_max(params, pq)))
    values = operator_profile(f, params, pq, xs, rel_tol).tolist()
    reports = []
    for x, kf, moments in zip(xs, values, _direct_moments(params, pq, xs)):
        fx = float(f.evaluator(float(x)))
        observed = abs(kf - fx)
        central2 = max(float(moments["c2"]), 0.0)
        om = omega(1, float(np.sqrt(central2)))
        mod_bound = 2.0 * om
        peetre_arg, bias = map(float, peetre_bound_args(params, pq, x))
        om2 = omega(2, float(np.sqrt(max(peetre_arg, 0.0))))
        om_bias = omega(1, abs(bias))
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

