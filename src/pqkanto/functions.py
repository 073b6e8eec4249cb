"""Named test functions with optional structure metadata.

A `FunctionHandle` bundles an evaluator on [0, inf) with whatever exact
structure is known about it: polynomial coefficients, a piecewise-linear
description, a Lipschitz pair (M, gamma), exact moduli of continuity, a
support bound, its inner integrals in closed form, or the points where it
is not smooth.
The operator code exploits the structure (polynomials and
piecewise-linear functions integrate exactly; the integral hook serves
p = q = 1 and, with known kinks, the Euler-Maclaurin series path); the
bound code takes every modulus from it (`FunctionHandle` says what each needs).

Builtin registry names (stable CLI surface):

    const1, id, square, sin, absdev:<a>, lip:<a>:<gamma>, bump:<C>
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError

_EPS = 2.0 ** -52  # machine epsilon of float64


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [0, inf).

    Defined by breakpoints (xs[i], ys[i]) with xs ascending and xs[0] = 0,
    extended beyond xs[-1] with slope `end_slope`.  Slope changes happen
    only at the interior breakpoints xs[1:].
    """

    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    end_slope: float = 0.0

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 1:
            raise DomainError("breakpoint lists must be nonempty and equal length")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise DomainError("breakpoints must be strictly ascending")

    def piece_at(self, x):
        """(intercept, slope) of the affine piece active at x, elementwise
        for an array x.  Piece i holds [xs[i], xs[i+1]); the last one,
        from xs[-1] on, has slope `end_slope`, and below xs[0] the first
        piece extends."""
        xs, ys = np.asarray(self.xs, dtype=float), np.asarray(self.ys, dtype=float)
        slopes = np.append(np.diff(ys) / np.diff(xs), self.end_slope)
        i = np.maximum(np.searchsorted(xs, x, side="right") - 1, 0)
        return (ys - slopes * xs)[i], slopes[i]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        out = np.interp(x, xs, ys)
        beyond = x > xs[-1]
        if np.any(beyond):
            out = np.where(beyond, ys[-1] + self.end_slope * (x - xs[-1]), out)
        below = x < xs[0]
        if np.any(below):
            icpt, s = self.piece_at(xs[0])
            out = np.where(below, icpt + s * x, out)
        return out if out.shape else float(out)


@dataclass(frozen=True)
class FunctionHandle:
    """A named real function on [0, inf) plus optional exact metadata.

    The evaluator maps a float to a float and a float ndarray of any shape
    to a float array of that shape: the operator calls it on 2-D arrays of
    nodes.  Metadata, when present, must agree with the evaluator; the
    test suite spot-checks this.  `lip` is a pair (M, gamma) certifying
    |f(t) - f(x)| <= M |t - x|^gamma; `exact_modulus` maps delta to the
    modulus of continuity over [0, inf), `exact_second_modulus` (delta,
    lo, hi) to the second one over [lo, hi] or None; `support_bound` C
    certifies f == 0 on [C, inf); `integral` maps (A, B, t_lo, t_hi) to the
    integrals of f(A + B t) over [t_lo, t_hi], node by node, and a bound on
    their own rounding (not on f's conditioning in A), for the classical
    (p = q = 1) inner integrals, else Gauss-Legendre, and the Euler-Maclaurin
    ones, which also need `kinks`, the points where f is not smooth (empty
    for f smooth on [0, inf), None when unknown), else the truncated sum.
    `bound_reports` takes omega from `exact_modulus` or polynomial
    coefficients of degree <= 2, omega_2 from `exact_second_modulus` or
    `piecewise_linear`, and raises DomainError without them.
    """

    name: str
    evaluator: Callable
    lip: Optional[Tuple[float, float]] = None
    exact_modulus: Optional[Callable[[float], float]] = None
    exact_second_modulus: Optional[Callable[[float, float, float], Optional[float]]] = None
    support_bound: Optional[float] = None
    polynomial_coeffs: Optional[Tuple[float, ...]] = None
    piecewise_linear: Optional[PiecewiseLinear] = None
    integral: Optional[Callable] = None
    kinks: Optional[Tuple[float, ...]] = None

    def __call__(self, x):
        return self.evaluator(x)


def polynomial_handle(name: str, coeffs: Sequence) -> FunctionHandle:
    """Handle for sum_i coeffs[i] * x^i (ascending order)."""
    coeffs = tuple(coeffs)

    def ev(x, _c=coeffs):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(_c):
            out = out * x + float(c)
        return out if out.shape else float(out)

    return FunctionHandle(name=name, evaluator=ev, polynomial_coeffs=coeffs, kinks=())


def const1() -> FunctionHandle:
    return replace(polynomial_handle("const1", (1.0,)), lip=(0.0, 1.0),
                   exact_modulus=lambda d: 0.0, exact_second_modulus=lambda d, lo, hi: 0.0)


def identity() -> FunctionHandle:
    return replace(polynomial_handle("id", (0.0, 1.0)), lip=(1.0, 1.0),
                   exact_modulus=lambda d: float(d), exact_second_modulus=lambda d, lo, hi: 0.0)


def square() -> FunctionHandle:
    # unbounded on [0, inf): no global modulus, no Lipschitz pair
    return replace(polynomial_handle("square", (0.0, 0.0, 1.0)),
                   exact_second_modulus=lambda d, lo, hi: 2.0 * d * d)


def _sin_second_modulus(delta: float, lo: float, hi: float) -> float:
    """omega_2(sin) over [lo, hi]: the largest 4 sin^2(h/2) max|sin| on
    [lo + h, hi - h] over h <= cap = min(delta, (hi - lo)/2).  The max is 1
    while a peak lies inside (the value rises up to h = pi), else an end
    value, stationary at h = 2(hi - j pi)/3 or 2(j pi - lo)/3.  A peak is
    inside for h <= (hi - lo - pi)/2, at most pi/2 below the cap, and those
    h lie 2 pi/3 apart: per end only the largest one <= cap counts (one j
    more either way for rounding).  It, the cap and pi are tried."""
    cap = min(delta, (hi - lo) / 2.0)

    def value(h):
        a, b = lo + h, hi - h
        last_peak = math.pi / 2.0 + math.pi * math.floor((b - math.pi / 2.0) / math.pi)
        m = 1.0 if last_peak >= a else max(abs(math.sin(a)), abs(math.sin(b)))
        return 4.0 * math.sin(h / 2.0) ** 2 * m

    j_hi, j_lo = math.ceil((hi - 1.5 * cap) / math.pi), math.floor((lo + 1.5 * cap) / math.pi)
    hs = [cap, math.pi] + [h for i in (-1, 0, 1) for h in (2.0 * (hi - (j_hi + i) * math.pi) / 3.0,
                                                          2.0 * ((j_lo + i) * math.pi - lo) / 3.0)]
    return max(value(h) for h in hs if 0.0 < h <= cap)


def _sin_integral(a, b, t_lo, t_hi):
    """Integrals of sin(A + B t) over [t_lo, t_hi] as dt sin(A + B t_mid) sin(u)/u,
    u = B dt/2: a product, which does not cancel as B dt -> 0 the way a -cos
    difference does.  sin(u)/u is 1 at u = 0 and at subnormal u (sin u = u), so
    B = 0 gives sin(A) dt."""
    dt = t_hi - t_lo
    u = b * (0.5 * dt)
    sinc = np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0.0)
    values = dt * np.sin(a + b * (t_lo + 0.5 * dt)) * sinc
    return values, 4.0 * _EPS * np.abs(values)


def sine() -> FunctionHandle:
    # modulus over [0, inf): 2 sin(delta/2) for delta <= pi, else 2
    def mod(d):
        return 2.0 if d >= np.pi else float(2.0 * np.sin(d / 2.0))

    return FunctionHandle(
        name="sin", evaluator=lambda x: np.sin(x), lip=(1.0, 1.0), exact_modulus=mod,
        exact_second_modulus=_sin_second_modulus, integral=_sin_integral, kinks=(),
    )


def absdev(a: float) -> FunctionHandle:
    """|x - a|: kink at a, slope 1 beyond; exact modulus delta."""
    if not 0 <= a < math.inf:
        raise DomainError(f"absdev requires a finite a >= 0, got a={a}")
    if a == 0:
        pl = PiecewiseLinear(xs=(0.0,), ys=(0.0,), end_slope=1.0)
    else:
        pl = PiecewiseLinear(xs=(0.0, float(a)), ys=(float(a), 0.0), end_slope=1.0)
    return FunctionHandle(
        name=f"absdev:{a:g}", evaluator=lambda x: np.abs(np.asarray(x, float) - a),
        lip=(1.0, 1.0), exact_modulus=lambda d: float(d), piecewise_linear=pl,
        kinks=pl.xs[1:],
    )


def _lip_second_modulus(a: float, g: float, delta: float, lo: float, hi: float) -> float:
    """omega_2 of |x - a|^g over [lo, hi] (`lip_handle` has the proof).  With the
    kink outside it cancels as u = h/c -> 0: below u = 0.4 it takes c^g sum_{k>=2}
    C(g, k) (2 - 2^k) u^k, alternating and falling, to a term under a quarter
    ulp; above, c^g (2 E(u) - E(2u)) with E(u) = expm1(g log1p(u))."""
    if lo <= a <= hi:
        return max(2.0 * min(delta, a - lo, hi - a) ** g,
                   (2.0 - 2.0 ** g) * min(delta, (a - lo) / 2.0) ** g,
                   (2.0 - 2.0 ** g) * min(delta, (hi - a) / 2.0) ** g)
    if g == 1.0:  # f is affine on [lo, hi]
        return 0.0
    c, h = lo - a if a < lo else a - hi, min(delta, (hi - lo) / 2.0)
    u = h / c
    if u < 0.4:
        total, coeff, power, k = 0.0, g * (g - 1.0) / 2.0, u * u, 2
        while True:
            term = coeff * (2.0 - 2.0 ** k) * power
            total += term
            if abs(term) <= 0.25 * _EPS * total:
                return c ** g * total
            coeff, power, k = coeff * (g - k) / (k + 1.0), power * u, k + 1
    if math.isfinite(2.0 * u):
        return c ** g * (2.0 * math.expm1(g * math.log1p(u)) - math.expm1(g * math.log1p(2.0 * u)))
    # 2u past the float range: c^g <= 2^(-1023 g) (c + h)^g, cancelling only as 1 - g
    return 2.0 * (c + h) ** g - c ** g - (c + 2.0 * h) ** g


def lip_handle(a: float, gamma: float) -> FunctionHandle:
    """|x - a|^gamma for gamma in (0, 1]; member of Lip_1(gamma).

    |u^g - v^g| <= |u - v|^g for u, v >= 0 gives the Lipschitz certificate
    and the exact modulus delta^gamma (attained at the kink).  omega_2 over
    [lo, hi] with lo <= a <= hi is, for w_L = a - lo and w_R = hi - a,
    max(2 min(delta, w_L, w_R)^g, (2 - 2^g) min(delta, w_L/2 or w_R/2)^g).
    Put the middle point at a + u.  Across the kink (|u| < h), Delta^2_h =
    (h + u)^g + (h - u)^g - 2|u|^g rises with h and falls with |u|, and
    where negative it is no larger in size than on one side.  On one side,
    |Delta^2_h| = 2 v^g - (v + h)^g - (v - h)^g (v = |u| >= h) falls with v
    and rises with h.  Inside the window delta <= min(w_L, w_R) that is
    2 delta^g.  With the kink outside [lo, hi], the one-sided |Delta^2_h|
    peaks at the end nearer the kink, c from it, and h = min(delta, (hi -
    lo)/2): 2 (c + h)^g - c^g - (c + 2h)^g.
    The integral of f(A + B t) over [t_lo, t_hi] takes one-sided pieces from the
    kink: with y, z the ends' distances to it, far = max(y, z) and rho = |B| dt / far,
    a side gives far^g dt (1 - (1 - rho)^(g+1)) / ((g+1) rho) by expm1 and log1p,
    no difference of antiderivatives; both sides give (y^(g+1) + z^(g+1)) dt /
    ((g+1)(y + z)).
    """
    if not 0 <= a < math.inf:
        raise DomainError(f"lip requires a finite a >= 0, got a={a}")
    if not (0 < gamma <= 1):
        raise DomainError("lip requires gamma in (0, 1]")

    def ev(x, _a=float(a), _g=float(gamma)):
        return np.abs(np.asarray(x, float) - _a) ** _g

    def integral(a, b, t_lo, t_hi, _a=float(a), _g=float(gamma)):
        dt, lo = t_hi - t_lo, a + b * t_lo - _a
        hi = lo + b * dt  # not a + b t_hi - kink, whose rounding is eps |a| near the kink
        y, z, g1 = np.abs(lo), np.abs(hi), _g + 1.0
        far = np.maximum(y, z)
        rho = np.divide(np.abs(b) * dt, far, out=np.zeros_like(far), where=far > 0.0)
        # rho > 1 where rounding moved an end onto the kink: the piece past it,
        # (rho - 1)^(g+1) of far^(g+1), is dropped
        side = np.divide(-np.expm1(g1 * np.log1p(-np.minimum(rho, 1.0 - _EPS / 2.0))),
                         g1 * rho, out=np.ones_like(rho), where=rho > 0.0) * far ** _g * dt
        cross = np.sign(lo) * np.sign(hi) < 0.0
        s = np.where(cross, y + z, np.inf)  # y/s = z/s = 0 off the kink
        values = np.where(cross, (y ** _g * (y / s) + z ** _g * (z / s)) * dt / g1, side)
        return values, 8.0 * _EPS * np.abs(values)

    pl = absdev(a).piecewise_linear if gamma == 1.0 else None
    return FunctionHandle(
        name=f"lip:{a:g}:{gamma:g}", evaluator=ev, lip=(1.0, float(gamma)),
        exact_modulus=lambda d, _g=float(gamma): float(d) ** _g,
        exact_second_modulus=functools.partial(_lip_second_modulus, float(a), float(gamma)),
        piecewise_linear=pl, integral=integral, kinks=(float(a),),
    )


def bump(c: float) -> FunctionHandle:
    """Hat max(0, 1 - x/C): supported on [0, C], Lipschitz 1/C.

    Exact modulus min(1, delta/C); satisfies the vanishing-function
    hypothesis of the unweighted sup-error sweep.
    """
    if not 0 < c < math.inf:
        raise DomainError(f"bump requires a finite C > 0, got C={c}")
    pl = PiecewiseLinear(xs=(0.0, float(c)), ys=(1.0, 0.0), end_slope=0.0)
    return FunctionHandle(
        name=f"bump:{c:g}", evaluator=pl, lip=(1.0 / c, 1.0),
        exact_modulus=lambda d, _c=float(c): min(1.0, float(d) / _c),
        support_bound=float(c), piecewise_linear=pl, kinks=pl.xs[1:],
    )


BUILTIN_NAMES = ("const1", "id", "square", "sin",
                 "absdev:<a>", "lip:<a>:<gamma>", "bump:<C>")


def builtin(name: str) -> FunctionHandle:
    """Resolve a registry name (see BUILTIN_NAMES) to a handle."""
    plain = {"const1": const1, "id": identity, "square": square, "sin": sine}
    if name in plain:
        return plain[name]()
    head, _, rest = name.partition(":")
    try:
        if head == "absdev" and rest:
            return absdev(float(rest))
        if head == "bump" and rest:
            return bump(float(rest))
        if head == "lip" and rest:
            a_str, _, g_str = rest.partition(":")
            return lip_handle(float(a_str), float(g_str))
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"bad parameters in function name {name!r}") from exc
    raise DomainError(
        f"unknown function {name!r}; builtins: {', '.join(BUILTIN_NAMES)}"
    )
