"""Closed-form moments, their brute-force counterparts, and residuals.

The closed forms below are transcribed verbatim from their published
display, including the compound-power terms (p s + 1 - s)^{n+m} which are
interpreted through the product power with arguments (p s, 1 - s):

    prod_{j=0}^{n+m-1} (p^{j+1} s + q^j (1 - s)),      s = x / b_n,

and likewise with p^2 s.  That convention is a recorded choice: the
display never expands the term, and no other reading reproduces it at
p = q = 1 while staying inside the product definition.

`verify_moments` evaluates closed form and direct summation side by side
(floats for experiments, exact rationals for certification at n+m <= 12)
and reports residuals, each moment under its one key of MOMENT_KEYS.  The
five closed forms share one set of terms per call (the brackets [2], [3],
[n+1] + beta, [n+m], [n+m-1] and the three compound powers), and one
routine takes every direct sum, exact or float, at any number of points:
exact, on integer numerators over one denominator per vector (three dot
products per point, central moments from those), or float, by `_contract`.
Residuals are data, not assertions: at p = q = 1 all five closed forms
agree with direct summation, while for p < 1 the first and second moment
displays disagree with direct summation in both basis modes (already at
n+m = 2), so the report is the honest output.
The quantities feeding error bounds therefore come from direct summation,
never from the closed forms.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, SizeCapError
from .functions import FunctionHandle
from .operators import (OperatorParams, _blocks_and_integrals, _check_x, _check_xs, _contract,
                        _monomial_terms, _node_numerators, _not_finite, _scaled, _weights_exact,
                        operator_profile)
from .pq_calculus import PQPair, Scalar, _brackets, _pq_powers, pq_power

MOMENT_KEYS = ("m0", "m1", "m2", "c1", "c2")
EXACT_DEGREE_CAP = 12


@contextmanager
def _nonzero_divisors():
    """Raise DomainError for a float division by a bracket product that
    underflows to 0 in the closed forms (say, ([n+1] + beta)^2 at p^n
    below 1e-162); exact brackets are never 0.  A decorator of each
    function that divides by them; an array x divides under the caller's
    np.errstate(divide="raise")."""
    try:
        yield
    except (ZeroDivisionError, FloatingPointError):
        raise DomainError("a bracket product the closed forms divide by underflows to 0 "
                          "in float arithmetic") from None


class _Terms(NamedTuple):
    """What the closed forms share at one point (see `_closed_terms`)."""
    lin: Scalar  # p + 2q - 1
    b2: Scalar  # [2]
    b3: Scalar  # [3]
    ee: Scalar  # [n+1] + beta
    ee2: Scalar  # ([n+1] + beta)^2
    bnm: Scalar  # [n+m]
    bnm1: Scalar  # [n+m-1]
    w_full: Scalar  # (p s + 1 - s)^{n+m}
    w_less: Scalar  # (p s + 1 - s)^{n+m-1}
    w_sq: Scalar  # (p^2 s + 1 - s)^{n+m}
    curly_mid: Scalar  # 1 + 2q/[2] + (q^2 - 1)/[3], as printed
    curly_last: Scalar  # 1 + 2(q - 1)/[2] + (q - 1)^2/[3], as printed
    w_top: Scalar  # (p s + 1 - s)^{order (n+m)}


@_nonzero_divisors()
def _closed_terms(params: OperatorParams, pq: PQPair, x: Scalar, order: int = 1) -> _Terms:
    """Brackets, compound powers and curly coefficients of the closed forms
    at x, each computed once, the (p s, 1 - s) powers from one table of
    order `order` (n+m); arithmetic follows the input types, and an array x
    takes each point's operations elementwise."""
    x_norm = _check_xs(params, x) if isinstance(x, np.ndarray) else _check_x(params, x)
    p, q = pq.p, pq.q
    deg = params.degree
    br = _brackets(max(deg + 2, 4), p, q)  # entry k equals pq_integer(k, pq)
    b2, b3 = br[2], br[3]
    w = _pq_powers(p * x_norm, 1 - x_norm, order * deg, pq)  # entry k: pq_power of order k
    ee = br[params.n + 1] + params.beta
    try:
        ee2 = ee ** 2  # a Python float ** raises where * would give inf
    except OverflowError:
        raise DomainError(f"([n+1] + beta)^2 is past the float range at beta = {params.beta}"
                          ) from None
    return _Terms(
        p + 2 * q - 1, b2, b3, ee, ee2, br[deg], br[deg - 1],
        w[deg], w[deg - 1], pq_power(p * p * x_norm, 1 - x_norm, deg, pq),
        1 + 2 * q / b2 + (q * q - 1) / b3, 1 + 2 * (q - 1) / b2 + (q - 1) ** 2 / b3,
        w[-1],
    )


@_nonzero_divisors()
def _closed_moments(params: OperatorParams, x: Scalar, t: _Terms) -> Dict[str, Scalar]:
    """The five closed forms at x, keyed as MOMENT_KEYS, from the shared
    terms t; each is transcribed as printed (see module docstring)."""
    alpha, b_n = params.alpha, params.b_n
    return {
        "m0": x * 0 + 1,
        "m1": (alpha * b_n + t.w_full * b_n / t.b2 + t.lin * t.bnm * x / t.b2) / t.ee,
        "m2": (
            (alpha * alpha + 2 * alpha / t.b2 * t.w_full + t.w_sq / t.b3) * b_n * b_n
            + (2 * alpha / t.b2 * t.lin + t.curly_mid * t.w_less) * t.bnm * b_n * x
            + t.curly_last * t.bnm * t.bnm1 * x * x
        ) / t.ee2,
        "c1": (t.b2 * alpha + t.w_full) * b_n / (t.b2 * t.ee) + (
            t.lin * t.bnm / (t.b2 * t.ee) - 1
        ) * x,
        "c2": (
            alpha * alpha / t.ee2
            + 2 * alpha / (t.b2 * t.ee2) * t.w_full
            + t.w_sq / (t.b3 * t.ee2)
        ) * b_n * b_n + (
            2 * alpha * t.lin * t.bnm / (t.b2 * t.ee2)
            + t.curly_mid * t.bnm / t.ee2 * t.w_less
            - 2 * alpha / t.ee
            - 2 * t.w_full / (t.b2 * t.ee)
        ) * b_n * x + (
            t.curly_last * t.bnm * t.bnm1 / t.ee2
            - 2 * t.lin * t.bnm / (t.b2 * t.ee)
            + 1
        ) * x * x,
    }


def _exact_moments(params: OperatorParams, pq: PQPair, xs) -> List[Dict[str, Fraction]]:
    """The five moments at every rational x in xs for exact inputs, keyed as
    MOMENT_KEYS.  T_0, T_1, T_2 are integer numerators over one denominator
    each; each x takes its exact weights and three dot products, and
    c1 = m1 - x m0, c2 = m2 - 2x m1 + x^2 m0 follow exactly."""
    (big_p, big_q), d = _scaled([pq.p, pq.q])
    a, b, den = _node_numerators(params, pq)
    mono = _scaled([Fraction(d ** j, v)  # 1/[j+1] = D^j / N_{j+1}
                    for j, v in enumerate(_brackets(4, big_p, big_q)[1:])])
    terms = [([sum(math.comb(u, j) * mono.nums[j] * ak ** (u - j) * bk ** j
                   for j in range(u + 1)) for ak, bk in zip(a, b)], den ** u * mono.den)
             for u in range(3)]
    out = []
    for x in xs:
        w = _weights_exact(params.degree, pq, _check_x(params, x), params.mode)
        m0, m1, m2 = (Fraction(sum(map(mul, w.nums, nums)), w.den * t_den)
                      for nums, t_den in terms)
        out.append(dict(zip(MOMENT_KEYS, (m0, m1, m2, m1 - x * m0,
                                          m2 - 2 * x * m1 + x * x * m0))))
    return out


def _direct_moments(params: OperatorParams, pq: PQPair, xs, f: Optional[FunctionHandle] = None,
                    rel_tol: float = 1e-12):
    """Direct summation of the five moments at every x in xs, keyed as
    MOMENT_KEYS.  When every input is rational they are Fractions from
    `_exact_moments`; else they are floats, every x taken as a float, that
    equal `operator_profile` on the moment polynomials bit for bit: one
    node map and one set of monomial terms T_0, T_1, T_2 serve the call,
    each weight block's central vectors are built at once by broadcasting,
    and one `_contract` call per block takes its points' five vectors.
    Given a handle f, returns (f's operator values, the moments): in floats its
    integrals are a sixth vector of each block, and values and errors are `operator_profile`'s.
    Raises DomainError when a float value is not finite.
    """
    if params.is_exact(pq) and all(isinstance(x, Rational) for x in xs):
        if f is None:
            return _exact_moments(params, pq, xs)
        return operator_profile(f, params, pq, xs, rel_tol).tolist(), _exact_moments(params, pq, xs)
    out, values = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # raised below instead
        blocks, a, b, extra = _blocks_and_integrals(f and [f], params, pq, xs, rel_tol)
        if len(xs) and not np.isfinite(extra).all():  # no value is (0 inf is nan): before the terms
            raise _not_finite("operator value is", params.degree, next(blocks)[1])
        terms = _monomial_terms(2, a, b, pq)
        for block, w in blocks:
            x = np.array([float(v) for v in xs[block]])[:, None]
            # T_u is t^u's own vector; c1, c2 sum c_u T_u from zeros in order, as a
            # handle does, and a zero c_u adds a signed zero: no change (T_u, x >= 0)
            vectors = np.zeros((len(x), 5 + len(extra), a.size))
            vectors[:, :3] = terms
            vectors[:, 5:] = extra
            for row, coeffs in ((3, (-x, 1.0)), (4, (x * x, -2 * x, 1.0))):
                for c, term in zip(coeffs, terms):
                    vectors[:, row] += c * term
            rows = _contract(w, vectors)
            if not np.isfinite(rows).all():
                raise _not_finite("operator value is", params.degree, w)
            out.extend(dict(zip(MOMENT_KEYS, row)) for row in rows.tolist())
            values.extend(rows[:, 5:].ravel().tolist())
    return out if f is None else (values, out)


@_nonzero_divisors()
def peetre_bound_args(params: OperatorParams, pq: PQPair,
                      x: Scalar) -> Tuple[Scalar, Scalar]:
    """The two arguments of the two-term smoothness bound, as printed.

    Returns (peetre_arg, bias): the square of the second-modulus argument
    and the signed first-moment displacement.  `bias` reproduces the
    closed first central moment verbatim; it can be negative, and callers
    use |bias| as a modulus argument.  Both are report-only quantities
    (the bound's constant is unspecified), evaluated exactly as printed;
    note the printed peetre_arg is not algebraically identical to
    central2 + bias^2 (it merges [n+m-1] into [n+m] and squares the
    compound power by doubling its order).  An array x gives arrays whose
    entries equal the one-point values bit for bit: every step that
    depends on x is +, -, * or /.
    """
    t = _closed_terms(params, pq, x, 2)
    alpha, b_n = params.alpha, params.b_n
    term_x2 = (
        (t.curly_last + t.lin ** 2 / t.b2 ** 2)
        * t.bnm ** 2 / t.ee2
        - 4 * t.lin * t.bnm / (t.b2 * t.ee)
        + 2
    ) * x * x
    term_bx = (
        (t.curly_mid + 2 * t.lin / t.b2 ** 2)
        * t.bnm / t.ee2 * t.w_full
        + 4 * alpha * t.lin * t.bnm / (t.b2 * t.ee2)
        - 4 * t.w_full / (t.b2 * t.ee)
        - 4 * alpha / t.ee
    ) * b_n * x
    term_b2 = (
        t.w_sq / t.b3 + t.w_top / t.b2 ** 2 + 4 * alpha / t.b2 * t.w_full
        + 2 * alpha * alpha
    ) * b_n * b_n / t.ee2
    peetre_arg = term_x2 + term_bx + term_b2
    return peetre_arg, _closed_moments(params, x, t)["c1"]


@dataclass
class MomentReport:
    """Closed-form vs direct-summation moments and residuals at one point.

    `closed`, `brute` and `residuals` map the keys m0, m1, m2 (test powers
    1, t, t^2) and c1, c2 (central powers t-x, (t-x)^2).  In exact mode
    every entry is a Fraction and a residual of exactly zero certifies the
    closed form for that instance and mode.
    """

    params: OperatorParams
    pq: PQPair
    x: Scalar
    arithmetic: str
    closed: Dict[str, Scalar] = field(default_factory=dict)
    brute: Dict[str, Scalar] = field(default_factory=dict)
    residuals: Dict[str, Scalar] = field(default_factory=dict)

    def residual_is_zero(self) -> Dict[str, bool]:
        return {k: v == 0 for k, v in self.residuals.items()}

    def to_json_dict(self) -> dict:
        """The report as JSON values.  Raises SizeCapError when an exact
        value has more digits than `str` writes, and DomainError when an
        exact residual has no float for `residuals_float`."""
        def enc(v):
            if not isinstance(v, Fraction):
                return float(v)
            try:
                return str(v)
            except ValueError:  # an int past sys.get_int_max_str_digits()
                raise SizeCapError(f"an exact value of the report has more than "
                                   f"{sys.get_int_max_str_digits()} digits") from None

        out = {
            "arithmetic": self.arithmetic,
            "mode": self.params.mode,
            "params": {
                "n": self.params.n,
                "m": self.params.m,
                "alpha": enc(self.params.alpha),
                "beta": enc(self.params.beta),
                "b_n": enc(self.params.b_n),
            },
            "pq": {"p": enc(self.pq.p), "q": enc(self.pq.q)},
            "x": enc(self.x),
            "closed": {k: enc(v) for k, v in self.closed.items()},
            "brute": {k: enc(v) for k, v in self.brute.items()},
            "residuals": {k: enc(v) for k, v in self.residuals.items()},
        }
        try:
            out["residuals_float"] = {k: float(v) for k, v in self.residuals.items()}
        except OverflowError:  # a Fraction past the float range
            raise DomainError("an exact residual is past the float range of "
                              "residuals_float") from None
        if self.arithmetic == "exact":
            out["residual_is_zero"] = self.residual_is_zero()
        return out


def verify_moments(params: OperatorParams, pq: PQPair, x: Scalar,
                   arithmetic: str = "float") -> MomentReport:
    """Fill a MomentReport comparing closed forms with direct summation.

    arithmetic="exact" requires rational p, q, x, alpha, beta, b_n and
    n+m <= 12 (rational size blows up beyond; twelve is ample to decide
    identities).  Residuals are reported, never asserted.  A float
    residual that is not finite, as where a closed form overflows before
    its division, raises DomainError.
    """
    if arithmetic not in ("float", "exact"):
        raise DomainError(f"arithmetic must be 'float' or 'exact', got {arithmetic!r}")
    exact = arithmetic == "exact"
    if exact:
        if params.degree > EXACT_DEGREE_CAP:
            raise SizeCapError(
                f"exact mode capped at n+m <= {EXACT_DEGREE_CAP}, got {params.degree}"
            )
        if not (params.is_exact(pq) and isinstance(x, Rational)):
            raise DomainError(
                "exact mode requires rational p, q, x, alpha, beta, b_n"
            )
    cast = Fraction if exact else float
    params = replace(params, alpha=cast(params.alpha), beta=cast(params.beta),
                     b_n=cast(params.b_n))
    pq, x = PQPair(cast(pq.p), cast(pq.q)), cast(x)
    brute = _direct_moments(params, pq, [x])[0]
    closed = _closed_moments(params, x, _closed_terms(params, pq, x))
    residuals = {k: closed[k] - brute[k] for k in MOMENT_KEYS}
    if not exact and not all(map(math.isfinite, residuals.values())):
        raise DomainError("a closed-form moment or its residual is past the float range "
                          "(the direct sums are finite)")
    return MomentReport(
        params=params, pq=pq, x=x, arithmetic=arithmetic,
        closed=closed, brute=brute, residuals=residuals,
    )
