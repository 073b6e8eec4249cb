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
and reports residuals.  The five closed forms share one set of terms per
call (the brackets [2], [3], [n+1] + beta, [n+m], [n+m-1] and the three
compound powers), and one routine takes every direct sum, exact or float,
at any number of points; its exact sums run on integer numerators over
one denominator per vector, and each reported moment becomes one
Fraction.  Residuals are data, not assertions: at p = q = 1
all five closed forms agree with direct summation, while for p < 1 the
first and second moment displays disagree with direct summation in both
basis modes (already at n+m = 2), so the report is the honest output.
The quantities feeding error bounds therefore come from direct summation,
never from the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import DomainError, SizeCapError
from .operators import (OperatorParams, _check_x, _monomial_terms, _node_affine, _not_finite,
                        _poly_integrals, _weights_exact, basis_weights)
from .pq_calculus import PQPair, Scalar, _brackets, _pq_powers, pq_power

MOMENT_KEYS = ("m0", "m1", "m2", "c1", "c2")
EXACT_DEGREE_CAP = 12


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


def _closed_terms(params: OperatorParams, pq: PQPair, x: Scalar) -> _Terms:
    """Brackets, compound powers and curly coefficients of the closed forms
    at x, each computed once; arithmetic follows the input types."""
    x_norm = _check_x(params, x)
    p, q = pq.p, pq.q
    deg = params.degree
    br = _brackets(max(deg + 2, 4), p, q)  # entry k equals pq_integer(k, pq)
    b2, b3 = br[2], br[3]
    w = _pq_powers(p * x_norm, 1 - x_norm, deg, pq)  # entry k equals pq_power of order k
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
    )


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


#: moment_closed's kinds and the MOMENT_KEYS they select.
_KINDS = ((0, "m0"), (1, "m1"), (2, "m2"), ("central1", "c1"), ("central2", "c2"))


def moment_closed(kind, params: OperatorParams, pq: PQPair, x: Scalar) -> Scalar:
    """Closed-form moment of the scaled operator at x in [0, b_n].

    kind: 0, 1, 2 for test powers 1, t, t^2; "central1" for t - x;
    "central2" for (t - x)^2.  Evaluated exactly as printed (see module
    docstring); arithmetic follows the input types.  One kind of the five
    that `verify_moments` takes from one set of shared terms.
    """
    key = next((key for k, key in _KINDS if k == kind), None)
    if key is None:
        raise DomainError(f"kind must be 0, 1, 2, 'central1' or 'central2', got {kind!r}")
    return _closed_moments(params, x, _closed_terms(params, pq, x))[key]


def _direct_moments(params: OperatorParams, pq: PQPair, xs) -> List[Dict[str, Scalar]]:
    """Direct summation of the five moments at every x in xs, keyed as
    MOMENT_KEYS.  When every input is rational the sums run on integer
    numerators over one denominator per vector (weights, node map, monomial
    terms) and each moment becomes one Fraction; else they are floats that
    equal `operator_profile` on the moment polynomials bit for bit.  One
    node map and one set of monomial terms T_0, T_1, T_2 serve the call;
    each x takes one weight row and one dot product per moment polynomial.
    Raises DomainError when a float value is not finite.
    """
    exact = params.is_exact(pq) and all(isinstance(x, Rational) for x in xs)
    weights = [_weights_exact(params.degree, pq, _check_x(params, x), params.mode) if exact
               else basis_weights(params, pq, x).weights for x in xs]
    cast = Fraction if exact else float
    a, b = _node_affine(params, pq if exact else PQPair(float(pq.p), float(pq.q)))
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        terms = _monomial_terms(2, a, b, pq)
        for x, w in zip(xs, weights):
            x = cast(x)
            # T_u is the vector of t^u itself: a handle's 0 + 1.0 * T_u equals it, as T_u >= 0
            central = [_poly_integrals(c, terms) for c in ((-x, 1), (x * x, -2 * x, 1))]
            values = [Fraction(sum(map(mul, w.nums, v.nums)), w.den * v.den) if exact
                      else float(np.dot(w, v)) for v in terms + central]
            if not (exact or np.isfinite(values).all()):
                raise _not_finite("operator value is", params.degree, w)
            out.append(dict(zip(MOMENT_KEYS, values)))
    return out


def second_central_moment(params: OperatorParams, pq: PQPair, x: Scalar) -> float:
    """Direct-summation value of the operator applied to (t - x)^2 at x.

    This is the quantity every rate bound here actually uses; it goes
    through the exact monomial rule, so it is insulated from any
    transcription issue in the closed second-central-moment display.
    """
    return float(_direct_moments(params, pq, [x])[0]["c2"])


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
    compound power by doubling its order).
    """
    t = _closed_terms(params, pq, x)
    alpha, b_n = params.alpha, params.b_n
    x_norm = x / b_n
    w_double = pq_power(pq.p * x_norm, 1 - x_norm, 2 * params.degree, pq)
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
        t.w_sq / t.b3 + w_double / t.b2 ** 2 + 4 * alpha / t.b2 * t.w_full
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
    mode: str
    arithmetic: str
    closed: Dict[str, Scalar] = field(default_factory=dict)
    brute: Dict[str, Scalar] = field(default_factory=dict)
    residuals: Dict[str, Scalar] = field(default_factory=dict)

    def residual_is_zero(self) -> Dict[str, bool]:
        return {k: v == 0 for k, v in self.residuals.items()}

    def to_json_dict(self) -> dict:
        def enc(v):
            return str(v) if isinstance(v, Fraction) else float(v)

        out = {
            "arithmetic": self.arithmetic,
            "mode": self.mode,
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
            "residuals_float": {k: float(v) for k, v in self.residuals.items()},
        }
        if self.arithmetic == "exact":
            out["residual_is_zero"] = self.residual_is_zero()
        return out


def verify_moments(params: OperatorParams, pq: PQPair, x: Scalar,
                   arithmetic: str = "float") -> MomentReport:
    """Fill a MomentReport comparing closed forms with direct summation.

    arithmetic="exact" requires rational p, q, x, alpha, beta, b_n and
    n+m <= 12 (rational size blows up beyond; twelve is ample to decide
    identities).  Residuals are reported, never asserted.
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
    return MomentReport(
        params=params, pq=pq, x=x, mode=params.mode, arithmetic=arithmetic,
        closed=closed, brute=brute, residuals=residuals,
    )
