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
and reports residuals.  Residuals are data, not assertions: at p = q = 1
all five closed forms agree with direct summation, while for p < 1 the
first and second moment displays disagree with direct summation in both
basis modes (already at n+m = 2), so the report is the honest output.
The quantities feeding error bounds therefore come from direct summation,
never from the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Dict, Tuple

from .errors import DomainError, SizeCapError
from .functions import polynomial_handle
from .operators import OperatorParams, apply_operator, basis_weights, operator_profile
from .pq_calculus import PQPair, Scalar, pq_integer, pq_integral_monomial, pq_power

MOMENT_KEYS = ("m0", "m1", "m2", "c1", "c2")
EXACT_DEGREE_CAP = 12


def _compound_powers(params: OperatorParams, pq: PQPair, x_norm: Scalar):
    """The three compound-power terms appearing in the closed forms:
    (p s + 1 - s)^{n+m}, (p s + 1 - s)^{n+m-1}, (p^2 s + 1 - s)^{n+m}."""
    p = pq.p
    deg = params.degree
    w_full = pq_power(p * x_norm, 1 - x_norm, deg, pq)
    w_less = pq_power(p * x_norm, 1 - x_norm, deg - 1, pq) if deg >= 1 else None
    w_sq = pq_power(p * p * x_norm, 1 - x_norm, deg, pq)
    return w_full, w_less, w_sq


def _curly(q: Scalar, b2: Scalar, b3: Scalar) -> Tuple[Scalar, Scalar]:
    """The two bracketed coefficients of the printed second-moment
    displays, 1 + 2q/[2] + (q^2 - 1)/[3] and 1 + 2(q - 1)/[2] + (q - 1)^2/[3]."""
    return (1 + 2 * q / b2 + (q * q - 1) / b3,
            1 + 2 * (q - 1) / b2 + (q - 1) ** 2 / b3)


def moment_closed(kind, params: OperatorParams, pq: PQPair, x: Scalar) -> Scalar:
    """Closed-form moment of the scaled operator at x in [0, b_n].

    kind: 0, 1, 2 for test powers 1, t, t^2; "central1" for t - x;
    "central2" for (t - x)^2.  Evaluated exactly as printed (see module
    docstring); arithmetic follows the input types.
    """
    if not (0 <= x <= params.b_n):
        raise DomainError(f"x={x} outside [0, b_n] with b_n={params.b_n}")
    p, q = pq.p, pq.q
    deg = params.degree
    alpha, beta, b_n = params.alpha, params.beta, params.b_n
    x_norm = x / b_n
    b2 = pq_integer(2, pq)
    b3 = pq_integer(3, pq)
    ee = pq_integer(params.n + 1, pq) + beta
    bnm = pq_integer(deg, pq)
    w_full, w_less, w_sq = _compound_powers(params, pq, x_norm)
    if kind == 0:
        return x * 0 + 1
    if kind == 1:
        return (alpha * b_n + w_full * b_n / b2 + (p + 2 * q - 1) * bnm * x / b2) / ee
    if kind == 2:
        curly_mid, curly_last = _curly(q, b2, b3)
        return (
            (alpha * alpha + 2 * alpha / b2 * w_full + w_sq / b3) * b_n * b_n
            + (2 * alpha / b2 * (p + 2 * q - 1) + curly_mid * w_less) * bnm * b_n * x
            + curly_last * bnm * pq_integer(deg - 1, pq) * x * x
        ) / ee ** 2
    if kind == "central1":
        return (b2 * alpha + w_full) * b_n / (b2 * ee) + (
            (p + 2 * q - 1) * bnm / (b2 * ee) - 1
        ) * x
    if kind == "central2":
        curly_mid, curly_last = _curly(q, b2, b3)
        term_b2 = (
            alpha * alpha / ee ** 2
            + 2 * alpha / (b2 * ee ** 2) * w_full
            + w_sq / (b3 * ee ** 2)
        ) * b_n * b_n
        term_bx = (
            2 * alpha * (p + 2 * q - 1) * bnm / (b2 * ee ** 2)
            + curly_mid * bnm / ee ** 2 * w_less
            - 2 * alpha / ee
            - 2 * w_full / (b2 * ee)
        ) * b_n * x
        term_x2 = (
            curly_last * bnm * pq_integer(deg - 1, pq) / ee ** 2
            - 2 * (p + 2 * q - 1) * bnm / (b2 * ee)
            + 1
        ) * x * x
        return term_b2 + term_bx + term_x2
    raise DomainError(f"kind must be 0, 1, 2, 'central1' or 'central2', got {kind!r}")


def second_central_moment(params: OperatorParams, pq: PQPair, x: Scalar) -> float:
    """Direct-summation value of the operator applied to (t - x)^2 at x.

    This is the quantity every rate bound here actually uses; it goes
    through the exact monomial rule, so it is insulated from any
    transcription issue in the closed second-central-moment display.
    """
    xf = float(x)
    handle = polynomial_handle("sqdev", (xf * xf, -2.0 * xf, 1.0))
    return apply_operator(handle, x, params, pq)


def first_central_moment_brute(params: OperatorParams, pq: PQPair, x: Scalar) -> float:
    """Direct-summation value of the operator applied to (t - x) at x."""
    handle = polynomial_handle("dev", (-float(x), 1.0))
    return apply_operator(handle, x, params, pq)


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
    if not (0 <= x <= params.b_n):
        raise DomainError(f"x={x} outside [0, b_n] with b_n={params.b_n}")
    p, q = pq.p, pq.q
    deg = params.degree
    alpha, beta, b_n = params.alpha, params.beta, params.b_n
    x_norm = x / b_n
    b2 = pq_integer(2, pq)
    b3 = pq_integer(3, pq)
    ee = pq_integer(params.n + 1, pq) + beta
    bnm = pq_integer(deg, pq)
    w_full, _w_less, w_sq = _compound_powers(params, pq, x_norm)
    w_double = pq_power(p * x_norm, 1 - x_norm, 2 * deg, pq)

    curly_mid, curly_last = _curly(q, b2, b3)
    term_x2 = (
        (curly_last + (p + 2 * q - 1) ** 2 / b2 ** 2)
        * bnm ** 2 / ee ** 2
        - 4 * (p + 2 * q - 1) * bnm / (b2 * ee)
        + 2
    ) * x * x
    term_bx = (
        (curly_mid + 2 * (p + 2 * q - 1) / b2 ** 2)
        * bnm / ee ** 2 * w_full
        + 4 * alpha * (p + 2 * q - 1) * bnm / (b2 * ee ** 2)
        - 4 * w_full / (b2 * ee)
        - 4 * alpha / ee
    ) * b_n * x
    term_b2 = (
        w_sq / b3 + w_double / b2 ** 2 + 4 * alpha / b2 * w_full + 2 * alpha * alpha
    ) * b_n * b_n / ee ** 2
    peetre_arg = term_x2 + term_bx + term_b2
    bias = moment_closed("central1", params, pq, x)
    return peetre_arg, bias


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
            if isinstance(v, Rational) and not isinstance(v, int):
                return str(Fraction(v))
            return float(v) if isinstance(v, float) else v

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


def _brute_moments_exact(params: OperatorParams, pq: PQPair,
                         x: Fraction) -> Dict[str, Fraction]:
    """Exact direct summation of the five moments via rational weights and
    the monomial rule applied to the affine node map."""
    weights = basis_weights(params, pq, x).weights
    ee = pq_integer(params.n + 1, pq) + Fraction(params.beta)
    mono = [pq_integral_monomial(j, pq) for j in range(3)]
    moments = [Fraction(0), Fraction(0), Fraction(0)]
    for k, w in enumerate(weights):
        a_k = (pq_integer(k, pq) + Fraction(params.alpha)) * Fraction(params.b_n) / ee
        b_k = (pq_integer(k + 1, pq) - pq_integer(k, pq)) * Fraction(params.b_n) / ee
        for u in range(3):
            integral = sum(
                math.comb(u, j) * a_k ** (u - j) * b_k ** j * mono[j]
                for j in range(u + 1)
            )
            moments[u] += w * integral
    m0, m1, m2 = moments
    return {
        "m0": m0,
        "m1": m1,
        "m2": m2,
        "c1": m1 - x * m0,
        "c2": m2 - 2 * x * m1 + x * x * m0,
    }


def _brute_moments_float(params: OperatorParams, pq: PQPair,
                         x: float) -> Dict[str, float]:
    handles = [polynomial_handle(key, coeffs) for key, coeffs in (
        ("m0", (1.0,)),
        ("m1", (0.0, 1.0)),
        ("m2", (0.0, 0.0, 1.0)),
        ("c1", (-x, 1.0)),
        ("c2", (x * x, -2.0 * x, 1.0)),
    )]
    values = operator_profile(handles, params, pq, [x])[:, 0].tolist()
    return {h.name: v for h, v in zip(handles, values)}


def verify_moments(params: OperatorParams, pq: PQPair, x: Scalar,
                   arithmetic: str = "float") -> MomentReport:
    """Fill a MomentReport comparing closed forms with direct summation.

    arithmetic="exact" requires rational p, q, x, alpha, beta, b_n and
    n+m <= 12 (rational size blows up beyond; twelve is ample to decide
    identities).  Residuals are reported, never asserted.
    """
    if arithmetic not in ("float", "exact"):
        raise DomainError(f"arithmetic must be 'float' or 'exact', got {arithmetic!r}")
    if arithmetic == "exact":
        if params.degree > EXACT_DEGREE_CAP:
            raise SizeCapError(
                f"exact mode capped at n+m <= {EXACT_DEGREE_CAP}, got {params.degree}"
            )
        if not (params.is_exact(pq) and isinstance(x, Rational)):
            raise DomainError(
                "exact mode requires rational p, q, x, alpha, beta, b_n"
            )
        exact_params = OperatorParams(
            n=params.n, m=params.m, alpha=Fraction(params.alpha),
            beta=Fraction(params.beta), b_n=Fraction(params.b_n), mode=params.mode,
        )
        x = Fraction(x)
        brute = _brute_moments_exact(exact_params, pq, x)
        closed = {
            "m0": moment_closed(0, exact_params, pq, x),
            "m1": moment_closed(1, exact_params, pq, x),
            "m2": moment_closed(2, exact_params, pq, x),
            "c1": moment_closed("central1", exact_params, pq, x),
            "c2": moment_closed("central2", exact_params, pq, x),
        }
        params = exact_params
    else:
        xf = float(x)
        fparams = OperatorParams(
            n=params.n, m=params.m, alpha=float(params.alpha),
            beta=float(params.beta), b_n=float(params.b_n), mode=params.mode,
        )
        fpq = PQPair(float(pq.p), float(pq.q))
        brute = _brute_moments_float(fparams, fpq, xf)
        closed = {
            "m0": float(moment_closed(0, fparams, fpq, xf)),
            "m1": float(moment_closed(1, fparams, fpq, xf)),
            "m2": float(moment_closed(2, fparams, fpq, xf)),
            "c1": float(moment_closed("central1", fparams, fpq, xf)),
            "c2": float(moment_closed("central2", fparams, fpq, xf)),
        }
        params, pq, x = fparams, fpq, xf
    residuals = {k: closed[k] - brute[k] for k in MOMENT_KEYS}
    return MomentReport(
        params=params, pq=pq, x=x, mode=params.mode, arithmetic=arithmetic,
        closed=closed, brute=brute, residuals=residuals,
    )
