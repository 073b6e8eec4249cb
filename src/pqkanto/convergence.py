"""Convergence experiments in the weighted space with weight 1 + x^2.

A `SequenceSpec` supplies parameter sequences p_n, q_n and scales b_n.
Convergence of the extended operator on the test set {1, t, t^2} (and
hence on the whole weighted class) requires

    0 < q_n < p_n <= 1,   p_n^n and q_n^n bounded,   b_n / [n] -> 0,

and the vanishing-function experiment additionally b_n^2 / [n] -> 0;
`hypothesis_check` evaluates all of these numerically.  The default
sequences

    p_n = 1 - 1/(n+1)^2,   q_n = 1 - 2/(n+1)^2,   b_n = n^{1/3}

satisfy every condition: q_n < p_n < 1, p_n^n and q_n^n -> 1, and
[n] ~ n so both b_n/[n] ~ n^{-2/3} and b_n^2/[n] ~ n^{-1/3} vanish.

`sweep_rows` is the one sweep: per n, the sup errors of any handles
from one operator profile.  The Korovkin sweep passes the test set
{1, t, t^2} (plus extras) weighted by 1 + x^2, the vanishing sweep one
handle with a support bound unweighted; `pqkanto converge` builds both.
Errors are measured on a uniform grid of [0, b_n] (257 points by
default); beyond b_n the extension makes the error identically zero, so
the grid restriction is exact.  All sweeps are deterministic: identical
inputs give bit-identical CSV output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .functions import FunctionHandle
from .operators import OperatorParams, operator_profile
from .pq_calculus import PQPair, pq_integer

DEFAULT_N_LIST = (10, 50, 100, 200, 400, 800)
DEFAULT_GRID_POINTS = 257

#: Named builtin sequence rules: name -> (p_of_n, q_of_n, b_of_n).
SEQUENCE_RULES: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "default": (
        lambda n: 1.0 - 1.0 / (n + 1) ** 2,
        lambda n: 1.0 - 2.0 / (n + 1) ** 2,
        lambda n: float(n) ** (1.0 / 3.0),
    ),
}


@dataclass(frozen=True)
class SequenceSpec:
    """Index-to-parameter rules plus the indices to sweep.

    Either `rule` names a builtin from SEQUENCE_RULES, or explicit tables
    aligned with n_list are given.  Every n must satisfy
    0 < q_n < p_n <= 1 and b_n > 0 for the sweeps to run."""

    n_list: Tuple[int, ...]
    rule: Optional[str] = None
    p_table: Optional[Tuple[float, ...]] = None
    q_table: Optional[Tuple[float, ...]] = None
    b_table: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not self.n_list or any(n <= 0 for n in self.n_list):
            raise DomainError("n_list must be nonempty positive integers")
        if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
            raise DomainError("n_list must be strictly increasing")
        if self.rule is not None:
            if not isinstance(self.rule, str) or self.rule not in SEQUENCE_RULES:
                raise DomainError(
                    f"unknown rule {self.rule!r}; builtins: {sorted(SEQUENCE_RULES)}"
                )
        else:
            tables = (self.p_table, self.q_table, self.b_table)
            if any(t is None for t in tables):
                raise DomainError("need either a rule name or p/q/b tables")
            if any(len(t) != len(self.n_list) for t in tables):
                raise DomainError("tables must align with n_list")

    def realize(self, n: int) -> Tuple[float, float, float]:
        """(p_n, q_n, b_n) for one index."""
        if self.rule is not None:
            p_of, q_of, b_of = SEQUENCE_RULES[self.rule]
            return float(p_of(n)), float(q_of(n)), float(b_of(n))
        i = self.n_list.index(n)
        return float(self.p_table[i]), float(self.q_table[i]), float(self.b_table[i])


def default_spec(n_list: Sequence[int] = DEFAULT_N_LIST) -> SequenceSpec:
    return SequenceSpec(n_list=tuple(int(n) for n in n_list), rule="default")


def hypothesis_check(spec: SequenceSpec) -> dict:
    """Per-n validity booleans and numerical trend estimates.

    Report-only: rows carry p_n^n, q_n^n, b_n/[n] and b_n^2/[n]; the
    trend verdicts call a ratio sequence vanishing when its last value
    drops below half its first.  Sweeps refuse to run on invalid rows.
    A valid row whose float [n] underflows to 0 raises DomainError.
    """
    rows = []
    for n in spec.n_list:
        p_n, q_n, b_n = spec.realize(n)
        valid = 0.0 < q_n < p_n <= 1.0 and b_n > 0.0
        bracket = float(pq_integer(n, PQPair(p_n, q_n))) if valid else None
        if bracket == 0:
            raise DomainError(f"[n] underflows to 0 at n={n}: p_n={p_n}, q_n={q_n}")
        rows.append({
            "n": n, "p_n": p_n, "q_n": q_n, "b_n": b_n, "valid": valid,
            "p_pow_n": p_n ** n if valid else None,
            "q_pow_n": q_n ** n if valid else None,
            "bn_over_bracket": b_n / bracket if valid else None,
            # b_n * (b_n / [n]) only where b_n^2 is past the float range
            "bn2_over_bracket": (b_n * b_n / bracket if b_n * b_n < math.inf
                                 else b_n * (b_n / bracket)) if valid else None,
        })

    def trend(key: str) -> dict:
        vals = [r[key] for r in rows if r[key] is not None]
        if len(vals) < 2:
            return {"values": vals, "verdict": "insufficient"}
        decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        vanishing = vals[-1] <= 0.5 * vals[0]
        return {
            "first": vals[0], "last": vals[-1],
            "monotone_decreasing": decreasing,
            "verdict": "vanishing" if vanishing else "non-vanishing",
        }

    def boundedness(key: str) -> dict:
        vals = [r[key] for r in rows if r[key] is not None]
        if not vals:
            return {"verdict": "insufficient"}
        return {
            "first": vals[0], "last": vals[-1], "max": max(vals),
            "verdict": "bounded" if max(vals) <= 1.0 + 1e-12 else "unbounded",
        }

    return {
        "rows": rows,
        "all_valid": all(r["valid"] for r in rows),
        "trends": {
            "p_pow_n": boundedness("p_pow_n"),
            "q_pow_n": boundedness("q_pow_n"),
            "bn_over_bracket": trend("bn_over_bracket"),
            "bn2_over_bracket": trend("bn2_over_bracket"),
        },
    }


def _require_valid(spec: SequenceSpec) -> dict:
    report = hypothesis_check(spec)
    if not report["all_valid"]:
        bad = [r for r in report["rows"] if not r["valid"]]
        detail = "; ".join(
            f"n={r['n']}: p_n={r['p_n']}, q_n={r['q_n']}, b_n={r['b_n']}" for r in bad
        )
        raise DomainError(f"sequence spec violates 0 < q_n < p_n <= 1, b_n > 0 at: {detail}")
    return report


def sweep_rows(spec: SequenceSpec, fs: Sequence[FunctionHandle], m: int = 0,
               alpha: float = 0.0, beta: float = 0.0,
               grid_points: int = DEFAULT_GRID_POINTS, rel_tol: float = 1e-12,
               weighted: bool = True) -> List[list]:
    """One row [n, p_n, q_n, b_n, err per f] per n of a valid spec: the max
    over a uniform [0, b_n] grid of |Kf(x) - f(x)|, divided by 1 + x^2 when
    weighted, for every f in fs from one operator profile.  Unweighted
    errors need handles with a support bound.  An error that is not finite
    raises DomainError."""
    if not weighted and any(f.support_bound is None for f in fs):
        raise DomainError("vanishing sweep requires a handle with support_bound")
    _require_valid(spec)
    rows = []
    for n in spec.n_list:
        p_n, q_n, b_n = spec.realize(n)
        params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
        if grid_points < 2:
            raise DomainError("grid_points must be at least 2")
        xs = np.linspace(0.0, b_n, grid_points)
        values = operator_profile(fs, params, PQPair(p_n, q_n), xs, rel_tol)
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
            scale = 1.0 + xs * xs if weighted else 1.0
            errs = [float(np.max(np.abs(kf - np.asarray(f.evaluator(xs), dtype=float)) / scale))
                    for f, kf in zip(fs, values)]
        if not np.isfinite(errs).all():
            raise DomainError(f"sup error is not finite at n={n}: f(x) is past the float "
                              f"range on [0, b_n], b_n={b_n}")
        rows.append([n, p_n, q_n, b_n, *errs])
    return rows
