"""Output checks, computed apart from the program.

Each check compares a file or printed value the CLI produced with one of:

  * the operator evaluated in `mpmath` at 30 digits from its definition:
    (p,q)-binomial weights from the product form, the node map from
    (p,q)-integers, and inner integrals from the series definition
    (p-q) sum_j t_j g(t_j), t_j = (q/p)^j / p, summed directly near the
    integrand's kink and by the Taylor series of g at t = 0 beyond it
    (each Taylor term is a geometric series in closed form), or by closed
    antiderivatives at p = q = 1;
  * exact `Fraction` moments from the product definition;
  * closed-form moduli of smoothness;
  * properties the operator must have (reproduced constants, decay of
    the Korovkin errors along n, the proven modulus bound, `holds_*`);
  * byte-identical replay.

No check compares with a stored copy of earlier output.  A check returns
None when the operation passes, else the reason it failed.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import mpmath as mp
import numpy as np

mp.mp.dps = 30

REL_TOL = 1e-9        # program value vs 30-digit value (series rel_tol is 1e-12)
FLOAT_VS_EXACT = 1e-12
MAX_DIRECT_TERMS = 400_000


def _mpf(text) -> mp.mpf:
    """The value the program computes with: the double nearest the flag."""
    return mp.mpf(float(Fraction(str(text))))


def _close(got: float, want, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return math.isfinite(got) and abs(mp.mpf(got) - want) <= rel * abs(want) + abs_


# -- integrands -----------------------------------------------------------


class Integrand:
    """f on [0, inf) with what the oracle needs: its value, an
    antiderivative (classical inner integrals), the Taylor data of
    g(t) = f(A + B t) at t = 0, and closed-form moduli."""

    def __init__(self, name: str):
        self.name = name
        head, _, rest = name.partition(":")
        self.kind = head
        args = [mp.mpf(float(v)) for v in rest.split(":")] if rest else []
        self.coeffs = {"const1": (1,), "id": (0, 1), "square": (0, 0, 1)}.get(head)
        if head == "absdev":
            self.kink, self.gamma = args[0], mp.mpf(1)
        elif head == "lip":
            self.kink, self.gamma = args[0], args[1]
        elif head == "bump":
            self.c = args[0]
        elif head != "sin" and self.coeffs is None:
            raise ValueError(f"no oracle for {name!r}")

    def __call__(self, u):
        if self.coeffs is not None:
            return sum(c * u ** i for i, c in enumerate(self.coeffs))
        if self.kind == "sin":
            return mp.sin(u)
        if self.kind == "bump":
            return max(mp.mpf(0), 1 - u / self.c)
        return abs(u - self.kink) ** self.gamma

    def long_double(self, u: np.ndarray) -> np.ndarray:
        """f on a long-double array (64-bit mantissa), for the direct sums."""
        ld = lambda v: np.longdouble(mp.nstr(v, 25))  # noqa: E731
        if self.kind == "sin":
            return np.sin(u)
        if self.kind == "bump":
            return np.maximum(0, 1 - u / ld(self.c))
        if self.kind in ("absdev", "lip"):
            return np.abs(u - ld(self.kink)) ** ld(self.gamma)
        return sum(ld(c) * u ** i for i, c in enumerate(self.coeffs))

    def antiderivative(self, u):
        if self.coeffs is not None:
            return sum(mp.mpf(c) * u ** (i + 1) / (i + 1) for i, c in enumerate(self.coeffs))
        if self.kind == "sin":
            return -mp.cos(u)
        if self.kind == "bump":
            return u - u * u / (2 * self.c) if u <= self.c else self.c / 2
        d = u - self.kink
        return mp.sign(d) * abs(d) ** (self.gamma + 1) / (self.gamma + 1)

    def taylor(self, a, b):
        """(radius, coefficient iterator, fractional power) of g(t) = f(a + b t)
        about t = 0.  The power form (c, e) means g(t) = c * t^e exactly."""
        if self.coeffs is not None:
            deg = len(self.coeffs) - 1
            out = [mp.mpf(0)] * (deg + 1)
            for u, c in enumerate(self.coeffs):
                for j in range(u + 1):
                    out[j] += c * mp.binomial(u, j) * a ** (u - j) * b ** j
            return mp.inf, iter(out), None
        if self.kind == "sin":
            def sin_coeffs():
                k, bk, fact = 0, mp.mpf(1), mp.mpf(1)
                while True:
                    yield bk / fact * mp.sin(a + k * mp.pi / 2)
                    k += 1
                    bk *= b
                    fact *= k
            return mp.inf, sin_coeffs(), None
        if self.kind == "bump":
            if a >= self.c:
                return mp.inf, iter([mp.mpf(0)]), None
            return (self.c - a) / b, iter([1 - a / self.c, -b / self.c]), None
        c = a - self.kink
        if c == 0:
            return mp.inf, iter([]), (b ** self.gamma, self.gamma)
        gamma = self.gamma

        def binomial_coeffs():
            k, coef = 0, abs(c) ** gamma
            while True:
                yield coef
                coef *= (gamma - k) / (k + 1) * (b / c)
                k += 1
        return abs(c) / b, binomial_coeffs(), None

    def modulus(self, delta):
        """Exact first modulus over [0, inf) (None for square: unbounded)."""
        if self.kind == "sin":
            return 2 * mp.sin(delta / 2) if delta < mp.pi else mp.mpf(2)
        if self.kind == "bump":
            return min(mp.mpf(1), delta / self.c)
        if self.kind in ("absdev", "lip"):
            return delta ** self.gamma
        return None

    def second_modulus_upper(self, delta):
        """Closed-form upper value of the second modulus at delta."""
        if self.kind == "sin":
            return 4 * mp.sin(delta / 2) ** 2 if delta <= mp.pi else mp.mpf(4)
        if self.kind == "square":
            return 2 * delta * delta
        return 2 * self.modulus(delta)


# -- the operator from its definition ---------------------------------------


class Operator:
    """The scaled operator at 30 digits, normalized basis."""

    def __init__(self, n: int, m: int, alpha, beta, bn, p, q):
        self.deg = n + m
        self.bn = bn
        self.p, self.q = p, q
        br = [mp.mpf(0)]
        for k in range(self.deg + 2):   # [k+1] = p^k + q [k]
            br.append(p ** k + q * br[-1])
        self.br = br
        fact = [mp.mpf(1)]
        for k in range(1, self.deg + 1):
            fact.append(fact[-1] * br[k])
        self.binom = [fact[self.deg] / (fact[k] * fact[self.deg - k])
                      for k in range(self.deg + 1)]
        den = br[n + 1] + beta
        self.a = [(br[k] + alpha) * bn / den for k in range(self.deg + 1)]
        self.b = [(br[k + 1] - br[k]) * bn / den for k in range(self.deg + 1)]
        self.hull = (br[self.deg + 1] / p + alpha) * bn / den
        self.classical = p == 1 and q == 1

    def weights(self, x):
        p, q, deg = self.p, self.q, self.deg
        s = x / self.bn
        prefix = [mp.mpf(1)]   # prefix[i] = prod_{j<i} (p^j - q^j s)
        for j in range(deg):
            prefix.append(prefix[-1] * (p ** j - q ** j * s))
        return [self.binom[k] * s ** k * prefix[deg - k]
                * p ** (mp.mpf(k * (k - 1) - deg * (deg - 1)) / 2)
                for k in range(deg + 1)]

    def monomial(self, j: int):
        """Integral of t^j: the geometric series (p-q) sum_i t_i^{j+1}."""
        if self.p == self.q:
            return mp.mpf(1) / (j + 1)
        return (self.p - self.q) / (self.p ** (j + 1) - self.q ** (j + 1))

    def inner(self, f: Integrand, k: int):
        a, b = self.a[k], self.b[k]
        if self.classical:
            return (f.antiderivative(a + b) - f.antiderivative(a)) / b
        p, q = self.p, self.q
        r = q / p
        radius, coeffs, power = f.taylor(a, b)
        # direct sum over the nodes above radius/2, where the Taylor series
        # at 0 may not converge; afterwards t_J <= radius/2
        terms = 0
        if radius != mp.inf and 1 / p > radius / 2:
            terms = int(mp.ceil(mp.log(2 / (p * radius)) / -mp.log(r)))
        if terms > MAX_DIRECT_TERMS:
            raise ValueError(f"{f.name}: {terms} direct terms at node {k}")
        # the direct part runs in long double: ~1e-19 relative per term, far
        # below the 1e-9 tolerance, and fast enough for 1e5 terms
        direct = mp.mpf(0)
        if terms:
            ld = lambda v: np.longdouble(mp.nstr(v, 25))  # noqa: E731
            ts = ld(r) ** np.arange(terms, dtype=np.longdouble) / ld(p)
            total = np.sum(ts * f.long_double(ld(a) + ld(b) * ts))
            direct = mp.mpf(np.format_float_scientific(total, precision=21))
        t = r ** terms / p
        tail = mp.mpf(0)
        if power is not None:
            c, e = power
            tail = c * t ** (e + 1) / (1 - r ** (e + 1))
        eps = mp.mpf(10) ** (-mp.mp.dps)
        small = 0
        tk = t
        for i, ck in enumerate(coeffs):
            term = ck * tk / (1 - r ** (i + 1))
            tail += term
            tk *= t
            small = small + 1 if abs(term) <= eps * (abs(tail) + eps) else 0
            if small >= 3 or i > 5000:
                break
        return (p - q) * (direct + tail)

    def apply(self, f: Integrand, xs) -> List:
        inner = [self.inner(f, k) for k in range(self.deg + 1)]
        return [mp.fsum(w * i for w, i in zip(self.weights(x), inner)) for x in xs]

    def central2(self, x):
        m = [self.monomial(j) for j in range(3)]
        return mp.fsum(w * ((a - x) ** 2 * m[0] + 2 * (a - x) * b * m[1] + b * b * m[2])
                       for w, a, b in zip(self.weights(x), self.a, self.b))


def _operator(meta: dict) -> Operator:
    return Operator(int(meta["n"]), int(meta.get("m", 0)), _mpf(meta.get("alpha", 0)),
                    _mpf(meta.get("beta", 0)), _mpf(meta["bn"]), _mpf(meta["p"]),
                    _mpf(meta["q"]))


# -- readers ----------------------------------------------------------------


def read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(row: Dict[str, str], skip=("holds_lipschitz", "holds_modulus")) -> Dict[str, float]:
    out = {}
    for key, text in row.items():
        if key in skip or text == "":
            continue
        out[key] = float(text)
        if not math.isfinite(out[key]):
            raise ValueError(f"non-finite {key}={text}")
    return out


# -- per-kind checks ----------------------------------------------------------


def check_bounds(op, rdir: Path) -> Optional[str]:
    meta = op.meta
    f = Integrand(meta["fn"])
    rows = read_csv(rdir / meta["out"])
    try:
        values = [_floats(r) for r in rows]
    except ValueError as exc:
        return str(exc)
    exact_modulus = f.modulus(mp.mpf(1)) is not None
    for row, v in zip(rows, values):
        for flag in ("holds_lipschitz", "holds_modulus"):
            want = "true" if exact_modulus else ""
            if row[flag] != want:
                return f"x={row['x']}: {flag}={row[flag]!r}, expected {want!r}"
        delta = mp.sqrt(max(v["peetre_arg"], 0.0))
        upper = f.second_modulus_upper(delta)
        if mp.mpf(v["second_modulus_at_sqrt_peetre"]) > upper * (1 + 1e-12) + 1e-15:
            return (f"x={row['x']}: grid second modulus {v['second_modulus_at_sqrt_peetre']} "
                    f"exceeds closed-form {mp.nstr(upper, 17)}")
    K = _operator(meta)
    for i in meta["rows"]:
        v = values[i]
        x = mp.mpf(v["x"])
        c2 = K.central2(x)
        if not _close(v["second_central_moment"], c2):
            return (f"x={v['x']}: second_central_moment {v['second_central_moment']} "
                    f"vs 30-digit {mp.nstr(c2, 17)}")
        root = mp.sqrt(c2)
        if exact_modulus:
            bound = 2 * f.modulus(root)
            if mp.mpf(v["observed_error"]) > bound * (1 + REL_TOL) + 1e-12:
                return f"x={v['x']}: observed error above 2*omega(sqrt(central2))"
            if not _close(v["modulus_at_sqrt_moment"], f.modulus(mp.mpf(v["second_central_moment"]) ** 0.5)):
                return f"x={v['x']}: modulus_at_sqrt_moment is not the exact modulus"
        else:   # grid estimate of the first modulus of x^2 over [0, hull]
            d = mp.mpf(v["second_central_moment"]) ** 0.5
            exact = 2 * K.hull * d - d * d if d <= K.hull else K.hull ** 2
            if mp.mpf(v["modulus_at_sqrt_moment"]) > exact * (1 + 1e-12):
                return f"x={v['x']}: grid modulus above the exact modulus of x^2"
    return None


def check_sweep_rows(op, rdir: Path, oracle: bool) -> Tuple[Optional[str], Dict]:
    rows = read_csv(rdir / op.meta["out"])
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1", {}
    try:
        v = _floats(rows[0])
    except ValueError as exc:
        return str(exc), {}
    if v["err_e0"] > 1e-9:
        return f"err_e0={v['err_e0']} > 1e-9: constants not reproduced", v
    if oracle:
        n = op.meta["n"]
        p, q, b = (mp.mpf(v[k]) for k in ("p_n", "q_n", "b_n"))
        K = Operator(n, 0, mp.mpf(0), mp.mpf(0), b, p, q)
        xs = [b * i / 256 for i in range(257)]
        for key, name in (("err_e0", "const1"), ("err_e1", "id"), ("err_e2", "square"),
                          ("err_absdev:1", "absdev:1"), ("err_bump:2", "bump:2")):
            f = Integrand(name)
            kf = K.apply(f, xs)
            err = max(abs(k - f(x)) / (1 + x * x) for k, x in zip(kf, xs))
            if key == "err_e0":
                ok = v[key] <= 1e-12
            else:
                ok = _close(v[key], err)
            if not ok:
                return f"n={n}: {key}={v[key]} vs 30-digit {mp.nstr(err, 17)}", v
    return None, v


def check_vanishing(op, rdir: Path) -> Optional[str]:
    rows = read_csv(rdir / op.meta["out"])
    try:
        values = [_floats(r) for r in rows]
    except ValueError as exc:
        return str(exc)
    if [int(v["n"]) for v in values] != list(op.meta["n_list"]):
        return "rows do not follow the default n-list"
    errs = [v["err_sup"] for v in values]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return f"vanishing error does not decrease along n: {errs}"
    v = values[0]
    b = mp.mpf(v["b_n"])
    K = Operator(int(v["n"]), 0, mp.mpf(0), mp.mpf(0), b, mp.mpf(v["p_n"]), mp.mpf(v["q_n"]))
    f = Integrand("bump:2")
    xs = [b * i / 256 for i in range(257)]
    err = max(abs(k - f(x)) for k, x in zip(K.apply(f, xs), xs))
    if not _close(v["err_sup"], err):
        return f"n={v['n']}: err_sup={v['err_sup']} vs 30-digit {mp.nstr(err, 17)}"
    return None


def check_eval(op, rdir: Path, stdout: str) -> Optional[str]:
    meta = op.meta
    value = float(stdout.strip().splitlines()[-1])
    stored = json.loads((rdir / meta["out"]).read_text())["value"]
    if not math.isfinite(value) or stored != value:
        return f"printed value {value} vs JSON value {stored}"
    f = Integrand(meta["fn"])
    K = _operator(meta)
    x = _mpf(repr(meta["x"]))
    want = K.apply(f, [x])[0]
    if not _close(value, want):
        return f"value {value!r} vs 30-digit {mp.nstr(want, 17)}"
    bound = 2 * f.modulus(mp.sqrt(K.central2(x)))
    if abs(mp.mpf(value) - f(x)) > bound * (1 + REL_TOL) + 1e-12:
        return f"|Kf - f| = {abs(value - float(f(x)))} above 2*omega(sqrt(central2))"
    return None


# -- verify: exact moments from the product definition -----------------------


def _bracket(k: int, p: Fraction, q: Fraction) -> Fraction:
    return sum((p ** (k - 1 - i) * q ** i for i in range(k)), Fraction(0))


def exact_moments(meta: dict) -> Dict[str, Fraction]:
    """Direct-summation moments in Fraction arithmetic, from the product
    definition of the basis and the series definition of the integral."""
    F = lambda key: Fraction(str(meta[key]))  # noqa: E731
    n, m = int(meta["n"]), int(meta["m"])
    alpha, beta, bn, p, q, x = (F(k) for k in ("alpha", "beta", "bn", "p", "q", "x"))
    deg = n + m
    s = x / bn

    def factorial(k):
        out = Fraction(1)
        for j in range(1, k + 1):
            out *= _bracket(j, p, q)
        return out

    def monomial(j):
        if p == q:
            return 1 / _bracket(j + 1, p, q)
        return (p - q) / (p ** (j + 1) - q ** (j + 1))

    mono = [monomial(j) for j in range(3)]
    den = _bracket(n + 1, p, q) + beta
    out = dict.fromkeys(("m0", "m1", "m2", "c1", "c2"), Fraction(0))
    for k in range(deg + 1):
        prod = Fraction(1)
        for j in range(deg - k):
            prod *= p ** j - q ** j * s
        w = factorial(deg) / (factorial(k) * factorial(deg - k)) * s ** k * prod
        if meta["mode"] == "normalized":
            w *= p ** ((k * (k - 1) - deg * (deg - 1)) // 2)
        a = (_bracket(k, p, q) + alpha) * bn / den
        b = (_bracket(k + 1, p, q) - _bracket(k, p, q)) * bn / den
        for key, c in (("m0", 0), ("m1", 0), ("m2", 0), ("c1", x), ("c2", x)):
            u = {"m0": 0, "m1": 1, "m2": 2, "c1": 1, "c2": 2}[key]
            shift = a - c
            out[key] += w * sum(math.comb(u, j) * shift ** (u - j) * b ** j * mono[j]
                                for j in range(u + 1))
    return out


def check_verify(op, rdir: Path, twin: Optional[dict]) -> Optional[str]:
    """`twin` is the checked report of the exact operation on the same inputs
    (for float reports), or None."""
    meta = op.meta
    report = json.loads((rdir / meta["out"]).read_text())
    keys = ("m0", "m1", "m2", "c1", "c2")
    if meta["exact"]:
        got = {part: {k: Fraction(str(report[part][k])) for k in keys}
               for part in ("closed", "brute", "residuals")}
        own = exact_moments(meta)
        for k in keys:
            if got["brute"][k] != own[k]:
                return f"brute {k} = {got['brute'][k]}, product definition gives {own[k]}"
            if got["residuals"][k] != got["closed"][k] - got["brute"][k]:
                return f"residual {k} is not closed - brute"
        if meta["p"] == meta["q"] == "1" and any(got["residuals"][k] != 0 for k in keys):
            return "nonzero residual at p = q = 1"
        if meta.get("defect") and got["residuals"]["m0"] != Fraction(3, 40):
            return f"literal m0 defect {got['residuals']['m0']}, expected 3/40"
        return None
    if twin is None:
        return "the exact report on the same inputs failed, nothing to compare"
    for part in ("closed", "brute", "residuals"):
        for k in keys:
            value, exact = report[part][k], Fraction(str(twin[part][k]))
            if not (math.isfinite(value)
                    and abs(Fraction(value) - exact) <= FLOAT_VS_EXACT * max(1, abs(exact))):
                return f"float {part} {k} = {value!r} vs exact {float(exact)!r}"
    return None


def check_replay(op, source, rdir: Path) -> Optional[str]:
    replayed = sorted(p for p in (rdir / op.argv[-1]).rglob("*") if p.is_file())
    if not replayed:
        return "replay wrote no files"
    names = {source.meta["out"], source.meta["out"] + ".manifest.json"}
    if {p.name for p in replayed} != names:
        return f"replay wrote {[p.name for p in replayed]}, expected {sorted(names)}"
    for path in replayed:
        if path.read_bytes() != (rdir / path.name).read_bytes():
            return f"{path.name} differs from the original byte for byte"
    return None


# -- one round ------------------------------------------------------------------


def check_round(ops, results: List[dict], rdir: Path) -> List[Optional[str]]:
    """Verdict per operation of one round: None when it passed, else why it failed."""
    verdicts: List[Optional[str]] = [None] * len(ops)
    for i, res in enumerate(results):
        if res["exc"] is not None:
            verdicts[i] = f"exception: {res['exc']}"
        elif res["rc"] != 0:
            last = res["stderr"].strip().splitlines()[-1:] or [""]
            verdicts[i] = f"exit {res['rc']}: {last[0][:160]}"
    by_id = {op.id: i for i, op in enumerate(ops)}
    sweep: List[Tuple[int, Dict]] = []
    exact_reports: Dict[tuple, dict] = {}
    for i, op in enumerate(ops):
        if verdicts[i] is not None:
            continue
        try:
            if op.kind == "bounds":
                verdicts[i] = check_bounds(op, rdir)
            elif op.kind == "sweep":
                first = op.meta["n"] == min(o.meta["n"] for o in ops if o.kind == "sweep")
                verdicts[i], row = check_sweep_rows(op, rdir, oracle=first)
                if verdicts[i] is None:
                    sweep.append((i, row))
            elif op.kind == "vanishing":
                verdicts[i] = check_vanishing(op, rdir)
            elif op.kind == "eval":
                verdicts[i] = check_eval(op, rdir, results[i]["stdout"])
            elif op.kind == "verify":
                key = tuple(op.meta[k] for k in ("n", "m", "alpha", "beta", "bn", "p", "q",
                                                 "x", "mode"))
                verdicts[i] = check_verify(op, rdir, exact_reports.get(key))
                if op.meta["exact"] and verdicts[i] is None:
                    exact_reports[key] = json.loads((rdir / op.meta["out"]).read_text())
            elif op.kind == "replay":
                verdicts[i] = check_replay(op, ops[by_id[op.meta["source"]]], rdir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            verdicts[i] = f"unreadable output: {type(exc).__name__}: {exc}"
    # Korovkin errors of 1, t and t^2 decrease along n
    sweep.sort(key=lambda item: ops[item[0]].meta["n"])
    for (_i, prev), (j, row) in zip(sweep, sweep[1:]):
        for key in ("err_e1", "err_e2"):
            if row[key] >= prev[key]:
                verdicts[j] = f"{key} does not decrease from n={int(prev['n'])} to n={int(row['n'])}"
    return verdicts
