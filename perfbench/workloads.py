"""The four benchmark workloads as lists of CLI operations.

Each operation is one call of `pqkanto.cli.main(argv)`.  Output paths are
relative: every round of a workload runs in a fresh directory of its own.
The seed picks only values that leave the amount of work unchanged
(evaluation points with fixed denominators, and the rows the checks
sample), so run-to-run timing does not depend on it.

`known_fault` names the program fault behind an operation that fails on
every run today; such an operation is counted in `failed` and does not
make the run incorrect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

WORKLOADS = ("bounds-grid", "sweep-default", "series-slow", "verify-exact")

# ROADMAP 3a and 3b, the two faults the benchmark keeps as failed operations.
FAULT_OVERFLOW = ("_weights_float overflows its cumprod of r-binomial ratios "
                  "past degree ~1030; the sweep writes nan and exits 0 (ROADMAP 3a)")
FAULT_TERM_CAP = ("series inner integral needs ~ln(tol)/ln(q/p) > TERM_CAP = 1e6 "
                  "terms at q/p -> 1; ConvergenceError, exit 3 (ROADMAP 3b)")


@dataclass
class Op:
    """One CLI call plus what the checks need to know about it."""

    id: str
    argv: List[str]
    kind: str
    meta: Dict = field(default_factory=dict)
    known_fault: Optional[str] = None


def default_seq(n: int):
    """The package's default sequence rule p_n, q_n, b_n, written out here."""
    return 1.0 - 1.0 / (n + 1) ** 2, 1.0 - 2.0 / (n + 1) ** 2, float(n) ** (1.0 / 3.0)


def _replay(source: Op, manifest: str) -> Op:
    return Op(id=f"replay of {source.id}",
              argv=["replay", manifest, "--outdir", f"replay_{source.meta['out']}"],
              kind="replay", meta={"source": source.id})


# Two operator settings, both with nonzero m, alpha, beta and b_n != 1,
# both at q/p close to 0.89.
BOUNDS_SETTINGS = (
    {"n": 50, "m": 2, "alpha": "1", "beta": "2", "bn": "3", "p": "0.9", "q": "0.8"},
    {"n": 20, "m": 1, "alpha": "1/2", "beta": "1", "bn": "2", "p": "0.95", "q": "0.85"},
)
# sin, absdev, lip and bump have no exact second modulus, so `bounds`
# estimates it on a grid; square has no exact first modulus, so it runs
# the grid first modulus instead.
BOUNDS_FUNCTIONS = ("sin", "absdev:0.5", "lip:0.5:0.5", "bump:2", "square")
BOUNDS_GRID = 9
BOUNDS_SAMPLED_ROWS = 3


def bounds_grid(rng: random.Random) -> List[Op]:
    ops = []
    for si, s in enumerate(BOUNDS_SETTINGS):
        for fn in BOUNDS_FUNCTIONS:
            out = f"bounds_{si}_{fn.replace(':', '_')}.csv"
            argv = ["bounds", "--fn", fn, "--grid", str(BOUNDS_GRID), "--out", out]
            for key in ("n", "m", "alpha", "beta", "bn", "p", "q"):
                argv += [f"--{key}", str(s[key])]
            rows = sorted(rng.sample(range(BOUNDS_GRID), BOUNDS_SAMPLED_ROWS))
            ops.append(Op(id=f"bounds {fn} setting{si}", argv=argv, kind="bounds",
                          meta={"fn": fn, "out": out, "rows": rows, **s}))
    ops.append(_replay(ops[0], ops[0].meta["out"] + ".manifest.json"))
    return ops


SWEEP_N = (10, 50, 100, 200, 400, 800)
SWEEP_EXTRAS = ("absdev:1", "bump:2")


def sweep_default(rng: random.Random) -> List[Op]:
    ops = []
    extras = [a for name in SWEEP_EXTRAS for a in ("--extra", name)]
    for n in SWEEP_N + (1100, 3000):
        out = f"sweep_{n}.csv"
        ops.append(Op(id=f"converge n={n}", argv=["converge", "--n-list", str(n)]
                      + extras + ["--out", out], kind="sweep",
                      meta={"n": n, "out": out},
                      known_fault=FAULT_OVERFLOW if n > 1000 else None))
    ops.append(Op(id="converge vanishing bump:2",
                  argv=["converge", "--vanishing", "bump:2", "--out", "vanishing.csv"],
                  kind="vanishing", meta={"out": "vanishing.csv", "n_list": SWEEP_N}))
    ops.append(_replay(ops[0], ops[0].meta["out"] + ".manifest.json"))
    return ops


SERIES_N = (50, 100, 150, 200)
SERIES_FUNCTIONS = ("sin", "lip:1:0.5")


def series_slow(rng: random.Random) -> List[Op]:
    # Left out, see README: lip at n = 200 fails exactly like sin (the same
    # fault, ROADMAP 3b), and lip at p = q = 1 fails or passes depending on x
    # (Gauss-Legendre misses its kink by up to ~1e-5 relative).
    ops = []
    cases = [(n, fn, True) for n in SERIES_N for fn in SERIES_FUNCTIONS
             if n < SERIES_N[-1] or fn == "sin"]
    cases.append((SERIES_N[-1], "sin", False))
    for n, fn, deformed in cases:
        p, q, b = default_seq(n)
        if not deformed:
            p = q = 1.0
        # x = b * k / 1000: the series cost does not depend on x
        x = b * rng.randint(1, 999) / 1000.0
        out = f"eval_{n}_{fn.replace(':', '_')}_{'pq' if deformed else 'classical'}.json"
        argv = ["eval", "--fn", fn, "--x", repr(x), "--n", str(n), "--bn", repr(b),
                "--p", repr(p), "--q", repr(q), "--json", out]
        fault = FAULT_TERM_CAP if deformed and n == SERIES_N[-1] else None
        ops.append(Op(id=f"eval {fn} n={n} {'q/p->1' if deformed else 'p=q=1'}",
                      argv=argv, kind="eval",
                      meta={"fn": fn, "n": n, "x": x, "bn": b, "p": p, "q": q, "out": out},
                      known_fault=fault))
    ops.append(_replay(ops[0], ops[0].meta["out"] + ".manifest.json"))
    return ops


VERIFY_DEGREES = range(2, 13)
VERIFY_PQ = (("9/10", "4/5"), ("1", "1"))
VERIFY_MODES = ("normalized", "literal")
VERIFY_X_DEN = 7


def verify_exact(rng: random.Random) -> List[Op]:
    ops = []
    # the literal mass defect at n+m = 2 is exactly 3/40 (see README)
    defect = {"n": 2, "m": 0, "alpha": "0", "beta": "0", "bn": "1", "p": "9/10",
              "q": "4/5", "x": "1/2", "mode": "literal"}
    cases = [dict(defect, exact=True, defect=True)]
    for deg in VERIFY_DEGREES:
        m = min(deg % 3, deg - 1)
        for p, q in VERIFY_PQ:
            for mode in VERIFY_MODES:
                # two exact reports at x = 2k/7 in [0, b_n = 2] (the fixed
                # denominator keeps the cost fixed) and a float one at the first
                ks = rng.sample(range(1, VERIFY_X_DEN), 2)
                for i, k in enumerate(ks):
                    base = {"n": deg - m, "m": m, "alpha": "1/2", "beta": "1", "bn": "2",
                            "p": p, "q": q, "x": f"{2 * k}/{VERIFY_X_DEN}", "mode": mode}
                    cases.append(dict(base, exact=True, defect=False))
                    if i == 0:
                        cases.append(dict(base, exact=False, defect=False))
    for i, c in enumerate(cases):
        out = f"verify_{i}.json"
        argv = ["verify", "--out", out] + (["--exact"] if c["exact"] else [])
        for key in ("n", "m", "alpha", "beta", "bn", "p", "q", "x", "mode"):
            argv += [f"--{key}", str(c[key])]
        label = "exact" if c["exact"] else "float"
        ops.append(Op(id=f"verify {label} {c['mode']} n+m={c['n'] + c['m']} "
                         f"p={c['p']} x={c['x']}",
                      argv=argv, kind="verify", meta=dict(c, out=out)))
    ops.append(_replay(ops[1], ops[1].meta["out"] + ".manifest.json"))
    return ops


_BUILDERS = {
    "bounds-grid": bounds_grid,
    "sweep-default": sweep_default,
    "series-slow": series_slow,
    "verify-exact": verify_exact,
}


def build(workload: str, seed: int) -> List[Op]:
    """The operations of one round; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
