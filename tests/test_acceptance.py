"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
come; every tolerance is pinned here, nothing deferred.  Criterion 5c is
a reporting criterion: its residual archive lands in tests/_artifacts/.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from pqkanto import (
    OperatorParams,
    PQPair,
    apply_operator,
    basis_weights,
    builtin,
    default_spec,
    pq_integer,
    pq_integral_monomial,
    pq_power,
    polynomial_handle,
    sweep_rows,
    verify_moments,
)
from pqkanto.cli import main as cli_main
from pqkanto.functions import const1, identity, square
from pqkanto.moments import _direct_moments
from pqkanto.operators import operator_profile

from oracles import (apply_classical_reference, pq_binomial_expand, pq_integer_quotient,
                     pq_integral_unit)

ARTIFACTS = Path(__file__).parent / "_artifacts"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def random_rational_pair(rng: random.Random, max_den: int = 12):
    """0 < q < p <= 1 with small denominators."""
    while True:
        dp, dq = rng.randint(2, max_den), rng.randint(2, max_den)
        p = F(rng.randint(1, dp), dp)
        q = F(rng.randint(1, dq), dq)
        if 0 < q < p <= 1:
            return p, q


def test_criterion_1_pq_primitive_equivalence():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(200):
        p, q = random_rational_pair(rng)
        pq = PQPair(p, q)
        for n in range(1, 51):
            if pq_integer(n, pq) != pq_integer_quotient(n, pq):
                report("1", False, f"bracket mismatch at n={n}, p={p}, q={q}")
        checked += 1
    expansions = 0
    for _ in range(40):
        p, q = random_rational_pair(rng)
        pq = PQPair(p, q)
        a = F(rng.randint(-16, 16), rng.randint(1, 8))
        b = F(rng.randint(-16, 16), rng.randint(1, 8))
        for n in range(13):
            if pq_binomial_expand(a, b, n, pq) != pq_power(a, b, n, pq):
                report("1", False, f"expansion mismatch at n={n}, p={p}, q={q}")
            expansions += 1
    report("1", True,
           f"sum==quotient exactly for {checked} rational pairs, n<=50; "
           f"expansion==product exactly in {expansions} cases, n<=12")


def test_criterion_2_integral_oracle():
    rel_tol = 1e-12
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        p = float(rng.uniform(0.55, 1.0))
        q = p * float(rng.uniform(0.2, 0.99))
        pq = PQPair(p, q)
        for j in range(7):
            got = pq_integral_unit(lambda t, _j=j: t ** _j, pq, rel_tol=rel_tol)
            want = float(pq_integral_monomial(j, pq))
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            if err > 10 * rel_tol:
                report("2", False, f"j={j}, p={p}, q={q}: rel err {err:.3e}")
    report("2", True, f"700 monomial integrals within 10*rel_tol (worst {worst:.3e})")


def test_criterion_3_partition_of_unity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 38))
        m = int(rng.integers(0, min(4, 41 - n)))
        p = float(rng.uniform(0.5, 1.0))
        q = p * float(rng.uniform(0.05, 1.0))
        b_n = float(rng.uniform(0.5, 8.0))
        x = float(rng.uniform(0.0, 1.0)) * b_n
        params = OperatorParams(n=n, m=m, b_n=b_n)
        total = np.sum(basis_weights(params, PQPair(p, max(q, 1e-9)), x))
        worst = max(worst, abs(total - 1.0))
        if abs(total - 1.0) > 1e-12:
            report("3", False, f"sum {total} at n+m={n + m}, p={p}, q={q}")
    counter = np.sum(basis_weights(OperatorParams(n=2, mode="literal"), PQPair(0.9, 0.8),
                                   0.5))
    if abs(counter - 0.925) > 1e-12:
        report("3", False, f"literal counterexample sum {counter} != 0.925")
    report("3", True,
           f"500 normalized sums within 1e-12 (worst dev {worst:.3e}); "
           f"literal n+m=2 counterexample reproduces 0.925")


def test_criterion_4_classical_limit_oracle():
    p11 = PQPair(1, 1)
    handles = [builtin("const1"), builtin("id"), builtin("square"),
               polynomial_handle("cubic", (0.5, 0.0, -1.0, 2.0)), builtin("sin")]
    worst = 0.0
    count = 0
    for n, m in ((1, 0), (4, 2), (10, 0), (15, 3), (27, 3), (30, 0)):
        for alpha, beta in ((0.0, 0.0), (1.0, 2.0), (2.0, 2.0), (0.0, 1.0)):
            for b_n in (1.0, 5.0):
                params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
                for x in (0.0, 0.37 * b_n, b_n):
                    for h in handles:
                        got = apply_operator(h, x, params, p11)
                        want = apply_classical_reference(h, x, params)
                        diff = abs(got - want)
                        worst = max(worst, diff)
                        count += 1
                        if diff > 1e-10:
                            report("4", False,
                                   f"{h.name} at n={n}, m={m}, alpha={alpha}, "
                                   f"beta={beta}, b_n={b_n}, x={x}: diff {diff:.3e}")
    report("4", True, f"{count} classical comparisons within 1e-10 "
                      f"(worst {worst:.3e})")


def test_criterion_5_moment_verification(tmp_path):
    # (a) classical: closed (i), (ii), (iv) match direct summation
    p11 = PQPair(1, 1)
    worst = 0.0
    for n, m in ((1, 0), (3, 2), (9, 1)):
        for alpha, beta in ((0.0, 0.0), (1.0, 2.0)):
            for b_n in (1.0, 5.0):
                params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
                rep = verify_moments(params, p11, 0.4 * b_n)
                for key in ("m0", "m1", "c1"):
                    worst = max(worst, abs(rep.residuals[key]))
                    if abs(rep.residuals[key]) > 1e-12:
                        report("5", False, f"classical residual {key} at n={n}")
    # (b) p = 1, q < 1, literal: mass residual exactly zero
    params = OperatorParams(n=2, m=1, alpha=F(0), beta=F(0), b_n=F(1),
                            mode="literal")
    rep = verify_moments(params, PQPair(F(1), F(4, 5)), F(1, 3), "exact")
    if rep.residuals["m0"] != 0:
        report("5", False, f"p=1 literal mass residual {rep.residuals['m0']}")
    # (c) exact residual report, both modes, >= 20 instances, archived
    pairs = [(F(9, 10), F(4, 5)), (F(1, 2), F(1, 3)), (F(3, 4), F(2, 3)),
             (F(19, 20), F(9, 10)), (F(99, 100), F(9, 10))]
    configs = [(2, 0, F(0), F(0), F(1), F(1, 2)), (3, 1, F(1), F(2), F(2), F(3, 4)),
               (1, 2, F(0), F(1), F(3), F(1, 3)), (4, 0, F(2), F(2), F(1), F(1, 5)),
               (2, 2, F(1), F(1), F(5), F(5, 2))]
    entries = []
    for p, q in pairs:
        for n, m, alpha, beta, b_n, x in configs:
            for mode in ("normalized", "literal"):
                pr = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n,
                                    mode=mode)
                entries.append(
                    verify_moments(pr, PQPair(p, q), x, "exact").to_json_dict()
                )
    ARTIFACTS.mkdir(exist_ok=True)
    archive = ARTIFACTS / "moment_residuals.json"
    archive.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    ok = len(entries) >= 20 and archive.exists()
    ok = ok and all(
        set(e["residuals"]) == {"m0", "m1", "m2", "c1", "c2"} for e in entries
    )
    report("5", ok,
           f"classical residuals <= 1e-12 (worst {worst:.1e}); p=1 literal mass "
           f"residual exactly 0; exact report archived with {len(entries)} "
           f"instances at {archive}")


def test_criterion_6_bound_validity():
    rng = np.random.default_rng(6)
    cases = [("absdev:0.7", 1.0), ("absdev:2.5", 5.0), ("lip:0.5:0.5", 1.0),
             ("lip:1:0.3", 2.0), ("lip:0.25:1", 1.0)]
    points = 0
    worst_margin = np.inf
    for name, b_n in cases:
        h = builtin(name)
        m_const, gamma = h.lip
        for _ in range(10):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, 4))
            alpha = float(rng.integers(0, 3))
            beta = alpha + float(rng.integers(0, 2))
            p = float(rng.uniform(0.6, 1.0))
            q = p * float(rng.uniform(0.3, 0.99))
            params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
            pq = PQPair(p, q)
            xs = np.linspace(0.0, b_n, 21)
            values = operator_profile(h, params, pq, xs)
            fx = np.asarray(h.evaluator(xs), dtype=float)
            direct = _direct_moments(params, pq, xs)
            for x, kf, f_at_x, moments in zip(xs, values, fx, direct):
                observed = abs(kf - f_at_x)
                mu = max(moments["c2"], 0.0)
                bound_lip = m_const * mu ** (gamma / 2.0)
                bound_mod = 2.0 * h.exact_modulus(float(np.sqrt(mu)))
                points += 1
                for label, bound in (("Lipschitz", bound_lip), ("modulus", bound_mod)):
                    if observed > bound * (1 + 1e-9) + 1e-12:
                        report("6", False,
                               f"{label} bound violated for {name} at x={x:.3f}, "
                               f"n={n}, m={m}, p={p:.3f}, q={q:.3f}: "
                               f"{observed:.3e} > {bound:.3e}")
                    if bound > 0:
                        worst_margin = min(worst_margin, bound / max(observed, 1e-300))
    report("6", points >= 1000,
           f"{points} sampled points satisfy both bounds "
           f"(tightest bound/observed ratio {worst_margin:.3f})")


def test_criterion_7_korovkin_decay():
    # rows [n, p_n, q_n, b_n, err_e0, err_e1, err_e2] of the test set {1, t, t^2}
    rows = sweep_rows(default_spec(), [const1(), identity(), square()])
    e0 = {r[0]: r[4] for r in rows}
    e1 = {r[0]: r[5] for r in rows}
    e2 = {r[0]: r[6] for r in rows}
    e0_max = max(e0.values())
    ok = e0_max <= 1e-10
    ok = ok and e1[800] < 0.5 * e1[10]
    ok = ok and e2[800] < e2[10]
    report("7", ok,
           f"err_e0 max {e0_max:.2e}; err_e1: {e1[10]:.4f} -> "
           f"{e1[800]:.4f} (ratio {e1[800] / e1[10]:.3f}); "
           f"err_e2: {e2[10]:.4f} -> {e2[800]:.4f}")


def test_criterion_8_vanishing_decay():
    rows = sweep_rows(default_spec(), [builtin("bump:2")], weighted=False)
    first, last = rows[0][4], rows[-1][4]
    report("8", last < first,
           f"bump:2 sup error {first:.4f} at n={rows[0][0]} -> "
           f"{last:.4f} at n={rows[-1][0]}")


def test_criterion_9_reproducibility(tmp_path, capsys):
    import os

    runs = [
        ("converge", ["converge", "--n-list", "10,50,100", "--out", "sweep.csv"],
         "sweep.csv"),
        ("verify", ["verify", "--x", "1/2", "--n", "2", "--p", "9/10", "--q",
                    "4/5", "--exact", "--out", "report.json"], "report.json"),
        ("bounds", ["bounds", "--fn", "absdev:0.7", "--n", "4", "--p", "0.9",
                    "--q", "0.8", "--grid", "9", "--out", "bounds.csv"],
         "bounds.csv"),
        ("eval", ["eval", "--fn", "id", "--x", "0.5", "--n", "4", "--p", "0.9",
                  "--q", "0.8", "--json", "value.json"], "value.json"),
        ("vanishing", ["converge", "--vanishing", "bump:2", "--n-list", "10,50",
                       "--out", "van.csv"], "van.csv"),
    ]
    old = os.getcwd()
    checked = []
    try:
        for label, args, out_name in runs:
            run_dir = tmp_path / label
            run_dir.mkdir()
            os.chdir(run_dir)
            code = cli_main(args)
            os.chdir(old)
            if code != 0:
                report("9", False, f"{label} run failed with exit {code}")
            redo = tmp_path / f"{label}_redo"
            code = cli_main(["replay", str(run_dir / f"{out_name}.manifest.json"),
                             "--outdir", str(redo)])
            if code != 0:
                report("9", False, f"{label} replay failed with exit {code}")
            original = (run_dir / out_name).read_bytes()
            replayed = (redo / out_name).read_bytes()
            if original != replayed:
                report("9", False, f"{label}: replay differs")
            man_a = (run_dir / f"{out_name}.manifest.json").read_bytes()
            man_b = (redo / f"{out_name}.manifest.json").read_bytes()
            if man_a != man_b:
                report("9", False, f"{label}: manifest differs after replay")
            checked.append(label)
    finally:
        os.chdir(old)
    report("9", len(checked) == len(runs),
           f"byte-identical replays for: {', '.join(checked)}")
