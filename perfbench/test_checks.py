"""The output checks accept the program's real output and reject a perturbed one.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

import pqkanto.cli as cli  # noqa: E402


def pick(workload: str, *ids: str):
    ops = {op.id: op for op in workloads.build(workload, seed=7)}
    return [ops[i] for i in ids]


def run(ops, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return [run_op(cli, op.argv) for op in ops]


def rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_bounds_checks(tmp_path, monkeypatch):
    ops = pick("bounds-grid", "bounds sin setting0", "replay of bounds sin setting0")
    results = run(ops, tmp_path, monkeypatch)
    assert checks.check_round(ops, results, tmp_path) == [None, None]
    out = tmp_path / ops[0].meta["out"]
    row = checks.read_csv(out)[ops[0].meta["rows"][0]]
    c2 = row["second_central_moment"]
    rewrite(out, c2, repr(float(c2) * (1 + 1e-6)))
    verdicts = checks.check_round(ops, results, tmp_path)
    assert "second_central_moment" in verdicts[0]
    assert "differs from the original" in verdicts[1]


def test_bounds_flags_and_modulus(tmp_path, monkeypatch):
    ops = pick("bounds-grid", "bounds absdev:0.5 setting1")
    results = run(ops, tmp_path, monkeypatch)
    out = tmp_path / ops[0].meta["out"]
    original = out.read_text()
    rewrite(out, ",true,true", ",false,true")
    assert "holds_lipschitz" in checks.check_round(ops, results, tmp_path)[0]
    out.write_text(original)
    row = checks.read_csv(out)[1]
    om2 = row["second_modulus_at_sqrt_peetre"]
    rewrite(out, om2, repr(3 * float(om2)))
    assert "closed-form" in checks.check_round(ops, results, tmp_path)[0]


def test_sweep_checks(tmp_path, monkeypatch):
    ops = pick("sweep-default", "converge n=10", "converge n=50")
    results = run(ops, tmp_path, monkeypatch)
    assert checks.check_round(ops, results, tmp_path) == [None, None]
    out = tmp_path / ops[0].meta["out"]
    original = out.read_text()
    err_e1 = checks.read_csv(out)[0]["err_e1"]
    rewrite(out, err_e1, repr(float(err_e1) * (1 + 1e-6)))
    assert "30-digit" in checks.check_round(ops, results, tmp_path)[0]
    out.write_text(original)
    # an error that grows along n is reported on the later row
    out50 = tmp_path / ops[1].meta["out"]
    err50 = checks.read_csv(out50)[0]["err_e2"]
    rewrite(out50, err50, "1.5")
    assert "does not decrease" in checks.check_round(ops, results, tmp_path)[1]


def test_sweep_nan_is_a_failure(tmp_path, monkeypatch):
    ops = pick("sweep-default", "converge n=1100")
    results = run(ops, tmp_path, monkeypatch)
    assert "non-finite" in checks.check_round(ops, results, tmp_path)[0]


def test_eval_checks(tmp_path, monkeypatch):
    ops = pick("series-slow", "eval lip:1:0.5 n=50 q/p->1", "eval sin n=200 p=q=1")
    results = run(ops, tmp_path, monkeypatch)
    assert checks.check_round(ops, results, tmp_path) == [None, None]
    for op, res in zip(ops, results):
        value = float(res["stdout"].strip())
        bad = repr(value * (1 + 1e-6))
        res["stdout"] = bad + "\n"
        path = tmp_path / op.meta["out"]
        data = json.loads(path.read_text())
        data["value"] = float(bad)
        path.write_text(json.dumps(data))
    verdicts = checks.check_round(ops, results, tmp_path)
    assert all("30-digit" in v for v in verdicts)


def test_verify_checks(tmp_path, monkeypatch):
    ops = [op for op in workloads.build("verify-exact", seed=7) if op.kind == "verify"
           and (op.meta["defect"] or op.meta["n"] + op.meta["m"] == 5)]
    results = run(ops, tmp_path, monkeypatch)
    assert checks.check_round(ops, results, tmp_path) == [None] * len(ops)
    defect = tmp_path / ops[0].meta["out"]
    rewrite(defect, '"m0": "3/40"', '"m0": "3/41"')
    float_op = next(i for i, op in enumerate(ops) if not op.meta["exact"])
    report = tmp_path / ops[float_op].meta["out"]
    data = json.loads(report.read_text())
    data["brute"]["m2"] *= 1 + 1e-9
    report.write_text(json.dumps(data))
    verdicts = checks.check_round(ops, results, tmp_path)
    assert "3/40" in verdicts[0] or "residual" in verdicts[0]
    assert "float brute m2" in verdicts[float_op]
    assert sum(v is not None for v in verdicts) == 2


def test_failed_exit_is_a_failure(tmp_path, monkeypatch):
    ops = pick("series-slow", "eval sin n=50 q/p->1")
    ops[0].argv[ops[0].argv.index("--n") + 1] = "0"
    results = run(ops, tmp_path, monkeypatch)
    assert checks.check_round(ops, results, tmp_path)[0].startswith("exit 2")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = [op.argv for op in workloads.build(workload, 11)]
    assert first == [op.argv for op in workloads.build(workload, 11)]
