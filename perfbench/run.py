"""pqkanto benchmark: checked CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout that holds `src/pqkanto`:

    python3 perfbench/run.py --workload bounds-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload run starts one fresh worker interpreter (perfbench/worker.py)
with BLAS threads capped at one and PYTHONHASHSEED=0, runs whole rounds of
the workload's operations through `pqkanto.cli.main`, then checks every
operation's output here, in this process, after the timing has ended.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a readable summary goes to standard
error.  Operation times are CPU seconds of the worker, read against a
fixed probe computation timed around and inside each operation, which
takes out both the time a shared host takes the CPU away and the host's
changing speed (see speed.py and README, "How the bounds were set").  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run.  Outputs go to a temporary directory
under `.bench_build/` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import op_seconds

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
SETUP_SNIPPET = ("import sys; sys.path.insert(0, 'src'); "
                 "import pqkanto.cli as cli; cli.build_parser()")
UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, a crashed worker)."""


def cap_threads() -> None:
    """BLAS thread caps, for this process and the ones it starts; set before
    anything imports numpy.  One thread keeps every worker a single-threaded
    process, so its CPU time is the work of the operations alone."""
    threads = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = threads


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(root: Path, env: dict) -> float:
    """Median CPU time (user + system) of a fresh interpreter importing
    pqkanto and building the CLI parser; one untimed start first warms the
    file cache and .pyc files."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        c0 = children_cpu()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        dt = children_cpu() - c0
        if proc.returncode != 0:
            raise BenchError(f"importing pqkanto failed:\n{proc.stderr[-2000:]}")
        if i > 0:
            times.append(dt)
    return statistics.median(times)


def run_worker(root: Path, env: dict, workdir: Path, args, workload: str) -> dict:
    result = workdir / "result.json"
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--workdir", str(workdir), "--result", str(result)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def op_files(op, digests: dict) -> dict:
    if op.kind == "replay":
        return {k: v for k, v in digests.items() if k.startswith(op.argv[-1] + "/")}
    names = (op.meta["out"], op.meta["out"] + ".manifest.json")
    return {k: v for k, v in digests.items() if k in names}


def verdicts_per_round(ops, rounds, workdir: Path):
    """Full checks on the first round's files; every later round must
    reproduce the first round's exit codes, printed output and file bytes."""
    import checks
    first = rounds[0]
    verdicts = [checks.check_round(ops, first["ops"], workdir / "r0")]
    for rnd in rounds[1:]:
        row = []
        for i, op in enumerate(ops):
            a, b = first["ops"][i], rnd["ops"][i]
            same = ((a["rc"], a["exc"], a["stdout"]) == (b["rc"], b["exc"], b["stdout"])
                    and op_files(op, first["digests"]) == op_files(op, rnd["digests"]))
            row.append(verdicts[0][i] if same else "output differs from the first round")
        verdicts.append(row)
    return verdicts


def summarize(workload: str, args, ops, data: dict, verdicts, setup_s):
    rounds = data["rounds"]
    attempted = len(ops) * len(rounds)
    failed = sum(v is not None for row in verdicts for v in row)
    unexpected = [(r, ops[i], v) for r, row in enumerate(verdicts)
                  for i, v in enumerate(row) if v is not None and ops[i].known_fault is None]
    plain = [r for r in rounds if not r["traced"]]
    log = lambda text="": print(text, file=sys.stderr)  # noqa: E731
    log(f"== {workload}  seed={args.seed}  rounds={len(rounds)}  "
        f"attempted={attempted}  failed={failed}")
    for i, v in enumerate(verdicts[0]):
        if v is None:
            continue
        op = ops[i]
        cause = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
        log(f"   FAILED {op.id}: {v}\n          {cause}")
    for r, op, v in [u for u in unexpected if u[0] > 0][:5]:
        log(f"   FAILED in round {r} {op.id}: {v}")
    if args.trace:
        metrics = trace_metrics(rounds, log)
    else:
        per_op = op_seconds(plain)
        metrics = {
            "setup_s": setup_s,
            "run_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "peak_rss_mb": data["maxrss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    for name, m in metrics.items():
        log(f"   {name:32s} {m['value']:.6g} {m['unit']}")
    if data["absent"]:
        log(f"   absent targets (reported as 0): {', '.join(data['absent'])}")
        log(f"   absent metrics: {', '.join(data['absent_metrics']) or 'none'}")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace_metrics(rounds, log) -> dict:
    from layer_trace import METRICS, unit_of
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {}
    for name in METRICS:
        value = statistics.median(r["trace"]["metrics"][name] for r in traced)
        out[name] = {"value": value, "unit": unit_of(name)}
    # raw CPU seconds: traced rounds take no probes inside operations, so
    # their ratios to the probes would not compare with the untraced ones
    traced_s, plain_s = (sum(statistics.median(r["ops"][i]["cpu"] for r in rounds)
                             for i in range(len(rounds[0]["ops"])))
                         for rounds in (traced, plain))
    out["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    layer = traced[-1]["trace"]["layer_self_s"]
    shares = sorted(layer.items(), key=lambda kv: -kv[1])
    log(f"   traced round {traced_s:.3f} s, untraced {plain_s:.3f} s; "
        f"self-time share of the traced round:")
    for name, seconds in shares:
        log(f"     {name:14s} {seconds:9.4f} s  {100 * seconds / traced[-1]['cpu']:5.1f} %")
    inclusive = sorted(traced[-1]["trace"]["inclusive_s"].items(), key=lambda kv: -kv[1])
    log("   inclusive time of the top spans:")
    for name, seconds in inclusive[:8]:
        log(f"     {name:36s} {seconds:9.4f} s  {100 * seconds / traced[-1]['cpu']:5.1f} %")
    return out


def run_workload(root: Path, args, workload: str) -> dict:
    env = child_env()
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=build))
    try:
        setup_s = None if args.trace else measure_setup(root, env)
        data = run_worker(root, env, workdir, args, workload)
        ops = workloads.build(workload, args.seed)
        t0 = time.perf_counter()
        verdicts = verdicts_per_round(ops, data["rounds"], workdir)
        print(f"   checks took {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        return summarize(workload, args, ops, data, verdicts, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True, help="picks x values and checked rows")
    ap.add_argument("--seconds", type=float, required=True, help="length of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # a terminated run still stops its worker (subprocess.run kills it on the
    # way out) and removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cap_threads()
    root = Path.cwd()
    if not (root / "src" / "pqkanto" / "cli.py").is_file():
        print(f"no src/pqkanto/cli.py under {root}: run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(root, args, name) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
