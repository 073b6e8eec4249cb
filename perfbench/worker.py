"""Runs one workload's operations in a fresh interpreter and times them.

Started by run.py with the BLAS thread caps and PYTHONHASHSEED already in
its environment.  Imports `pqkanto` from `<root>/src`, then runs whole
rounds of the workload's operations through `pqkanto.cli.main` until the
next round would end past `--seconds`.  Each round runs in its own
directory; the first round's files are kept for the output checks, later
rounds keep only digests.  With `--trace 1`, untraced and traced rounds
alternate so the tracing overhead can be measured in the same process.

Around and inside every operation, `speed.py` times a fixed probe
computation, so that each operation's CPU time can be read against the
machine's speed at that moment.  Traced rounds take the probes around
operations only, so that none lands inside a span.  Writes one JSON result
file; prints nothing of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def digest_tree(path: Path) -> dict:
    return {str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.rglob("*")) if f.is_file()}


def run_op(cli, argv, inside=None) -> dict:
    """One CLI call.  `cpu` is its process CPU time less the probes taken
    inside it (`inside` is an armed speed.InsideProbes, or None)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                (inside or contextlib.nullcontext()):
            rc = cli.main(list(argv))
    except SystemExit as e:  # argparse rejects its input this way
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # recorded as a failed operation; the run goes on
        rc, exc = None, f"{type(e).__name__}: {e}"
    cpu, dt = time.process_time() - c0, time.perf_counter() - t0
    probes = inside.samples if inside else []
    return {"rc": rc, "exc": exc, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-400:], "dt": dt, "cpu": cpu - sum(probes),
            "probes": probes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True, help="checkout holding src/pqkanto")
    ap.add_argument("--workdir", required=True, help="scratch directory for outputs")
    ap.add_argument("--result", required=True, help="JSON result file")
    args = ap.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import pqkanto.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"pqkanto was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import speed
    import workloads
    ops = workloads.build(args.workload, args.seed)
    inside = speed.InsideProbes()
    tracer = None
    if args.trace:
        from layer_trace import Tracer
        tracer = Tracer()

    workdir = Path(args.workdir)
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        rdir = workdir / f"r{index}"
        rdir.mkdir(parents=True)
        os.chdir(rdir)
        if traced:
            tracer.install()
        try:
            results, before = [], speed.bracket()
            for op in ops:
                res = run_op(cli, op.argv, None if traced else inside)
                after = speed.bracket()
                res["probe_s"] = speed.mean_speed(before + res.pop("probes") + after)
                results.append(res)
                before = after
        finally:
            if traced:
                tracer.uninstall()
        os.chdir(workdir)
        record = {"traced": traced, "ops": results, "digests": digest_tree(rdir),
                  "cpu": sum(r["cpu"] for r in results)}
        if traced:
            record["trace"] = tracer.collect()
        if index > 0:
            shutil.rmtree(rdir)
        record["time"] = time.perf_counter() - round_start
        rounds.append(record)
        # whole rounds, at least two (an untraced and a traced one when
        # tracing), while the next one is expected to end within --seconds
        done = len(rounds)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["time"] for r in rounds)
        if done >= 2 and (tracer is None or done % 2 == 0) \
                and elapsed + typical > args.seconds:
            break

    result = {
        "pqkanto_file": cli.__file__,
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "absent": tracer.absent if tracer else [],
        "absent_metrics": tracer.absent_metrics() if tracer else [],
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
