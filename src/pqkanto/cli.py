"""Command-line surface.

Subcommands:

    eval      evaluate the operator (or its unit/extended variants) at x
    verify    closed-form vs direct-summation moment report (JSON)
    bounds    bound reports over an x-grid (CSV)
    converge  weighted-error sweeps over a parameter sequence (CSV),
              hypothesis checking, and the vanishing-function sweep
    replay    re-run a recorded manifest into a target directory

Numeric flags accept plain decimals or rationals like 9/10; with
--exact (verify) the rationals are kept exact.  A --config JSON mirrors
the flags one-to-one (keys are flag names with underscores); explicit
flags override it.  Exit codes: 0 success, 2 domain/validation error,
3 numerical-convergence error; diagnostics go to stderr.  Commands that
write files put a RunManifest next to the primary output; `replay`
reproduces the files byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .bounds import BOUND_CSV_FIELDS, bound_reports
from .convergence import (
    DEFAULT_GRID_POINTS,
    DEFAULT_N_LIST,
    SequenceSpec,
    hypothesis_check,
    korovkin_sweep,
    sweep_csv_header,
    sweep_csv_rows,
    vanishing_sweep,
)
from .errors import ConvergenceError, DomainError
from .functions import builtin
from .manifest import (
    RunManifest,
    fmt_float,
    manifest_path_for,
    write_csv,
    write_json,
)
from .moments import verify_moments
from .operators import (
    OperatorParams,
    apply_extended,
    apply_operator,
)
from .pq_calculus import PQPair


def _scalar(text: str, exact: bool = False):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad numeric value {text!r}") from exc
    return value if exact else float(value)


def _resolve(base: Path, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base / p


def _operator_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=None, help="principal degree (>= 1)")
    sp.add_argument("--m", type=int, default=0, help="summation-range extension")
    sp.add_argument("--alpha", default="0", help="node shift, 0 <= alpha <= beta")
    sp.add_argument("--beta", default="0", help="node shift denominator offset")
    sp.add_argument("--bn", default="1", help="domain scale b_n > 0")
    sp.add_argument("--p", default="1", help="first deformation parameter")
    sp.add_argument("--q", default="1", help="second deformation parameter")
    sp.add_argument("--mode", choices=("normalized", "literal"),
                    default="normalized", help="basis normalization")
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="relative tolerance of the series integral")


def _build_operator(params: dict, exact: bool = False) -> Tuple[OperatorParams, PQPair]:
    op = OperatorParams(
        n=int(params["n"]), m=int(params["m"]),
        alpha=_scalar(params["alpha"], exact), beta=_scalar(params["beta"], exact),
        b_n=_scalar(params["bn"], exact), mode=params["mode"],
    )
    pq = PQPair(_scalar(params["p"], exact), _scalar(params["q"], exact))
    return op, pq


def _write_manifest(command: str, params: dict, outputs: List[str],
                    base: Path) -> None:
    if not outputs:
        return
    manifest = RunManifest(command=command, params=params, version=__version__,
                           outputs=outputs)
    manifest.save(manifest_path_for(_resolve(base, outputs[0])))


def run_eval(params: dict, base: Path) -> float:
    f = builtin(params["fn"])
    op, pq = _build_operator(params)
    x = _scalar(params["x"])
    tol = float(params["tol"])
    kind = params["op"]
    if kind == "unit":
        unit = OperatorParams(n=op.n, m=op.m, alpha=0, beta=0, b_n=1, mode=op.mode)
        value = apply_operator(f, x, unit, pq, tol)
    elif kind == "extended":
        value = apply_extended(f, x, op, pq, tol)
    else:
        value = apply_operator(f, x, op, pq, tol)
    outputs = []
    if params.get("json"):
        write_json({"command": "eval", "params": params, "value": value},
                   _resolve(base, params["json"]))
        outputs = [params["json"]]
    _write_manifest("eval", params, outputs, base)
    return value


def run_verify(params: dict, base: Path) -> List[str]:
    exact = bool(params["exact"])
    op, pq = _build_operator(params, exact)
    x = _scalar(params["x"], exact)
    report = verify_moments(op, pq, x, arithmetic="exact" if exact else "float")
    out = params["out"]
    write_json(report.to_json_dict(), _resolve(base, out))
    _write_manifest("verify", params, [out], base)
    return [out]


def run_bounds(params: dict, base: Path) -> List[str]:
    f = builtin(params["fn"])
    op, pq = _build_operator(params)
    tol = float(params["tol"])
    grid = int(params["grid"])
    if grid < 2:
        raise DomainError("--grid must be at least 2")
    xs = [float(x) for x in np.linspace(0.0, float(op.b_n), grid)]
    rows = [[getattr(rep, field) for field in BOUND_CSV_FIELDS]
            for rep in bound_reports(f, xs, op, pq, tol)]
    out = params["out"]
    write_csv(BOUND_CSV_FIELDS, rows, _resolve(base, out))
    _write_manifest("bounds", params, [out], base)
    return [out]


def _spec_from_params(spec_params: dict) -> SequenceSpec:
    if "rule" in spec_params:
        return SequenceSpec(n_list=tuple(int(n) for n in spec_params["n_list"]),
                            rule=spec_params["rule"])
    return SequenceSpec(
        n_list=tuple(int(n) for n in spec_params["n_list"]),
        p_table=tuple(float(v) for v in spec_params["p"]),
        q_table=tuple(float(v) for v in spec_params["q"]),
        b_table=tuple(float(v) for v in spec_params["b"]),
    )


def run_converge(params: dict, base: Path) -> List[str]:
    spec = _spec_from_params(params["spec"])
    out = params["out"]
    if params["check_only"]:
        report = hypothesis_check(spec)
        write_json(report, _resolve(base, out))
        _write_manifest("converge", params, [out], base)
        return [out]
    m = int(params["m"])
    alpha = _scalar(params["alpha"])
    beta = _scalar(params["beta"])
    grid = int(params["grid"])
    if params.get("vanishing"):
        f = builtin(params["vanishing"])
        results = vanishing_sweep(spec, f, m=m, alpha=alpha, beta=beta,
                                  grid_points=grid)
        header = ["n", "p_n", "q_n", "b_n", "err_sup"]
        rows = []
        for n, err in results:
            p_n, q_n, b_n = spec.realize(n)
            rows.append([n, p_n, q_n, b_n, err])
    else:
        extra = [builtin(name) for name in params["extra"]]
        records = korovkin_sweep(spec, extra=extra, m=m, alpha=alpha, beta=beta,
                                 grid_points=grid)
        header = sweep_csv_header([h.name for h in extra])
        rows = sweep_csv_rows(records)
    write_csv(header, rows, _resolve(base, out))
    _write_manifest("converge", params, [out], base)
    return [out]


_RUNNERS = {
    "eval": run_eval,
    "verify": run_verify,
    "bounds": run_bounds,
    "converge": run_converge,
}


def run_replay(manifest_file: str, outdir: str) -> List[str]:
    manifest = RunManifest.load(manifest_file)
    if manifest.command not in _RUNNERS:
        raise DomainError(f"manifest command {manifest.command!r} is not replayable")
    params = dict(manifest.params)
    # absolute output paths would escape the target directory; re-root them
    for key in ("out", "json"):
        if params.get(key) and Path(params[key]).is_absolute():
            params[key] = Path(params[key]).name
    base = Path(outdir)
    base.mkdir(parents=True, exist_ok=True)
    result = _RUNNERS[manifest.command](params, base)
    if manifest.command == "eval":
        print(fmt_float(result))
        return params.get("json") and [params["json"]] or []
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqkanto",
        description="Two-parameter Kantorovich-type operators: evaluation, "
                    "moment verification, bounds, convergence sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate the operator at a point")
    sp.add_argument("--fn", default=None, help="function name from the registry")
    sp.add_argument("--x", default=None, help="evaluation point")
    sp.add_argument("--op", choices=("scaled", "unit", "extended"),
                    default="scaled", help="operator variant")
    sp.add_argument("--json", default=None, help="also write result JSON here")
    sp.add_argument("--config", default=None, help="JSON file mirroring the flags")
    _operator_flags(sp)

    sp = sub.add_parser("verify", help="moment residual report")
    sp.add_argument("--x", default=None, help="evaluation point")
    sp.add_argument("--exact", action="store_true",
                    help="exact rational arithmetic (n+m <= 12)")
    sp.add_argument("--out", default="moment_report.json", help="report path")
    sp.add_argument("--config", default=None, help="JSON file mirroring the flags")
    _operator_flags(sp)

    sp = sub.add_parser("bounds", help="bound reports over an x-grid")
    sp.add_argument("--fn", default=None, help="function name from the registry")
    sp.add_argument("--grid", type=int, default=33, help="x-grid points")
    sp.add_argument("--out", default="bounds.csv", help="CSV path")
    sp.add_argument("--config", default=None, help="JSON file mirroring the flags")
    _operator_flags(sp)

    sp = sub.add_parser("converge", help="convergence sweeps")
    sp.add_argument("--rule", default="default", help="builtin sequence rule")
    sp.add_argument("--n-list", default=",".join(str(n) for n in DEFAULT_N_LIST),
                    help="comma-separated increasing indices")
    sp.add_argument("--seq-file", default=None,
                    help="JSON sequence spec (overrides --rule/--n-list)")
    sp.add_argument("--extra", action="append", default=[],
                    help="extra function names (repeatable)")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--beta", default="0")
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS)
    sp.add_argument("--check-only", action="store_true",
                    help="hypothesis report only, no sweep")
    sp.add_argument("--vanishing", default=None,
                    help="run the vanishing-function sweep with this handle")
    sp.add_argument("--out", default=None,
                    help="output path (default depends on mode)")
    sp.add_argument("--config", default=None, help="JSON file mirroring the flags")

    sp = sub.add_parser("replay", help="re-run a manifest")
    sp.add_argument("manifest", help="path to a .manifest.json file")
    sp.add_argument("--outdir", required=True, help="directory for outputs")

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process.  It is never handed
    out, so no caller can change it between calls."""
    return build_parser()


#: Parameters recorded as text, so that a rational such as 9/10 replays
#: exactly as it was given.
_TEXT_PARAMS = ("x", "alpha", "beta", "bn", "p", "q")


def _command_params(args: argparse.Namespace) -> dict:
    """Params of an eval, verify or bounds call: every dest of the
    subcommand's parser, in the parser's order, less `command` and
    `config`.  The namespace holds exactly those dests in that order."""
    params = {}
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if key in _TEXT_PARAMS:
            value = str(value)
        elif key == "exact":
            value = bool(value)
        params[key] = value
    return params


def _converge_params(args: argparse.Namespace) -> dict:
    if args.seq_file:
        with open(args.seq_file, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if "n_list" not in raw:
            raise DomainError("--seq-file needs an n_list entry")
        if all(k in raw for k in ("p", "q", "b")):
            spec_params = {k: raw[k] for k in ("n_list", "p", "q", "b")}
        else:
            spec_params = {"n_list": raw["n_list"],
                           "rule": raw.get("rule", "default")}
    else:
        try:
            n_list = [int(v) for v in args.n_list.split(",") if v.strip()]
        except ValueError as exc:
            raise DomainError(f"bad --n-list {args.n_list!r}") from exc
        spec_params = {"n_list": n_list, "rule": args.rule}
    _spec_from_params(spec_params)  # validate early
    if args.out is None:
        out = ("hypothesis_report.json" if args.check_only
               else "vanishing_sweep.csv" if args.vanishing
               else "korovkin_sweep.csv")
    else:
        out = args.out
    return {
        "spec": spec_params,
        "extra": list(args.extra),
        "m": args.m,
        "alpha": str(args.alpha),
        "beta": str(args.beta),
        "grid": args.grid,
        "check_only": bool(args.check_only),
        "vanishing": args.vanishing,
        "out": out,
    }


def _apply_config(args: argparse.Namespace, argv: List[str]) -> None:
    """Merge a --config JSON into the namespace; explicit flags win.

    Keys are the long flag names with dashes as underscores (n_list,
    check_only, ...); values carry the same types the flags would parse.
    """
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad JSON in config {args.config!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise DomainError("config file must hold a JSON object of flag values")
    explicit = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
    for key, value in config.items():
        if key in ("command", "config") or not hasattr(args, key):
            raise DomainError(f"config key {key!r} is not a flag of this command")
        if f"--{key.replace('_', '-')}" in explicit:
            continue
        if key == "n_list" and isinstance(value, list):
            value = ",".join(str(v) for v in value)
        setattr(args, key, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required (flag or config)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _main_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    base = Path.cwd()
    try:
        if getattr(args, "config", None):
            _apply_config(args, argv)
        if args.command == "eval":
            _require(args, "fn", "x", "n")
            value = run_eval(_command_params(args), base)
            print(fmt_float(value))
        elif args.command == "verify":
            _require(args, "x", "n")
            outputs = run_verify(_command_params(args), base)
            print(f"wrote {outputs[0]}")
        elif args.command == "bounds":
            _require(args, "fn", "n")
            outputs = run_bounds(_command_params(args), base)
            print(f"wrote {outputs[0]}")
        elif args.command == "converge":
            params = _converge_params(args)
            outputs = run_converge(params, base)
            print(f"wrote {outputs[0]}")
        elif args.command == "replay":
            outputs = run_replay(args.manifest, args.outdir)
            for out in outputs:
                print(f"wrote {Path(args.outdir) / out}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
