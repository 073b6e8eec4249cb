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
the flags one-to-one (keys are flag names with underscores); the parser
checks its values as flags, and explicit flags override it.  Exit codes:
0 success, 2 domain/validation/usage error, 3 numerical-convergence
error; each diagnostic is one stderr line.  Commands that write files put
a RunManifest next to the primary output; `replay` reproduces the files
byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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
    sweep_rows,
)
from .errors import ConvergenceError, DomainError
from .functions import builtin, const1, identity, square
from .manifest import RunManifest, fmt_float, manifest_path_for, write_csv, write_json
from .moments import verify_moments
from .operators import OperatorParams, apply_extended, apply_operator
from .pq_calculus import PQPair


def _scalar(text: str, exact: bool = False):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad numeric value {text!r}") from exc
    return value if exact else float(value)


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


def _write_manifest(command: str, params: dict, outputs: List[str], base: str) -> None:
    manifest = RunManifest(command=command, params=params, version=__version__,
                           outputs=outputs)
    manifest.save(manifest_path_for(os.path.join(base, outputs[0])))


def run_eval(params: dict, base: str) -> float:
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
    if params.get("json"):
        write_json({"command": "eval", "params": params, "value": value},
                   os.path.join(base, params["json"]))
        _write_manifest("eval", params, [params["json"]], base)
    return value


def run_verify(params: dict, base: str) -> List[str]:
    exact = bool(params["exact"])
    op, pq = _build_operator(params, exact)
    x = _scalar(params["x"], exact)
    report = verify_moments(op, pq, x, arithmetic="exact" if exact else "float")
    out = params["out"]
    write_json(report.to_json_dict(), os.path.join(base, out))
    _write_manifest("verify", params, [out], base)
    return [out]


def run_bounds(params: dict, base: str) -> List[str]:
    f = builtin(params["fn"])
    op, pq = _build_operator(params)
    tol = float(params["tol"])
    grid = int(params["grid"])
    if grid < 2:
        raise DomainError("--grid must be at least 2")
    xs = [float(x) for x in np.linspace(0.0, float(op.b_n), grid)]
    rows = [[getattr(r, k) for k in BOUND_CSV_FIELDS] for r in bound_reports(f, xs, op, pq, tol)]
    out = params["out"]
    write_csv(BOUND_CSV_FIELDS, rows, os.path.join(base, out))
    _write_manifest("bounds", params, [out], base)
    return [out]


def _spec_from_params(spec_params: dict) -> SequenceSpec:
    """The SequenceSpec of recorded spec params: an n_list of integers with
    a rule name, or with p, q and b tables of finite numbers."""
    if not isinstance(spec_params, dict):
        raise DomainError(f"sequence spec must be a JSON object, got {spec_params!r}")

    def entries(key: str, kinds: tuple, what: str) -> list:
        values = spec_params.get(key)
        if not (isinstance(values, list)
                and all(type(v) in kinds and -math.inf < v < math.inf for v in values)):
            raise DomainError(f"sequence {key} must be a list of {what}, got {values!r}")
        return values

    n_list = tuple(entries("n_list", (int,), "integers"))
    if "rule" in spec_params:
        return SequenceSpec(n_list=n_list, rule=spec_params["rule"])
    p, q, b = (tuple(float(v) for v in entries(key, (int, float), "finite numbers"))
               for key in ("p", "q", "b"))
    return SequenceSpec(n_list=n_list, p_table=p, q_table=q, b_table=b)


def run_converge(params: dict, base: str) -> List[str]:
    spec = _spec_from_params(params["spec"])
    out = params["out"]
    if params["check_only"]:
        write_json(hypothesis_check(spec), os.path.join(base, out))
    else:
        m, alpha, beta = int(params["m"]), _scalar(params["alpha"]), _scalar(params["beta"])
        grid = int(params["grid"])
        if params.get("vanishing"):
            fs, names, weighted = [builtin(params["vanishing"])], ["sup"], False
        else:
            extra = [builtin(name) for name in params["extra"]]
            fs = [const1(), identity(), square(), *extra]
            names, weighted = ["e0", "e1", "e2", *(h.name for h in extra)], True
        rows = sweep_rows(spec, fs, m, alpha, beta, grid, weighted=weighted)
        write_csv(["n", "p_n", "q_n", "b_n", *(f"err_{name}" for name in names)], rows,
                  os.path.join(base, out))
    _write_manifest("converge", params, [out], base)
    return [out]


#: command -> (runner, the flags it cannot run without)
_COMMANDS = {
    "eval": (run_eval, ("fn", "x", "n")),
    "verify": (run_verify, ("x", "n")),
    "bounds": (run_bounds, ("fn", "n")),
    "converge": (run_converge, ()),
}


def _run(args: argparse.Namespace, base: str, spec: Optional[dict] = None):
    """Run a parsed command on the params of its flags; a given `spec`
    replaces converge's --rule, --n-list and --seq-file."""
    run, required = _COMMANDS[args.command]
    for name in required:
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required (flag or config)")
    converge = args.command == "converge"
    return run(_converge_params(args, spec) if converge else _command_params(args), base)


def run_replay(manifest_file: str, outdir: str) -> List[str]:
    """Re-run a manifest into outdir.  Its params are flag values that the
    parser checks as it checks a config's, null standing for an unset flag;
    converge's recorded `spec` is checked as a --seq-file is."""
    manifest = _load_json(manifest_file, "manifest")
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, str) or command not in _COMMANDS:
        raise DomainError(f"manifest command {command!r} is not replayable")
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise DomainError(f"manifest params must be a JSON object, got {params!r}")
    params = {key: value for key, value in params.items() if value is not None}
    spec = params.pop("spec", None) if command == "converge" else None
    # absolute output paths would escape the target directory; re-root them
    for key in ("out", "json"):
        if isinstance(params.get(key), str) and Path(params[key]).is_absolute():
            params[key] = Path(params[key]).name
    args = _parse_with([command], params, "manifest")
    result = _run(args, outdir, spec)
    if command == "eval":
        print(fmt_float(result))
        return [args.json] if args.json else []
    return result


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and subparsers, whose usage errors raise
    DomainError: a bad flag or config value exits 2 with one error line.
    Flags are spelled in full: a prefix is not a flag."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message: str):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqkanto",
        description="Two-parameter Kantorovich-type operators: evaluation, "
                    "moment verification, bounds, convergence sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, as `_parse` reads them

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
    """The parser `_parse` uses, with its subparsers, built once per process.
    It is never handed out, so no caller can change it between calls."""
    return build_parser()


def _parse(argv: List[str]) -> argparse.Namespace:
    """argv parsed by the subparser argv[0] names, into a namespace in the top-level parser's
    order (`command` first); the top-level parser takes only an argv naming no command."""
    command = _main_parser().commands.get(argv[0]) if argv else None
    if command is None:
        return _main_parser().parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _command_params(args: argparse.Namespace) -> dict:
    """Params of a call: every dest of the subcommand's parser, in the
    parser's order, less `command` and `config`, as the parser gave them
    (config values included), so 9/10 is recorded as text and replays
    exactly.  The namespace holds exactly those dests in that order."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "config")}


def _load_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad JSON in {what} {path!r}: {exc}") from exc


def _converge_params(args: argparse.Namespace, spec: Optional[dict] = None) -> dict:
    """`_command_params` with --rule, --n-list and the --seq-file contents
    folded into one recorded `spec` (a given spec instead), and the mode's
    default --out."""
    params = _command_params(args)
    rule, n_list, seq_file = params.pop("rule"), params.pop("n_list"), params.pop("seq_file")
    if spec is not None:
        spec_params = spec
    elif seq_file:
        raw = _load_json(seq_file, "--seq-file")
        if not isinstance(raw, dict) or "n_list" not in raw:
            raise DomainError("--seq-file needs an n_list entry")
        tables = all(k in raw for k in ("p", "q", "b"))
        spec_params = ({k: raw[k] for k in ("n_list", "p", "q", "b")} if tables
                       else {"n_list": raw["n_list"], "rule": raw.get("rule", "default")})
    else:
        try:
            spec_params = {"n_list": [int(v) for v in n_list.split(",") if v.strip()],
                           "rule": rule}
        except ValueError as exc:
            raise DomainError(f"bad --n-list {n_list!r}") from exc
    params["spec"] = spec_params
    if params["out"] is None:
        params["out"] = ("hypothesis_report.json" if params["check_only"]
                         else "vanishing_sweep.csv" if params["vanishing"]
                         else "korovkin_sweep.csv")
    return params


def _parse_with(argv: List[str], values: dict, source: str) -> argparse.Namespace:
    """argv parsed with the flag values of a config or a manifest before
    its own flags, skipping the values of flags that argv holds.

    Keys are the long flag names with dashes as underscores (n_list,
    check_only, ...), and a value is the flag's text as a string or
    number.  A switch (bool default) takes true or false.  A list is
    comma-joined for --n-list and gives one token per entry for a
    repeatable flag (list default).  Anything else is an error."""
    args = _parse(argv)
    explicit = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
    tokens = []
    for key, value in values.items():
        if key in ("command", "config") or not hasattr(args, key):
            raise DomainError(f"{source} key {key!r} is not a flag of this command")
        flag, default = f"--{key.replace('_', '-')}", getattr(args, key)
        if flag in explicit:
            continue
        if isinstance(default, bool):
            valid = type(value) in (bool, int) and value in (0, 1)
            flag_tokens = [flag] if value else []
        else:
            many = isinstance(value, list) and (key == "n_list" or isinstance(default, list))
            entries = value if many else [value]
            valid = all(type(entry) in (str, int, float) for entry in entries)
            texts = [",".join(map(str, entries))] if key == "n_list" else map(str, entries)
            flag_tokens = [f"{flag}={text}" for text in texts]
        if not valid:
            raise DomainError(f"{source} value {key}={value!r} is not a valid {flag}")
        tokens += flag_tokens
    return _parse([argv[0], *tokens, *argv[1:]])


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line, parsed by its command's own subparser, and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        if getattr(args, "config", None):
            config = _load_json(args.config, "config")
            if not isinstance(config, dict):
                raise DomainError("config file must hold a JSON object of flag values")
            args = _parse_with(argv, config, "config")
        if args.command == "replay":
            for out in run_replay(args.manifest, args.outdir):
                print(f"wrote {Path(args.outdir) / out}")
            return 0
        result = _run(args, os.getcwd())
        print(fmt_float(result) if args.command == "eval" else f"wrote {result[0]}")
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
