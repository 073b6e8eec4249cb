"""Every accepted parameter of the documented domain ends in a value or one
error line: a hypothesis property over `pqkanto.cli.main`, run in process.

The draws cover 0 < q <= p <= 1 with q/p and p down to 1e-300 (and q/p
near and at 1), b_n from 1e-300 to 1e300, 0 <= alpha <= beta up to 1e200,
n + m up to a few thousand, in decimal or fractional text.  Each call
must exit 0, 2 or 3; a nonzero exit prints one stderr line; no numpy
warning is raised; neither stdout nor a written file holds nan or inf;
and a call that does not exit 3 stays under CALL_CPU_S of CPU.
"""

import contextlib
import io
import json
import os
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqkanto.cli import main

#: CPU seconds one call may take, unless it is a convergence error (exit 3),
#: which a predicted series length raises before f is evaluated.
CALL_CPU_S = 10.0

PROPERTY = settings(max_examples=600, deadline=None, derandomize=True, database=None)


def magnitude(lo: float, hi: float):
    """10^e for e uniform in [lo, hi], the two ends included."""
    return st.one_of(st.sampled_from([10.0 ** lo, 10.0 ** hi]),
                     st.floats(lo, hi).map(lambda e: 10.0 ** e))


def fraction(top: int = 1):
    """A small-integer fraction in (0, top]."""
    return st.integers(1, 10 ** 4).flatmap(
        lambda d: st.integers(1, top * d).map(lambda c: Fraction(c, d)))


def share(top: float = 1.0):
    """A factor in [0, top]: the ends, a float or a small fraction."""
    return st.one_of(st.sampled_from([0.0, 1.0, top]), st.floats(0.0, top),
                     fraction(int(top)))


def text(value) -> str:
    """The flag text of a value: `a/b` for a Fraction, else the float's repr."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


@st.composite
def operator_flags(draw, x_top: float = 1.0, unit_x: bool = False, small: bool = False,
                   modes=("normalized", "literal"), strict: bool = False):
    """Flags of one operator and its point x = share * b_n (share up to x_top);
    q < p when strict, as sequence rows need."""
    p = draw(st.one_of(st.just(1.0), magnitude(-300.0, 0.0), fraction()))
    near_one = st.integers(1, 16).map(lambda k: 1.0 - 10.0 ** -k)
    ratios = [near_one, magnitude(-300.0, 0.0), fraction()] + ([] if strict else [st.just(1.0)])
    q = p * draw(st.one_of(ratios))
    assume(0 < q < p if strict else q > 0)
    b_n = draw(st.one_of(magnitude(-300.0, 300.0), fraction(100)))
    beta = draw(st.one_of(st.just(0.0), magnitude(-300.0, 200.0), fraction(100)))
    alpha = beta * draw(share())
    x = (1.0 if unit_x else b_n) * draw(share(x_top))
    if small:  # exact arithmetic is capped at n + m <= 12
        n, m = draw(st.integers(1, 12)), draw(st.integers(0, 4))
    else:
        n = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
        m = draw(st.one_of(st.integers(0, 8), st.integers(0, 1000)))
    flags = ["--n", str(n), "--m", str(m), "--alpha", text(alpha), "--beta", text(beta),
             "--bn", text(b_n), "--p", text(p), "--q", text(q),
             "--mode", draw(st.sampled_from(modes))]
    return flags, x


@st.composite
def function_name(draw, b_n_text: str,
                  kinds=("const1", "id", "square", "sin", "absdev", "bump", "lip")):
    """A builtin name; its kink or support scales with b_n."""
    b_n = float(Fraction(b_n_text))
    kind = draw(st.sampled_from(kinds))
    if kind == "absdev":
        return f"absdev:{text(b_n * draw(share(2.0)))}"
    if kind == "bump":
        return f"bump:{text(b_n * draw(st.floats(1e-3, 2.0)))}"
    if kind == "lip":
        gamma = draw(st.sampled_from([1.0, 0.5, 1e-3]) | st.floats(1e-3, 1.0))
        return f"lip:{text(b_n * draw(share(2.0)))}:{text(gamma)}"
    return kind


def flag_value(flags, name):
    return flags[flags.index(name) + 1]


def check_call(argv, files=None):
    """Run one call in a fresh directory holding `files` (name -> text) and
    assert the contract on its exit code, streams and written files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in (files or {}).items():
            (Path(tmp) / name).write_text(content)
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                start = time.process_time()
                code = main(list(argv))
                cpu = time.process_time() - start
        finally:
            os.chdir(cwd)
        written = [path.read_text().lower() for path in Path(tmp).iterdir()
                   if path.name not in (files or {})]
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), (argv, err)
        assert lines[0].startswith(("error:", "convergence error:")), (argv, err)
    else:
        assert err == "", (argv, err)
    for output in [out.lower()] + written:
        assert "nan" not in output and "inf" not in output, (argv, output)
    assert code == 3 or cpu < CALL_CPU_S, (argv, cpu)


@PROPERTY
@given(st.data())
def test_eval_ends_in_a_value_or_one_line(data):
    op = data.draw(st.sampled_from(["scaled", "unit", "extended"]))
    flags, x = data.draw(operator_flags(x_top=2.0 if op == "extended" else 1.0,
                                        unit_x=op == "unit"))
    fn = data.draw(function_name(flag_value(flags, "--bn")))
    check_call(["eval", "--fn", fn, "--x", text(x), "--op", op] + flags)


@PROPERTY
@given(st.data())
def test_verify_ends_in_a_value_or_one_line(data):
    exact = data.draw(st.booleans())
    flags, x = data.draw(operator_flags(small=exact))
    check_call(["verify", "--x", text(x)] + flags + (["--exact"] if exact else []))


@PROPERTY
@given(st.data())
def test_bounds_ends_in_a_value_or_one_line(data):
    # the bounds are proved for, and reported in, normalized mode only
    flags, _x = data.draw(operator_flags(modes=("normalized",)))
    fn = data.draw(function_name(flag_value(flags, "--bn")))
    grid = data.draw(st.integers(2, 9))
    check_call(["bounds", "--fn", fn, "--grid", str(grid)] + flags)


@PROPERTY
@given(st.data())
def test_converge_ends_in_a_value_or_one_line(data):
    # a short sequence from explicit tables, each row drawn as one operator
    ns = data.draw(st.lists(st.one_of(st.integers(1, 40), st.integers(1, 3000)),
                            min_size=1, max_size=3, unique=True).map(sorted))
    rows = [data.draw(operator_flags(strict=True)) for _ in ns]
    table = {"n_list": ns}
    for key, flag in (("p", "--p"), ("q", "--q"), ("b", "--bn")):
        table[key] = [float(Fraction(flag_value(flags, flag))) for flags, _x in rows]
    flags = rows[0][0]
    argv = ["converge", "--seq-file", "seq.json", "--m", flag_value(flags, "--m"),
            "--alpha", flag_value(flags, "--alpha"), "--beta", flag_value(flags, "--beta"),
            "--grid", str(data.draw(st.integers(2, 17))), "--out", "sweep.csv"]
    b_first = text(table["b"][0])
    kind = data.draw(st.sampled_from(["korovkin", "extra", "vanishing", "check-only"]))
    if kind == "extra":
        argv += ["--extra", data.draw(function_name(b_first))]
    elif kind == "vanishing":
        # the vanishing sweep needs a support bound, which bump has
        argv += ["--vanishing", data.draw(function_name(b_first, kinds=("bump",)))]
    elif kind == "check-only":
        argv += ["--check-only"]
    check_call(argv, {"seq.json": json.dumps(table)})
