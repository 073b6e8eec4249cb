"""The exact piecewise-linear inner integrals, computed for all nodes at once,
against the per-node loops they replaced, which are kept here as the
reference.  Every comparison is bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqkanto import OperatorParams, PQPair, builtin
from pqkanto import operators
from pqkanto.functions import FunctionHandle, PiecewiseLinear
from pqkanto.operators import (
    _node_affine,
    _pl_integrals_classical,
    _pl_integrals_strict,
    operator_profile,
)

P11 = PQPair(1.0, 1.0)
PQ98 = PQPair(0.9, 0.8)
PL_BUILTINS = ("absdev:0", "absdev:1", "absdev:3.1", "bump:2", "bump:0.5",
               "lip:1:1", "lip:0.7:1")
ZIGZAG = PiecewiseLinear(xs=(0.0, 0.9, 0.905, 0.96, 1.4),
                         ys=(0.0, 1.0, 0.2, 0.7, 0.1), end_slope=-1.0)
PLS = [builtin(name).piecewise_linear for name in PL_BUILTINS] + [ZIGZAG]


def piece_at_loop(pl, x):
    """(intercept, slope) of the piece active at one point x."""
    xs, ys = pl.xs, pl.ys
    if x >= xs[-1] or len(xs) == 1:
        s = pl.end_slope
        return ys[-1] - s * xs[-1], s
    i = int(np.searchsorted(xs, x, side="right")) - 1
    i = max(i, 0)
    s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return ys[i] - s * xs[i], s


def classical_loop(pl, a, b):
    """Trapezoids over the affine pieces of f(A + Bt) on [0, 1], node by node."""
    out = np.empty_like(a)
    for k in range(len(a)):
        ak, bk = float(a[k]), float(b[k])
        cuts = [0.0, 1.0]
        if bk != 0.0:
            for xk in pl.xs[1:]:
                tau = (xk - ak) / bk
                if 0.0 < tau < 1.0:
                    cuts.append(tau)
        cuts = sorted(set(cuts))
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            g_lo = float(pl(ak + bk * lo))
            g_hi = float(pl(ak + bk * hi))
            total += 0.5 * (g_lo + g_hi) * (hi - lo)
        out[k] = total
    return out


def strict_loop(pl, a, b, pq):
    """Geometric tail sums over the affine pieces of f(A + Bt), q < p, node
    by node, the pieces from t = 1/p downward."""
    p = float(pq.p)
    q = float(pq.q)
    r = q / p
    t_max = 1.0 / p
    log_r = math.log(r)

    def count_above(tau):
        if tau >= t_max:
            return 0
        return max(0, math.ceil(math.log(p * tau) / log_r))

    def s0(j):
        return 0.0 if j is None else r ** j

    def s1(j):
        return 0.0 if j is None else r ** (2 * j) / (p + q)

    out = np.empty_like(a)
    for k in range(len(a)):
        ak, bk = float(a[k]), float(b[k])
        taus = []
        if bk != 0.0:
            for xk in pl.xs[1:]:
                tau = (xk - ak) / bk
                if 0.0 < tau < t_max:
                    taus.append(tau)
        edges = [t_max] + sorted(set(taus), reverse=True) + [0.0]
        total = 0.0
        for hi, lo in zip(edges, edges[1:]):
            icpt, slope = piece_at_loop(pl, ak + bk * 0.5 * (hi + lo))
            ga = icpt + slope * ak
            gb = slope * bk
            j_lo = count_above(hi)
            j_hi = count_above(lo) if lo > 0.0 else None
            total += ga * (s0(j_lo) - s0(j_hi)) + gb * (s1(j_lo) - s1(j_hi))
        out[k] = total
    return out


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_strict_equal(pl, a, b, pq):
    assert bits(_pl_integrals_strict(pl, a, b, pq)) == bits(strict_loop(pl, a, b, pq))


def assert_classical_equal(pl, a, b):
    assert bits(_pl_integrals_classical(pl, a, b)) == bits(classical_loop(pl, a, b))


def default_pq_params(n):
    p, q = 1.0 - 1.0 / (n + 1) ** 2, 1.0 - 2.0 / (n + 1) ** 2
    return PQPair(p, q), OperatorParams(n=n, b_n=float(n) ** (1.0 / 3.0))


@pytest.mark.parametrize("n", [10, 200, 800, 1100, 3000])
def test_default_sequence(n):
    pq, params = default_pq_params(n)
    a, b = _node_affine(params, pq)
    classical_a, classical_b = _node_affine(params, P11)
    for pl in PLS:
        assert_strict_equal(pl, a, b, pq)
        assert_classical_equal(pl, classical_a, classical_b)


@pytest.mark.parametrize("mode", ["normalized", "literal"])
def test_operator_values_at_q_over_p_089(mode, monkeypatch):
    pq = PQPair(0.9, 0.801)
    params = OperatorParams(n=40, m=2, alpha=0.5, beta=1.0, b_n=3.0, mode=mode)
    handles = [builtin(name) for name in PL_BUILTINS] + [FunctionHandle(
        name="zigzag", evaluator=ZIGZAG, piecewise_linear=ZIGZAG, kinks=ZIGZAG.xs[1:])]
    xs = np.linspace(0.0, 3.0, 9)
    a, b = _node_affine(params, pq)
    for h in handles:
        assert_strict_equal(h.piecewise_linear, a, b, pq)
    got = operator_profile(handles, params, pq, xs)
    monkeypatch.setattr(operators, "_pl_integrals_strict", strict_loop)
    assert bits(got) == bits(operator_profile(handles, params, pq, xs))


def test_special_nodes():
    # kinks at tau = 0 (A on a kink), at tau = 1/p and at tau = 1 (the
    # kink 1.0 with B = p and B = 1), nodes with B = 0, kinks outside the
    # node hull on either side, and nodes that see all four kinks of the
    # zigzag, where (0.85, 0.7) sums its five pieces to other bits upward
    a = np.array([0.9, 1.0, 0.0, 0.0, 0.5, 1.0, 7.0, 0.0, 0.95, 0.3, 0.0, 0.85])
    b = np.array([0.5, 0.2, 0.9, 1.0, 0.0, 0.0, 0.3, 1e-3, 0.5, 2.5, 1.3, 0.7])
    for pl in PLS:
        assert_strict_equal(pl, a, b, PQ98)
        assert_classical_equal(pl, a, b)
    t_max = 1.0 / PQ98.p
    assert (1.0 - a[2]) / b[2] == t_max and (1.0 - a[3]) / b[3] == 1.0


def test_kinks_on_series_nodes():
    # kinks at t_j = r^j / p, where log(p tau) / log r is j up to rounding:
    # at these j numpy's vector log and math.log round to different sides
    # of the integer, so the node counts must take math.log
    pq, _params = default_pq_params(200)
    p, r = float(pq.p), float(pq.q) / float(pq.p)
    js = (161, 643, 1248, 1481)
    taus = [r ** j / p for j in js]
    for j, tau in zip(js, taus):
        assert abs(math.log(p * tau) / math.log(r) - j) < 1e-9
    pl = PiecewiseLinear(xs=(0.0,) + tuple(sorted(taus)), ys=(0.0, 1.0, -0.5, 2.0, 0.25),
                         end_slope=0.75)
    a, b = np.zeros(3), np.array([1.0, 1.0, 0.5])
    assert_strict_equal(pl, a, b, pq)


def test_coincident_cuts_are_one_cut():
    # 1.99 and the next float above it give the same tau at B = 1.45, so
    # the node has one cut there.  The piece between them is a cliff with
    # an infinite slope: a zero-width piece on it would add nan.
    x1 = 1.99
    x2 = math.nextafter(x1, 2.0)
    a, b = np.zeros(1), np.array([1.45])
    assert x1 / b[0] == x2 / b[0]
    cliff = PiecewiseLinear(xs=(0.0, x1, x2), ys=(0.0, 0.0, 1e300))
    pq = PQPair(0.5, 0.4)
    with np.errstate(over="ignore", invalid="ignore"):
        want = strict_loop(cliff, a, b, pq)
        assert np.isfinite(want).all()
        assert bits(_pl_integrals_strict(cliff, a, b, pq)) == bits(want)


def test_no_cut_in_range():
    # one piece per node: a single breakpoint, and nodes that see no kink
    a, b = np.array([0.0, 5.0, 0.25]), np.array([1.0, 2.0, 0.0])
    for pl in (PiecewiseLinear(xs=(0.0,), ys=(2.0,), end_slope=-1.5), ZIGZAG):
        assert_strict_equal(pl, a, b, PQ98)
        assert_classical_equal(pl, a, b)


@st.composite
def piecewise_linear(draw):
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=0, max_size=4))
    xs = tuple(np.cumsum([0.0] + steps).tolist())
    ys = tuple(draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs))))
    return PiecewiseLinear(xs=xs, ys=ys, end_slope=draw(st.floats(-3.0, 3.0)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pl=piecewise_linear(), n=st.integers(1, 60), m=st.integers(0, 3),
       p=st.floats(0.5, 1.0), ratio=st.floats(0.05, 0.999),
       alpha=st.floats(0.0, 3.0), extra=st.floats(0.0, 3.0), b_n=st.floats(0.1, 50.0))
def test_random_functions_and_parameters(pl, n, m, p, ratio, alpha, extra, b_n):
    params = OperatorParams(n=n, m=m, alpha=alpha, beta=alpha + extra, b_n=b_n)
    pq = PQPair(p, p * ratio)
    assert_strict_equal(pl, *_node_affine(params, pq), pq)
    assert_classical_equal(pl, *_node_affine(params, P11))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pl=piecewise_linear(), extra=st.lists(st.floats(-1.0, 20.0), max_size=6))
def test_piece_at_array_equals_scalar(pl, extra):
    # at the breakpoints, between them, below xs[0] and past xs[-1]
    xs = np.array(list(pl.xs) + [v + 0.5 for v in pl.xs] + extra + [pl.xs[-1] + 1.0])
    icpt, slope = pl.piece_at(xs)
    want = [piece_at_loop(pl, x) for x in xs.tolist()]
    assert bits(icpt) == bits([w[0] for w in want])
    assert bits(slope) == bits([w[1] for w in want])


def test_piece_at_one_breakpoint():
    pl = PiecewiseLinear(xs=(0.0,), ys=(1.5,), end_slope=-2.0)
    xs = np.array([-1.0, 0.0, 0.5, 4.0])
    icpt, slope = pl.piece_at(xs)
    assert bits(icpt) == bits([1.5] * 4) and bits(slope) == bits([-2.0] * 4)
    assert pl.piece_at(0.5) == piece_at_loop(pl, 0.5)
