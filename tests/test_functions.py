import math

import mpmath as mp
import numpy as np
import pytest

from pqkanto import DomainError, builtin, polynomial_handle
from pqkanto.functions import PiecewiseLinear


def test_plain_names_resolve():
    for name in ("const1", "id", "square", "sin"):
        assert builtin(name).name == name


@pytest.mark.parametrize("name", ["absdev:0.7", "lip:0.5:0.5", "bump:2"])
def test_parametrized_names_resolve(name):
    h = builtin(name)
    assert h.name.startswith(name.split(":")[0])


@pytest.mark.parametrize("name", ["nope", "absdev:", "lip:1", "bump:-1", "lip:1:2"])
def test_bad_names_raise(name):
    with pytest.raises(DomainError):
        builtin(name)


@pytest.mark.parametrize("name, param", [
    ("absdev:nan", "a=nan"), ("absdev:inf", "a=inf"), ("lip:nan:0.5", "a=nan"),
    ("lip:inf:0.5", "a=inf"), ("lip:1:nan", "gamma"), ("lip:1:inf", "gamma"),
    ("bump:nan", "C=nan"), ("bump:inf", "C=inf")])
def test_non_finite_parameters_raise(name, param):
    # NaN passes a < 0 and C <= 0, and bump:inf ran as the constant 1
    with pytest.raises(DomainError, match=param):
        builtin(name)


def test_polynomial_handle_matches_horner():
    h = polynomial_handle("cubic", (1.0, -2.0, 0.5, 3.0))
    xs = np.linspace(0, 3, 7)
    want = 1.0 - 2.0 * xs + 0.5 * xs ** 2 + 3.0 * xs ** 3
    assert np.allclose(h.evaluator(xs), want, atol=1e-13)


def test_piecewise_linear_eval_and_pieces():
    pl = PiecewiseLinear(xs=(0.0, 1.0, 3.0), ys=(2.0, 0.0, 4.0), end_slope=-1.0)
    assert pl(0.0) == 2.0
    assert pl(0.5) == 1.0
    assert pl(2.0) == pytest.approx(2.0)
    assert pl(5.0) == pytest.approx(4.0 - 2.0)
    icpt, slope = pl.piece_at(0.25)
    assert (icpt, slope) == (2.0, -2.0)
    icpt, slope = pl.piece_at(10.0)
    assert slope == -1.0


def test_piecewise_metadata_matches_evaluator():
    for name in ("absdev:0.7", "bump:2", "lip:1.5:1"):
        h = builtin(name)
        xs = np.linspace(0, 4, 333)
        assert np.allclose(h.piecewise_linear(xs), h.evaluator(xs), atol=1e-12)


@pytest.mark.parametrize("f", [
    *(builtin(name) for name in ("const1", "id", "square", "sin", "absdev:0.7",
                                 "lip:0.5:0.5", "bump:2")),
    polynomial_handle("cubic", (1.0, -2.0, 0.5, 3.0)),
    PiecewiseLinear(xs=(0.0, 1.0, 3.0), ys=(2.0, 0.0, 4.0), end_slope=-1.0),
], ids=lambda f: getattr(f, "name", "PiecewiseLinear"))
def test_evaluator_maps_a_float_array_to_its_shape(f):
    # the operator calls an integrand once per chunk on a 2-D float array
    # of nodes, with no per-element fallback
    t = np.linspace(-0.5, 5.0, 24).reshape(4, 6)
    out = f(t)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == t.shape
    assert np.allclose(out, [[f(float(v)) for v in row] for row in t], rtol=1e-15, atol=0)


def test_antiderivative_matches_evaluator():
    # the integral hook against 30-digit quadrature at the same float A, B:
    # within its own rounding estimate plus f's conditioning in A and B (one
    # ulp of each, measured by the same quadrature), across and up to the
    # kink, near-zero integrals of sin, A up to 1e3, B = 0, subnormal B and
    # falling nodes (B < 0, as at p < 1 where the brackets fall)
    eps = 2.0 ** -52
    for name in ("sin", "lip:1:0.5", "lip:0.8:0.3", "lip:0:1", "lip:2:0.01"):
        h = builtin(name)
        kink = 0.0 if name == "sin" else float(name.split(":")[1])
        mpf = (lambda u: mp.sin(u)) if name == "sin" else (
            lambda u, g=mp.mpf(float(name.split(":")[2])), c=kink: abs(u - c) ** g)
        near_zero = [(a, 2.0 * (math.pi - a), 0.0, 1.0) for a in (1.0, 3.0, 3.1)]
        cases = near_zero + [
            (0.0, 1.0, 0.0, 1.0), (0.9, 0.2, 0.0, 1.0), (0.5, 0.5, 0.0, 1.0), (1.0, 3.0, 0.25, 0.75),
            (1e3, 1e-3, 0.0, 1.0), (1e3, 7.0, 0.1, 1.01), (999.5, 1.0, 0.0, 1.0), (2.5, 1e-9, 0.0, 1.0),
            (0.3, 0.0, 0.0, 1.0), (0.3, 1e-310, 0.0, 1.0), (1e-311, 1e-310, 0.0, 1.0),
            (kink, 0.7, 0.0, 1.0), (kink - 0.7, 0.7, 0.0, 1.0), (0.7, 1e-6, 1e-3, 1.0001),
            (kink + 0.7, -0.7, 0.0, 1.0), (kink + 0.3, -0.7, 0.0, 1.0), (3.0, -1.0, 0.0, 1.0),
            (kink - 0.2, -0.5, 0.0, 1.0)]
        a, b = np.array([c[0] for c in cases]), np.array([c[1] for c in cases])
        for t_lo, t_hi in ((0.0, 1.0), (0.125, 0.875)):
            got, err = h.integral(a, b, t_lo, t_hi)
            assert got.shape == err.shape == a.shape
            assert np.all(err <= 8.0 * eps * np.abs(got))
            with mp.workdps(30):
                def exact(ai, bi):
                    lo, hi = mp.mpf(t_lo), mp.mpf(t_hi)
                    cut = [(kink - ai) / bi] if bi and lo < (kink - ai) / bi < hi else []
                    return mp.quad(lambda t: mpf(ai + bi * t), [lo] + cut + [hi])
                for k, (ai, bi) in enumerate(zip(map(mp.mpf, a), map(mp.mpf, b))):
                    want = exact(ai, bi)
                    d = eps * (abs(ai) + abs(bi) * t_hi + kink)
                    cond = max(abs(exact(ai + s * d, bi * (1 + s2 * eps)) - want)
                               for s in (-1, 0, 1) for s2 in (-1, 0, 1))
                    assert abs(got[k] - want) <= err[k] + 2 * cond + 1e-320, (name, cases[k], t_lo)


def test_lip_integral_with_an_end_on_the_kink():
    # the last nodes of the unit operator at n = 648, A = k (1/649) and B =
    # 1/649, reach the kink 1 within rounding.  At k = 648, A + B rounds onto
    # it while the exact sum is 7.5e-17 past it, so |B| dt is 1 + 4.9e-14
    # times the far end's distance: the hook divides by that ratio, not by
    # one clipped below 1.  At k = 649, A is the kink, and A + B - 1 would
    # round B by 2.3e-14 of it: the hook takes the upper end as lo + B dt.
    h, s = builtin("lip:1:0.5"), 1.0 / 649
    for k in (648, 649):
        got, _err = h.integral(np.array([k * s]), np.array([s]), 0.0, 1.0)
        with mp.workdps(40):
            a, b = mp.mpf(k * s), mp.mpf(s)
            big_f = lambda u: mp.sign(u - 1) * abs(u - 1) ** 1.5 / 1.5  # noqa: E731
            want = (big_f(a + b) - big_f(a)) / b
        assert abs(got[0] - want) <= 2e-16 * want, k


def test_support_bound_is_honored():
    h = builtin("bump:2")
    xs = np.linspace(2.0, 10.0, 23)
    assert np.all(h.evaluator(xs) == 0.0)


def test_lip_certificates_hold_on_samples():
    rng = np.random.default_rng(3)
    for name in ("id", "sin", "absdev:1.2", "lip:0.8:0.5", "bump:3"):
        h = builtin(name)
        m_const, gamma = h.lip
        t, x = rng.uniform(0, 6, (2, 300))
        lhs = np.abs(np.asarray(h.evaluator(t)) - np.asarray(h.evaluator(x)))
        assert np.all(lhs <= m_const * np.abs(t - x) ** gamma + 1e-12)


def test_exact_moduli_dominate_sampled_increments():
    rng = np.random.default_rng(4)
    for name in ("const1", "id", "sin", "absdev:0.5", "lip:1:0.3", "bump:2"):
        h = builtin(name)
        for delta in (0.1, 0.7, 2.0):
            x = rng.uniform(0, 5, 200)
            t = np.clip(x + rng.uniform(-delta, delta, 200), 0.0, None)
            lhs = np.abs(np.asarray(h.evaluator(t)) - np.asarray(h.evaluator(x)))
            assert np.all(lhs <= h.exact_modulus(delta) + 1e-12)


def test_polynomial_coeffs_consistent():
    for name in ("const1", "id", "square"):
        h = builtin(name)
        xs = np.linspace(0, 2, 9)
        want = sum(c * xs ** i for i, c in enumerate(h.polynomial_coeffs))
        assert np.allclose(h.evaluator(xs), want, atol=1e-14)


def test_sine_modulus_saturates():
    h = builtin("sin")
    assert h.exact_modulus(np.pi) == pytest.approx(2.0)
    assert h.exact_modulus(10.0) == 2.0
    assert h.exact_modulus(0.2) == pytest.approx(2 * np.sin(0.1))


@pytest.mark.parametrize("name, kinks", [
    ("const1", ()), ("id", ()), ("square", ()), ("sin", ()), ("absdev:0", ()),
    ("absdev:0.7", (0.7,)), ("lip:1:0.5", (1.0,)), ("lip:1.5:1", (1.5,)), ("bump:2", (2.0,)),
])
def test_kinks_metadata(name, kinks):
    h = builtin(name)
    assert h.kinks == kinks
    d = 1e-3
    for c in kinks:
        second = h.evaluator(c + d) - 2.0 * h.evaluator(c) + h.evaluator(c - d)
        assert abs(second) > 100 * d * d
