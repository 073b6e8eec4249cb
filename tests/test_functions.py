import numpy as np
import pytest
from scipy.integrate import quad

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
    for a, gamma in ((0.8, 0.5), (1.0, 0.3), (0.0, 0.7)):
        h = builtin(f"lip:{a}:{gamma}")
        for lo, hi in ((0.0, 0.5), (0.3, 1.9), (1.2, 4.0)):
            kink = [a] if lo < a < hi else None
            want, _err = quad(h.evaluator, lo, hi, points=kink,
                              epsabs=1e-13, epsrel=1e-13, limit=200)
            got = h.antiderivative(hi) - h.antiderivative(lo)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


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
