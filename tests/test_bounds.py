import importlib.util
import sys
import warnings
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqkanto import (
    DomainError,
    OperatorParams,
    PQPair,
    bound_reports,
    builtin,
    node_hull_max,
    polynomial_handle,
)
from pqkanto import bounds
from pqkanto.bounds import BOUND_CSV_FIELDS, DOMAIN_STEPS, _Moduli, _pl_second_modulus
from pqkanto.cli import main as cli_main
from pqkanto.functions import FunctionHandle, PiecewiseLinear
from pqkanto.moments import _direct_moments, peetre_bound_args
from pqkanto.operators import WEIGHT_BLOCK

from oracles import one_delta_modulus, pl_second_modulus

P11 = PQPair(1, 1)


def stripped(handle):
    """Same evaluator, no metadata: forces the grid estimators."""
    return FunctionHandle(name="plain", evaluator=handle.evaluator)


def omega(order, f, delta, domain):
    """omega_order(f, delta) over domain, from a modulus routine of its own."""
    return _Moduli(f, domain)(order, delta)


class TestModulus:
    def test_linear_slope(self):
        lin = polynomial_handle("3x", (0.0, 3.0))
        assert omega(1, lin, 0.2, (0.0, 2.0)) == pytest.approx(0.6, abs=1e-12)

    def test_constant_is_zero(self):
        c = stripped(builtin("const1"))
        assert omega(1, c, 0.5, (0.0, 1.0)) == 0.0

    def test_square_example(self):
        # true modulus on [0,1] with delta=0.1 is 2*0.9*0.1 + 0.01 = 0.19
        got = omega(1, builtin("square"), 0.1, (0.0, 1.0))
        assert got <= 0.19 + 1e-12
        assert got == pytest.approx(0.19, abs=2e-3)

    def test_exact_metadata_shortcut(self):
        h = builtin("absdev:5")
        assert omega(1, h, 0.37, (0.0, 100.0)) == 0.37

    def test_grid_estimate_below_exact(self):
        h = builtin("absdev:1")
        for delta in (0.1, 0.5, 1.3):
            est = omega(1, stripped(h), delta, (0.0, 4.0))
            assert est <= h.exact_modulus(delta) + 1e-12

    def test_nondecreasing_and_zero_at_zero(self):
        h = stripped(builtin("sin"))
        deltas = [0.0, 0.1, 0.5, 1.0, 2.0]
        vals = [omega(1, h, d, (0.0, 8.0)) for d in deltas]
        assert vals[0] == 0.0
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_delta(self):
        with pytest.raises(DomainError):
            omega(1, builtin("id"), -0.1, (0.0, 1.0))

    def test_rejects_empty_domain(self):
        with pytest.raises(DomainError):
            omega(1, stripped(builtin("id")), 0.1, (1.0, 1.0))


class TestSecondModulus:
    def test_linear_vanishes(self):
        lin = polynomial_handle("lin", (2.0, -3.0))
        assert omega(2, lin, 0.3, (0.0, 2.0)) == pytest.approx(0.0, abs=1e-12)
        # bump:2 is affine on [0, 1.9]: its kink at 2 lies outside
        assert omega(2, builtin("bump:2"), 0.9, (0.0, 1.9)) == 0.0

    def test_square_exact(self):
        assert omega(2, builtin("square"), 0.1, (0.0, 1.0)) == \
            pytest.approx(0.02, rel=1e-12)

    def test_square_grid_matches_exact(self):
        h = stripped(builtin("square"))
        got = omega(2, h, 0.1, (0.0, 1.0))
        assert got == pytest.approx(0.02, abs=1e-4)
        assert got <= 0.02 + 1e-12

    def test_constant_vanishes(self):
        assert omega(2, builtin("const1"), 1.0, (0.0, 2.0)) == 0.0


class TestBoundReport:
    def test_constant_function(self):
        rep = bound_reports(builtin("const1"), [0.4], OperatorParams(n=4), PQPair(0.9, 0.8))[0]
        assert rep.observed_error == pytest.approx(0.0, abs=1e-12)
        assert rep.modulus_bound >= 0.0
        assert rep.holds_modulus is True
        assert rep.holds_lipschitz is True

    def test_absdev_bounds_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            p = rng.uniform(0.7, 1.0)
            pq = PQPair(p, p * rng.uniform(0.5, 0.98))
            params = OperatorParams(n=int(rng.integers(2, 10)),
                                    m=int(rng.integers(0, 3)),
                                    alpha=1.0, beta=2.0, b_n=2.0)
            x = rng.uniform(0, 2.0)
            rep = bound_reports(builtin("absdev:0.9"), [x], params, pq)[0]
            assert rep.holds_modulus is True
            assert rep.holds_lipschitz is True
            assert rep.modulus_bound == pytest.approx(2 * rep.modulus_at_sqrt_moment)

    def test_lip_bound_formula(self):
        params = OperatorParams(n=5, b_n=1.0)
        pq = PQPair(0.9, 0.8)
        rep = bound_reports(builtin("lip:0.5:0.5"), [0.3], params, pq)[0]
        assert rep.lipschitz_bound == pytest.approx(
            rep.second_central_moment ** 0.25, rel=1e-12
        )
        assert rep.holds_lipschitz is True

    def test_negative_bias_uses_absolute_value(self):
        # large beta pushes the first-moment ratio below one, so the signed
        # displacement at x = b_n is negative
        params = OperatorParams(n=4, m=0, alpha=0.0, beta=6.0, b_n=1.0)
        pq = PQPair(0.95, 0.9)
        h = builtin("absdev:0.5")
        rep = bound_reports(h, [1.0], params, pq)[0]
        assert rep.bias < 0
        assert rep.modulus_at_abs_bias == pytest.approx(abs(rep.bias))

    def test_grid_moduli_set_no_flags(self):
        h = stripped(builtin("sin"))
        rep = bound_reports(h, [0.5], OperatorParams(n=4), PQPair(0.9, 0.8))[0]
        assert rep.holds_modulus is None
        assert rep.holds_lipschitz is None
        assert rep.lipschitz_bound is None

    def test_requires_normalized_mode(self):
        with pytest.raises(DomainError):
            bound_reports(builtin("id"), [0.2], OperatorParams(n=3, mode="literal"),
                          PQPair(0.9, 0.8))[0]

    def test_moduli_measured_over_hull(self):
        # square has no exact (global) modulus; its modulus over the domain
        # grows with it, so the report must use the hull end, not b_n
        params = OperatorParams(n=2, m=0, b_n=1.0)
        pq = PQPair(0.8, 0.5)
        hull_hi = node_hull_max(params, pq)
        assert hull_hi > 1.0
        rep = bound_reports(builtin("square"), [0.5], params, pq)[0]
        direct = omega(1, builtin("square"), np.sqrt(rep.second_central_moment),
                       (0.0, hull_hi))
        assert rep.modulus_at_sqrt_moment == pytest.approx(direct, rel=1e-12)

    def test_rational_inputs_keep_the_exact_direct_sums(self):
        # all-rational inputs: c2 is the exact sum rounded once, which the
        # float sums miss in the last bits at most of these points; the
        # operator values are the float profile's
        from pqkanto.moments import _exact_moments
        from pqkanto.operators import operator_profile

        params = OperatorParams(n=5, m=1, alpha=Fraction(1), beta=Fraction(2), b_n=Fraction(3))
        pq = PQPair(Fraction(9, 10), Fraction(4, 5))
        xs = [Fraction(k, 4) for k in range(13)]
        h = builtin("sin")
        rows = bound_reports(h, xs, params, pq)
        exact = [max(float(m["c2"]), 0.0) for m in _exact_moments(params, pq, xs)]
        assert [row.second_central_moment for row in rows] == exact
        floats = _direct_moments(OperatorParams(n=5, m=1, alpha=1.0, beta=2.0, b_n=3.0),
                                 PQPair(0.9, 0.8), [float(x) for x in xs])
        assert sum(m["c2"] != c2 for m, c2 in zip(floats, exact)) >= 6
        assert [row.observed_error for row in rows] == [
            abs(v - float(h.evaluator(float(x))))
            for v, x in zip(operator_profile(h, params, pq, xs).tolist(), xs)]

    def test_csv_fields_cover_report(self):
        rep = bound_reports(builtin("absdev:1"), [0.5], OperatorParams(n=3),
                            PQPair(0.9, 0.8))[0]
        payload = asdict(rep)
        for field in BOUND_CSV_FIELDS:
            assert field in payload


class TestGridEstimator:
    DOMAIN = (0.0, 4.0)
    STEP = 4.0 / DOMAIN_STEPS

    @staticmethod
    def closed_forms(name, length):
        """(omega_1, upper value of omega_2) over [0, length]."""
        if name == "sin":
            return (lambda d: 2.0 * np.sin(min(d, np.pi) / 2.0),
                    lambda d: 4.0 * np.sin(min(d, np.pi) / 2.0) ** 2)
        if name == "square":
            return (lambda d: 2.0 * length * d - d * d if d <= length else length ** 2,
                    lambda d: 2.0 * d * d)
        h = builtin(name)
        return h.exact_modulus, lambda d: 2.0 * h.exact_modulus(d)

    @pytest.mark.parametrize("name", ["sin", "absdev:1", "lip:0.5:0.5", "bump:2", "square"])
    def test_lower_estimates_off_the_grid(self, name):
        h = stripped(builtin(name))
        om1, om2_upper = self.closed_forms(name, self.DOMAIN[1])
        for delta in (0.37 * self.STEP, 3.5 * self.STEP, 0.1, 1.3, 5.0):
            assert omega(1, h, delta, self.DOMAIN) <= om1(delta) + 1e-12
            assert omega(2, h, delta, self.DOMAIN) <= om2_upper(delta) + 1e-12

    def test_reports_match_pointwise_in_any_order(self):
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        pq = PQPair(0.9, 0.8)
        xs = [float(x) for x in np.linspace(0.0, 3.0, 9)]
        for h in (stripped(builtin("sin")), builtin("square"), builtin("lip:0.5:0.5"),
                  builtin("absdev:0.5")):
            rows = bound_reports(h, xs, params, pq)
            assert rows == [bound_reports(h, [x], params, pq)[0] for x in xs]
            # tables grown in another order give the same values
            assert bound_reports(h, xs[::-1], params, pq) == rows[::-1]

    def test_reports_sample_f_once(self):
        # polynomial coefficients keep the operator off the evaluator, and
        # without exact moduli, at degree 3, both orders go through the grid
        cube = polynomial_handle("cube", (0.0, 0.0, 0.0, 1.0))
        points = []

        def counted(x):
            points.append(np.size(x))
            return cube.evaluator(x)

        h = FunctionHandle(name="cube", evaluator=counted,
                           polynomial_coeffs=cube.polynomial_coeffs)
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        xs = np.linspace(0.0, 3.0, 9)
        bound_reports(h, xs, params, PQPair(0.9, 0.8))
        assert sum(points) <= (2 + 4 * len(xs)) * (DOMAIN_STEPS + 1) + len(xs)
        # one base sample serves both orders at every x; the offset h = delta
        # never reaches past the last base point
        assert points.count(DOMAIN_STEPS + 1) == 1

    def test_reports_share_one_operator_profile(self, monkeypatch):
        from pqkanto import apply_operator, operators

        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        pq = PQPair(0.9, 0.8)
        xs = [float(x) for x in np.linspace(0.0, 3.0, 9)]
        inner = operators._inner_integrals
        calls = []

        def counted(*args):
            calls.append(args[0].name)
            return inner(*args)

        for name in ("sin", "absdev:0.5", "lip:0.5:0.5", "square"):
            h = builtin(name)
            want = [apply_operator(h, x, params, pq) for x in xs]
            monkeypatch.setattr(operators, "_inner_integrals", counted)
            rows = bound_reports(h, xs, params, pq)
            monkeypatch.setattr(operators, "_inner_integrals", inner)
            assert [row.observed_error for row in rows] == [
                abs(kf - float(h.evaluator(x))) for kf, x in zip(want, xs)]
            # once for f; the direct-sum moments take no handle
            assert calls.count(name) == 1
            calls.clear()

    def test_second_central_moment_column_equals_handle(self):
        # the grid's direct sums equal the (t - x)^2 handle at each x, bit for bit
        from pqkanto import apply_operator

        for params, pq in ((OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0),
                            PQPair(0.9, 0.8)),
                           (OperatorParams(n=20, m=1, alpha=0.5, beta=1.0, b_n=2.0), P11)):
            xs = [float(x) for x in np.linspace(0.0, float(params.b_n), 33)]
            rows = bound_reports(builtin("absdev:0.5"), xs, params, pq)
            for x, row in zip(xs, rows):
                sqdev = polynomial_handle("sqdev", (x * x, -2.0 * x, 1.0))
                want = max(apply_operator(sqdev, x, params, pq), 0.0)
                assert row.second_central_moment.hex() == want.hex()

    @pytest.mark.parametrize("points", [2, 33])
    def test_reports_take_one_profile_and_one_moment_node_map(self, monkeypatch, points):
        # the operator values and the direct sums share one weight build and
        # one node map: one call each
        from pqkanto import operators

        calls = []
        for name in ("_weight_factors", "_node_affine"):
            original = getattr(operators, name)
            monkeypatch.setattr(operators, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        xs = [float(x) for x in np.linspace(0.0, 3.0, points)]
        for name in ("sin", "square"):
            del calls[:]
            bound_reports(builtin(name), xs, params, PQPair(0.9, 0.8))
            assert calls.count("_weight_factors") == 1, name
            assert calls.count("_node_affine") == 1, name

    def test_peetre_args_in_blocks(self, monkeypatch):
        # a large grid at moderate degree: each call sees at most
        # WEIGHT_BLOCK // (2 degree + 1) points, and the values are the
        # one-point ones bit for bit
        params = OperatorParams(n=200, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        pq = PQPair(0.9, 0.8)
        xs = [float(x) for x in np.linspace(0.0, 3.0, 1001)]
        sizes = []
        monkeypatch.setattr(bounds, "peetre_bound_args",
                            lambda p, q, x: sizes.append(len(x)) or peetre_bound_args(p, q, x))
        reports = bound_reports(builtin("sin"), xs, params, pq)
        assert max(sizes) == WEIGHT_BLOCK // (2 * params.degree + 1) and sum(sizes) == len(xs)
        for x, report in zip(xs[::50], reports[::50]):
            peetre_arg, bias = peetre_bound_args(params, pq, x)
            assert (report.peetre_arg, report.bias) == (float(peetre_arg), float(bias))


def mp_quadratic_modulus(coeffs, delta, lo, hi, steps=200):
    """50-digit omega_1 of c0 + c1 t + c2 t^2 over [lo, hi], found without the
    closed form: the largest range of f over a window [t, t + w], w = min(delta,
    hi - lo), inside the domain, over a dense grid of t and then golden-section
    search around each grid maximum.  The range over a window is taken from
    its ends and, when inside it, the stationary point of f."""
    with mp.workdps(50):
        c0, c1, c2 = (mp.mpf(c) for c in coeffs)
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        w = min(mp.mpf(delta), hi - lo)

        def spread(t):
            ts = [t, t + w] + ([-c1 / (2 * c2)] if c2 and t < -c1 / (2 * c2) < t + w else [])
            values = [c0 + c1 * s + c2 * s * s for s in ts]
            return max(values) - min(values)

        ts = [lo + (hi - w - lo) * i / steps for i in range(steps + 1)]
        vals = [spread(t) for t in ts]
        best = max(vals)
        golden = (mp.sqrt(5) - 1) / 2
        for i in range(steps + 1):
            if vals[i] < max(vals[max(i - 1, 0)], vals[min(i + 1, steps)]):
                continue
            a, b = ts[max(i - 1, 0)], ts[min(i + 1, steps)]
            for _ in range(120):
                c, d = b - golden * (b - a), a + golden * (b - a)
                if spread(c) >= spread(d):
                    b = d
                else:
                    a = c
            best = max(best, spread((a + b) / 2))
        return best


class TestQuadraticModulus:
    """omega_1 of a polynomial of degree <= 2 without exact metadata is a
    closed form over the domain: no grid table is built."""

    # square on bounds-grid's first hull, inside it and past it; a concave f
    # whose ends both peak at h = 1/2; lo > 0 with the vertex of the hi end
    # (delta 0.9) and of the lo end (delta past the domain); a falling
    # concave f; a line; a constant
    CASES = [((0.0, 0.0, 1.0), 0.3, (0.0, 1.5271657522561723)),
             ((0.0, 0.0, 1.0), 2.0, (0.0, 1.5271657522561723)),
             ((0.0, 1.0, -1.0), 0.8, (0.0, 1.0)),
             ((1.0, -3.0, 0.7), 0.9, (0.4, 2.9)),
             ((1.0, -3.0, 0.7), 5.0, (0.4, 2.9)),
             ((-2.0, 0.5, -1.5), 0.6, (0.3, 1.1)),
             ((0.25, -2.5), 0.7, (1.0, 4.0)),
             ((3.0,), 0.7, (1.0, 4.0))]

    @pytest.mark.parametrize("coeffs, delta, domain", CASES)
    def test_against_mpmath_and_the_grid(self, monkeypatch, coeffs, delta, domain):
        h = polynomial_handle("quad", coeffs)
        orders = count_grid_tables(monkeypatch)
        got = omega(1, h, delta, domain)
        assert orders == []
        want = mp_quadratic_modulus(coeffs + (0.0,) * (3 - len(coeffs)), delta, *domain)
        assert abs(got - want) <= 1e-14 * want
        assert omega(1, stripped(h), delta, domain) <= got + 1e-12
        assert one_delta_modulus(h, 1, delta, *domain) <= got + 1e-12

    def test_square_is_h_times_2H_minus_h(self):
        # h (2H - h) at h = min(delta, H) on [0, H], as printed; the flags stay
        # keyed to the global exact modulus, which square lacks
        hi = 1.7716868861038455  # bounds-grid's second hull
        for delta in (0.0, 5e-324, 0.1, 1.0, hi, 3.0):
            h = min(delta, hi)
            assert omega(1, builtin("square"), delta, (0.0, hi)) == h * (2.0 * hi - h)
        assert builtin("square").exact_modulus is None

    def test_degree_three_takes_the_grid(self, monkeypatch):
        orders = count_grid_tables(monkeypatch)
        cube = polynomial_handle("cube", (0.0, 0.0, 1.0, 1.0))
        got = omega(1, cube, 0.3, (0.0, 1.0))
        assert orders == [1]
        assert got == omega(1, stripped(cube), 0.3, (0.0, 1.0))


def count_grid_tables(monkeypatch):
    """The orders of every `_Moduli._grid_aligned` call from now on."""
    orders = []
    original = _Moduli._grid_aligned
    monkeypatch.setattr(_Moduli, "_grid_aligned",
                        lambda self, order, k: orders.append(order) or original(self, order, k))
    return orders


def pl_brute_force(pl, delta, lo, hi, steps=150):
    """Largest |Delta^2_h f(x)| from samples of f over a dense (x, h) grid
    that also holds the kink-aligned points: h at the breaks (k' - k)/j,
    (k - lo)/j, (hi - k)/j (j = 1, 2) and at the cap, x at k - c h."""
    cap = min(delta, (hi - lo) / 2.0)
    kinks = [k for k in pl.xs[1:] if lo < k < hi]
    hs = np.linspace(0.0, cap, steps + 1)[1:].tolist()
    for k in kinks:
        for j in (1.0, 2.0):
            hs += [(k - lo) / j, (hi - k) / j] + [(k2 - k) / j for k2 in kinks]
    best = 0.0
    for h in (h for h in hs if 0.0 < h <= cap):
        xs = np.linspace(lo, hi - 2.0 * h, steps + 1).tolist()
        xs += [min(max(k - c * h, lo), hi - 2.0 * h) for k in kinks for c in (0, 1, 2)]
        x = np.array(xs)
        best = max(best, float(np.abs(pl(x + 2.0 * h) - 2.0 * pl(x + h) + pl(x)).max()))
    return best


def mp_sin_second_modulus(delta, lo, hi, steps=400):
    """30-digit largest 4 sin^2(h/2) max|sin| on [lo + h, hi - h] over
    0 < h <= min(delta, (hi - lo)/2): a dense h grid, then golden-section
    search around each grid maximum."""
    with mp.workdps(30):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        cap = min(mp.mpf(delta), (hi - lo) / 2)

        def g(h):
            a, b = lo + h, hi - h
            first_peak = mp.pi / 2 + mp.pi * mp.ceil((a - mp.pi / 2) / mp.pi)
            m = 1 if first_peak <= b else max(abs(mp.sin(a)), abs(mp.sin(b)))
            return 4 * mp.sin(h / 2) ** 2 * m

        hs = [cap * i / steps for i in range(steps + 1)]
        vals = [g(h) for h in hs]
        best = max(vals)
        golden = (mp.sqrt(5) - 1) / 2
        for i in range(1, steps + 1):
            if vals[i] < max(vals[i - 1], vals[min(i + 1, steps)]):
                continue
            a, b = hs[i - 1], hs[min(i + 1, steps)]
            for _ in range(130):
                c, d = b - golden * (b - a), a + golden * (b - a)
                if g(c) >= g(d):
                    b = d
                else:
                    a = c
            best = max(best, g((a + b) / 2))
        return best


def lip_second_modulus(a, g, delta, lo, hi):
    """omega_2 of |x - a|^g over [lo, hi] with lo <= a <= hi, the closed
    form that `lip_handle` proves."""
    k = 2.0 - 2.0 ** g
    return max(2.0 * min(delta, a - lo, hi - a) ** g,
               k * min(delta, (a - lo) / 2.0) ** g, k * min(delta, (hi - a) / 2.0) ** g)


def mp_lip_second_modulus(a, g, delta, lo, hi, steps=40):
    """30-digit largest |Delta^2_h f(x)| of f = |x - a|^g over 0 < h <= cap =
    min(delta, (hi - lo)/2) and lo <= x <= hi - 2h, found without the
    closed form.  Off the lines where a point x + jh meets a or an end of
    [lo, hi], the gradient of Delta^2 vanishes only where Delta^2 = 0: its
    h-part 2 (f'(x + 2h) - f'(x + h)) is nonzero for g < 1 (f' falls on
    each side of a and changes sign across it), and for g = 1 its x-part
    is +-2 across the kink.  So the max lies on one of those lines (x = lo,
    x = hi - 2h, x + jh = a) or on h = cap; each is searched by a dense
    grid, then golden section around each grid maximum."""
    with mp.workdps(30):
        a, g, lo, hi = mp.mpf(a), mp.mpf(g), mp.mpf(lo), mp.mpf(hi)
        cap = min(mp.mpf(delta), (hi - lo) / 2)

        def diff(x, h):
            return abs(abs(x + 2 * h - a) ** g - 2 * abs(x + h - a) ** g + abs(x - a) ** g)

        def search(value, top):
            ss = [top * i / steps for i in range(steps + 1)]
            vals = [value(s) for s in ss]
            best = max(vals)
            golden = (mp.sqrt(5) - 1) / 2
            for i in range(steps + 1):
                if vals[i] < max(vals[max(i - 1, 0)], vals[min(i + 1, steps)]):
                    continue
                u, v = ss[max(i - 1, 0)], ss[min(i + 1, steps)]
                for _ in range(80):
                    c, d = v - golden * (v - u), u + golden * (v - u)
                    if value(c) >= value(d):
                        v = d
                    else:
                        u = c
                best = max(best, value((u + v) / 2))
            return best

        best = search(lambda x: diff(lo + x, cap), hi - 2 * cap - lo)
        # the line x = c0 + c1 h keeps lo <= x and x + 2h <= hi up to h = top
        for c0, c1 in ((lo, 0), (hi, -2), (a, 0), (a, -1), (a, -2)):
            top = min([cap] + ([(c0 - lo) / -c1] if c1 else [])
                      + ([(hi - c0) / (c1 + 2)] if c1 + 2 else []))
            if top > 0:
                best = max(best, search(lambda h: diff(c0 + c1 * h, h), top))
        return best


class TestSecondModulusOverHull:
    """omega_2 from the handle's structure: exact over the domain, never
    below the grid estimate, and the grid table is not built."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    # each example reads below the grid if the enumeration drops one kind of
    # candidate: the breaks (k' - k)/j or the halved breaks; x = k - 2h;
    # x = k; x = k - h
    @example([72, 91, 111, 120], [1.7, -0.1, 3.0, 2.6, -0.6], 1.8, 1.61, 5.65, 1.66)
    @example([41, 72, 84, 90], [-2.7, 4.5, 3.4, 0.7, -3.5], -0.5, 0.9, 3.61, 1.47)
    @example([18, 22, 97, 110], [3.3, 2.0, -1.6, -1.2, 3.1], 2.9, 0.67, 4.84, 2.17)
    @example([3, 95, 97], [-2.1, -4.5, -1.2, -0.9, -4.5], -2.7, 3.0, 3.93, 0.95)
    @given(st.lists(st.integers(1, 120), min_size=0, max_size=4, unique=True),
           st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
           st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.floats(0.05, 6.0),
           st.floats(1e-3, 4.0))
    def test_piecewise_linear_between_grid_and_brute_force(self, steps, ys, end_slope,
                                                           lo, length, delta):
        xs = (0.0,) + tuple(0.05 * k for k in sorted(steps))
        pl = PiecewiseLinear(xs=xs, ys=tuple(ys[:len(xs)]), end_slope=end_slope)
        domain = (lo, lo + length)
        exact = omega(2, FunctionHandle(name="pl", evaluator=pl, piecewise_linear=pl),
                      delta, domain)
        grid = omega(2, FunctionHandle(name="pl", evaluator=pl), delta, domain)
        assert grid <= exact + 1e-12
        assert exact <= pl_brute_force(pl, delta, *domain) + 1e-12

    @pytest.mark.parametrize("domain", [(0.2, 1.1), (0.5, 2.9), (0.3, 5.0), (1.28, 5.98),
                                        (1.0, 5.2), (0.5, 8.0), (0.3, 10.3)])
    @pytest.mark.parametrize("delta", [0.05, 0.4, 1.0, 2.5, 4.0])
    def test_sin_against_mpmath(self, domain, delta):
        # a short hull; one that holds pi/2; one of 1.5 pi and its mirror
        # about 2 pi (largest at a stationary point of the lo and of the hi
        # end); one whose middle at h = 1 lies between two peaks; one whose
        # middle holds a peak at h = pi; one longer than 3 pi
        want = mp_sin_second_modulus(delta, *domain)
        got = omega(2, builtin("sin"), delta, domain)
        assert abs(got - want) <= 1e-13 * want
        assert omega(2, stripped(builtin("sin")), delta, domain) <= got + 1e-12

    @pytest.mark.parametrize("a, domain", [(0.5, (0.0, 1.5)), (1.2, (0.0, 1.5))])
    def test_lip_window_edge_and_past_it(self, monkeypatch, a, domain):
        # past the window the closed form answers too: no table is built
        h = builtin(f"lip:{a}:0.5")
        edge = min(a - domain[0], domain[1] - a)
        orders = count_grid_tables(monkeypatch)
        assert omega(2, h, edge, domain) == 2.0 * edge ** 0.5
        past = {delta: omega(2, h, delta, domain)
                for delta in (float(np.nextafter(edge, 2.0)), 0.6, 2.0)}
        assert orders == []
        for delta, got in past.items():
            assert got == lip_second_modulus(a, 0.5, delta, *domain)
            assert omega(2, stripped(h), delta, domain) <= got + 1e-12

    def test_lip_kink_outside_the_hull_takes_the_grid(self, monkeypatch):
        h = builtin("lip:2:0.5")
        orders = count_grid_tables(monkeypatch)
        got = omega(2, h, 0.4, (0.0, 1.5))
        assert orders == [2]
        assert got == omega(2, stripped(h), 0.4, (0.0, 1.5))

    @pytest.mark.parametrize("a", [0.2, 0.5, 1.7])
    @pytest.mark.parametrize("gamma", [1e-3, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("delta", [0.2, 0.45, 1.0])
    def test_lip_against_mpmath(self, a, gamma, delta):
        # hull [0.2, 1.7]: the kink at lo, inside (window 0.3, w_R/2 = 0.6)
        # and at hi; delta inside the window, between it and w_R/2, and
        # past half the hull
        lo, hi = 0.2, 1.7
        h = builtin(f"lip:{a}:{gamma}")
        got = omega(2, h, delta, (lo, hi))
        want = mp_lip_second_modulus(a, gamma, delta, lo, hi)
        # 1e-25: the 30-digit rounding where the true value is 0 (g = 1, a
        # at an end)
        assert abs(got - want) <= 1e-13 * want + 1e-25
        assert omega(2, stripped(h), delta, (lo, hi)) <= got + 1e-12
        if gamma == 1.0:
            pl = _pl_second_modulus(h.piecewise_linear, [delta], lo, hi)[0]
            assert abs(got - pl) <= 1e-15 * pl
            assert pl.hex() == pl_second_modulus(h.piecewise_linear, delta, lo, hi).hex()
        if delta <= min(a - lo, hi - a):
            assert got == 2.0 * delta ** gamma

    def test_bound_reports_build_no_grid_table(self, tmp_path, monkeypatch):
        # both operator settings of perfbench's bounds-grid over its five
        # builtins: sqrt peetre_arg reaches 2.09 on the hull [0, 1.527] in
        # the first; square's first modulus is a closed form too, so no
        # order takes the grid, and f is never sampled on it
        workloads = load_by_path("workloads", monkeypatch)
        monkeypatch.chdir(tmp_path)
        orders = count_grid_tables(monkeypatch)
        samples = []
        sample = _Moduli._sample
        monkeypatch.setattr(_Moduli, "_sample", lambda self, x: samples.append(x.size)
                            or sample(self, x))
        for op in workloads.build("bounds-grid", 3):
            assert cli_main(list(op.argv)) == 0, op.id
            assert orders == [] and samples == [], op.id

    @pytest.mark.parametrize("kinks, enumerated", [(30, True), (100, False)])
    def test_many_kinks_stay_bounded(self, monkeypatch, kinks, enumerated):
        # the enumeration costs about K^4 for K kinks inside the hull: at 30
        # it still runs, at 100 the grid answers instead
        xs = tuple(np.linspace(0.0, 3.0, kinks + 1))
        pl = PiecewiseLinear(xs=xs, ys=tuple(np.cos(7.0 * np.array(xs))), end_slope=0.5)
        orders = count_grid_tables(monkeypatch)
        got = omega(2, FunctionHandle(name="pl", evaluator=pl, piecewise_linear=pl),
                    2.0, (0.0, 3.5))
        assert (orders == []) == enumerated
        grid = omega(2, FunctionHandle(name="pl", evaluator=pl), 2.0, (0.0, 3.5))
        assert grid <= got + 1e-12
        assert enumerated or got == grid


def offset_maxima(f_base, order):
    """Entry j - 1 is the largest |Delta^order_{jD} f(x_i)|, for j = 1, 2, ..."""
    maxima = []
    for j in range(1, (f_base.size - 1) // order + 1):
        m = f_base.size - order * j
        values = [f_base[i * j: i * j + m] for i in range(order + 1)]
        diff = values[1] - values[0] if order == 1 else values[2] - 2.0 * values[1] + values[0]
        maxima.append(float(np.abs(diff).max()))
    return maxima


def reference_table(f_base, order):
    """The per-offset loop the grid kernels replace: entry k is the largest
    |Delta^order_{jD} f(x_i)| over the offsets j <= k."""
    table = [0.0]
    for best in offset_maxima(f_base, order):
        table.append(max(table[-1], best))
    return table


def kernel(f_base):
    """A _Moduli whose base samples are f_base."""
    moduli = _Moduli(FunctionHandle(name="samples", evaluator=None), (0.0, 1.0))
    moduli._f_base = np.asarray(f_base, dtype=float)
    return moduli


def assert_same_bits(got, want):
    assert np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


class TestGridKernels:
    """The window range (order 1) and the buffered offset loop (order 2)
    equal the per-offset loop bit for bit at every k."""

    # node_hull_max of the two operator settings of perfbench's bounds-grid
    HULLS = (1.5271657522561723, 1.7716868861038455)

    @staticmethod
    def sampled(evaluator, hi):
        return np.asarray(evaluator(np.linspace(0.0, hi, DOMAIN_STEPS + 1)), dtype=float)

    @pytest.mark.parametrize("hi", HULLS)
    @pytest.mark.parametrize("name", ["sin", "absdev:0.5", "lip:0.5:0.5", "bump:2", "square",
                                      "const1"])
    def test_builtins_at_every_k(self, name, hi):
        f_base = self.sampled(builtin(name).evaluator, hi)
        for order in (1, 2):
            ks = range(DOMAIN_STEPS // order + 1)
            moduli = kernel(f_base)
            assert_same_bits([moduli._grid_aligned(order, k) for k in ks],
                             reference_table(f_base, order))

    @pytest.mark.parametrize("order", [1, 2])
    def test_request_order(self, order):
        # sin(200 x) has per-offset maxima that rise and fall with j
        f_base = self.sampled(lambda x: np.sin(200.0 * x), self.HULLS[0])
        want = reference_table(f_base, order)
        top = DOMAIN_STEPS // order
        for ks in ([0, 1, 7, 300, top], [top, 300, 7, 1, 0], [5, 5, 300, 5, 300, 0, 300],
                   [300, top]):
            moduli = kernel(f_base)
            assert_same_bits([moduli._grid_aligned(order, k) for k in ks],
                             [want[k] for k in ks])

    def test_second_table_grown_in_two_steps(self):
        f_base = self.sampled(lambda x: np.sin(200.0 * x), self.HULLS[1])
        want = reference_table(f_base, 2)
        # the offset j = 301 alone does not reach the maximum over j <= 300
        assert offset_maxima(f_base, 2)[300] < want[300]
        moduli = kernel(f_base)
        moduli._grid_aligned(2, 300)
        assert len(moduli._second) == 301
        moduli._grid_aligned(2, 2048)
        assert_same_bits(moduli._second, want)

    def test_signed_zeros(self):
        for f_base in ([-0.0, 0.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0, -0.0]):
            for order in (1, 2):
                moduli = kernel(f_base)
                want = reference_table(moduli._f_base, order)
                assert_same_bits([moduli._grid_aligned(order, k) for k in range(len(want))],
                                 want)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_random_samples(self, samples, rng):
        f_base = np.asarray(samples, dtype=float)
        # differences of finite samples may overflow to inf in both kernels
        with np.errstate(over="ignore"):
            self.check_random_samples(f_base, rng)

    @staticmethod
    def check_random_samples(f_base, rng):
        for order in (1, 2):
            want = reference_table(f_base, order)
            ks = [rng.randrange(len(want)) for _ in range(6)] + list(range(len(want)))
            moduli = kernel(f_base)
            assert_same_bits([moduli._grid_aligned(order, k) for k in ks],
                             [want[k] for k in ks])


class TestColumns:
    """A column of deltas equals the single-delta routine of
    `oracles.one_delta_modulus` bit for bit, and takes whole columns."""

    @staticmethod
    def deltas(lo, hi):
        # 0, the least subnormal, one grid step, past half the domain and
        # past the domain; unsorted, with repeats
        step = (hi - lo) / DOMAIN_STEPS
        half = float(np.nextafter((hi - lo) / 2.0, np.inf))
        return [0.3, 0.0, 5e-324, step, 0.1, half, 1.5 * (hi - lo), 0.1, step, 0.0, 0.05, 0.3]

    # the last two domains' subnormal steps round up (1.5 units to 2), so
    # base points lie past hi; on the last, hi + delta rounds back to hi for
    # the least deltas, so hi is kept and the points past hi, which come
    # before it in the base grid, are not
    @pytest.mark.parametrize("domain", [(0.0, TestGridKernels.HULLS[0]), (0.3, 2.2),
                                        (0.0, 6144 * 5e-324),
                                        (2.0 ** -1020, 2.0 ** -1020 + 6144 * 5e-324)])
    @pytest.mark.parametrize("name", ["sin", "absdev:0.5", "lip:0.5:0.5", "lip:2:0.5", "bump:2",
                                      "square", "const1", "id"])
    @pytest.mark.parametrize("strip", [False, True], ids=["builtin", "stripped"])
    def test_equal_one_delta_at_a_time(self, name, domain, strip):
        h = stripped(builtin(name)) if strip else builtin(name)
        if name == "square" and not strip:
            # its first modulus is a closed form (TestQuadraticModulus); without
            # its coefficients it keeps its exact omega_2 and takes the grid for omega_1
            h = replace(h, polynomial_coeffs=None)
        deltas = self.deltas(*domain)
        for order in (1, 2):
            want = [one_delta_modulus(h, order, delta, *domain) for delta in deltas]
            assert_same_bits(_Moduli(h, domain).column(order, deltas), want)
            # and one delta at a time through the same instance
            moduli = _Moduli(h, domain)
            assert_same_bits([moduli(order, delta) for delta in deltas], want)

    def test_kinks_across_the_size_guard(self, monkeypatch):
        # 41 kinks, the fewest whose rows can pass the guard (at 40 a delta has
        # at most 1,682 rows of K(3K + 2) = 4,880 entries, under 4096^2 / 2):
        # a delta enumerates up to the break 75/41 and takes the grid from
        # the next one, 76/41, on, as one delta at a time does
        xs = tuple(np.linspace(0.0, 3.0, 42))
        pl = PiecewiseLinear(xs=xs, ys=tuple(np.cos(7.0 * np.array(xs))), end_slope=0.5)
        h = FunctionHandle(name="pl", evaluator=pl, piecewise_linear=pl)
        domain = (0.0, 4.0)
        edge, past = 1.829268292682927, 1.853658536585366
        deltas = [0.01, 1.9, edge, 0.2, 2.5, float(np.nextafter(edge, 2.0)), past, 0.6, 0.2]
        enumerated = [pl_second_modulus(pl, delta, *domain) is not None for delta in deltas]
        assert enumerated == [True, False, True, True, False, True, False, True, True]
        want = [one_delta_modulus(h, 2, delta, *domain) for delta in deltas]
        orders = count_grid_tables(monkeypatch)
        assert_same_bits(_Moduli(h, domain).column(2, deltas), want)
        assert orders == [2] * enumerated.count(False)

    def test_bound_reports_take_three_columns_at_most(self, monkeypatch):
        calls = []
        column = _Moduli.column
        monkeypatch.setattr(_Moduli, "column",
                            lambda self, order, deltas: calls.append(order)
                            or column(self, order, deltas))
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        for name in ("sin", "absdev:0.5", "lip:0.5:0.5", "bump:2", "square"):
            del calls[:]
            bound_reports(builtin(name), np.linspace(0.0, 3.0, 9), params, PQPair(0.9, 0.8))
            assert len(calls) <= 3, name

    @pytest.mark.parametrize("domain", [(0.0, 6144 * 5e-324),
                                        (2.0 ** -1020, 2.0 ** -1020 + 6144 * 5e-324)])
    def test_no_sample_past_hi(self, domain):
        # the subnormal step rounds from 1.5 units up to 2, which put 1,023 base
        # points of [0, 6144 units] past hi; every base point and offset now
        # stays in the domain
        lo, hi = domain
        points = []

        def probe(x):
            points.append(np.array(x, dtype=float))
            return np.zeros_like(points[-1])

        h = FunctionHandle(name="probe", evaluator=probe)
        for order in (1, 2):
            _Moduli(h, domain).column(order, self.deltas(lo, hi))
            one_delta_modulus(h, order, 5e-324, lo, hi)
        sampled = np.concatenate(points)
        assert sampled.size > 4 * (DOMAIN_STEPS + 1)
        assert lo <= sampled.min() and sampled.max() <= hi

    def test_offsets_read_no_point_past_hi(self):
        # the step rounds from 1.5 units to 2, so base points past hi come
        # before hi in the base grid, and hi + 2 units rounds back to hi: at
        # delta = 1 unit the offsets must take hi, not the first point past
        # it, where this f starts to rise
        lo = 2.0 ** -1020
        hi = lo + 6144 * 5e-324
        h = FunctionHandle(name="rise", evaluator=lambda x: np.where(
            np.asarray(x) > hi, (np.asarray(x) - hi) * 2.0 ** 1000, 0.0))
        assert _Moduli(h, (lo, hi)).column(2, [5e-324]) == [0.0]
        assert one_delta_modulus(h, 2, 5e-324, lo, hi) == 0.0

    def test_a_failed_base_sample_fails_again(self):
        # the base samples are kept only once they pass, so a second call on
        # the same instance samples again and raises the same error
        h = FunctionHandle(name="holey", evaluator=lambda x: np.where(np.asarray(x) > 0.5,
                                                                      np.nan, 1.0))
        moduli = _Moduli(h, (0.0, 1.0))
        for order in (1, 2, 1):
            with pytest.raises(DomainError, match=r"^holey is not finite on \[0.0, 1.0\]$"):
                moduli(order, 0.1)


class TestFirstError:
    """A column that raises is asked again point by point, so a call raises
    the error that the (x, column) order meets first."""

    @staticmethod
    def delta_columns(params, pq, xs):
        central = [max(float(m["c2"]), 0.0) for m in _direct_moments(params, pq, xs)]
        with np.errstate(over="ignore", invalid="ignore"):
            peetre, bias = peetre_bound_args(params, pq, np.asarray(xs))
        return (np.sqrt(central).tolist(), np.sqrt(np.maximum(peetre, 0.0)).tolist(),
                np.abs(bias).tolist())

    def test_grid_samples_fail_before_a_non_finite_bias(self):
        # alpha b_n [2] is past the float range in the printed first moment,
        # so |bias| (and peetre_arg) is inf at every x; the first modulus at
        # x = 0 meets the hole of f in its base samples first
        params = OperatorParams(n=5, alpha=1e150, beta=1.3e154, b_n=1.5e158)
        pq, xs = PQPair(1.0, 0.9), [0.0, 1e150, 2e150]
        hull = node_hull_max(params, pq)

        def holey(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.5 * hull) & (x < 0.6 * hull), np.nan, np.sqrt(x))

        # no structure keeps omega_1 on the grid; the operator reads f only on
        # its nodes, all within 1e5 of the hull's end (1.15e154), past the hole
        h = FunctionHandle(name="holey", evaluator=holey)
        central, _peetre, bias = self.delta_columns(params, pq, xs)
        assert np.isinf(bias).all() and all(0.0 < d < np.inf for d in central)
        # the order-1 column alone meets the non-finite delta first
        with pytest.raises(DomainError, match="delta must be finite and nonnegative, got inf"):
            _Moduli(h, (0.0, hull)).column(1, central + bias)
        with pytest.raises(DomainError) as error:
            bound_reports(h, xs, params, pq)
        assert str(error.value) == "holey is not finite on [0.0, 1.153846153846154e+154]"

    def test_non_finite_peetre_arg_before_a_modulus_overflow(self):
        # alpha^2 b_n^2 is past the float range in the printed peetre_arg, so
        # it is inf at every x; at x = b_n the nodes sit on x (central2 = 0),
        # so omega_2's delta is the first error; the order-1 column would
        # first meet the jump of f, whose differences overflow, at x = 0
        params = OperatorParams(n=5, alpha=1e150, beta=1e150, b_n=1e10)
        pq, xs = PQPair(1.0, 0.5), [1e10, 0.0]
        hull = node_hull_max(params, pq)
        jump = 2048.5 * hull / DOMAIN_STEPS  # between two base points
        # the operator reads the coefficients, about 1 on the nodes near 1e10;
        # their cubic term keeps omega_1 on the grid
        h = FunctionHandle(name="jump", polynomial_coeffs=(1.0, 0.0, 0.0, 1e-300),
                           evaluator=lambda x: np.where(np.asarray(x) < jump, -1e308, 1e308))
        central, peetre, bias = self.delta_columns(params, pq, xs)
        assert central[0] == 0.0 and np.isinf(peetre).all() and np.isfinite(bias).all()
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="modulus of jump overflows at delta"):
                _Moduli(h, (0.0, hull)).column(1, central + bias)
            with pytest.raises(DomainError) as error:
                bound_reports(h, xs, params, pq)
        assert str(error.value) == "delta must be finite and nonnegative, got inf"
        # under numpy's default warnings none is shown: the point order meets no overflow
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError) as error:
                bound_reports(h, xs, params, pq)
        assert str(error.value) == "delta must be finite and nonnegative, got inf"
        assert caught == []


class TestNonFinite:
    # test ids name the order: omega is "modulus", omega_2 "second_modulus"
    ORDER_IDS = ["modulus", "second_modulus"]

    @staticmethod
    def handle(evaluator, **metadata):
        return FunctionHandle(name="holey", evaluator=evaluator, **metadata)

    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_nan_base_samples(self, order):
        # a stripped square that is nan on (0.5, 1]
        h = self.handle(lambda x: np.where(np.asarray(x) > 0.5, np.nan, np.square(x)))
        with pytest.raises(DomainError, match="holey"):
            omega(order, h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_nan_shifted_samples(self, order):
        # finite at the base points k / DOMAIN_STEPS, nan between them
        def between(x):
            x = np.asarray(x, dtype=float)
            on_grid = np.abs(x * DOMAIN_STEPS - np.round(x * DOMAIN_STEPS)) < 1e-6
            return np.where(on_grid, x, np.nan)

        h = self.handle(between)
        with pytest.raises(DomainError, match="holey"):
            omega(order, h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_overflowing_differences(self, order):
        h = self.handle(lambda x: np.where(np.asarray(x) < 0.5, 1.5e308, -1.5e308))
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="holey"):
            omega(order, h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_non_finite_delta(self, order, delta):
        for h in (stripped(builtin("sin")), builtin("absdev:0.5"), builtin("square")):
            with pytest.raises(DomainError, match="delta"):
                omega(order, h, delta, (0.0, 1.0))

    def test_bound_reports(self):
        # the polynomial coefficients keep the operator off the evaluator,
        # and xs avoid the nan piece, so only the grid moduli can see it
        sq = builtin("square")

        def holey(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.5) & (x < 0.6), np.nan, np.square(x))

        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        xs = np.linspace(0.0, 3.0, 9)
        h = self.handle(holey, polynomial_coeffs=sq.polynomial_coeffs)
        with pytest.raises(DomainError, match="holey"):
            bound_reports(h, xs, params, PQPair(0.9, 0.8))
        # the same handle without the hole reports
        assert len(bound_reports(self.handle(np.square, polynomial_coeffs=sq.polynomial_coeffs),
                                 xs, params, PQPair(0.9, 0.8))) == len(xs)


def load_by_path(name, monkeypatch):
    """A perfbench module, loaded from its file without touching sys.path;
    registered in sys.modules for the test only (its dataclasses look it
    up there)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bounds_grid_passes_the_benchmark_check(tmp_path, monkeypatch):
    # checks.py sets a 30-digit mpmath context when imported; keep it local
    with mp.workdps(30):
        checks, workloads = (load_by_path(name, monkeypatch) for name in ("checks", "workloads"))
        monkeypatch.chdir(tmp_path)
        for op in workloads.build("bounds-grid", 3):
            assert cli_main(list(op.argv)) == 0, op.id
            if op.kind == "bounds":
                assert checks.check_bounds(op, tmp_path) is None, op.id
