import csv
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
    apply_operator,
    bound_reports,
    builtin,
    node_hull_max,
    polynomial_handle,
)
from pqkanto import bounds
from pqkanto.bounds import BOUND_CSV_FIELDS, _Moduli, _pl_second_modulus
from pqkanto.cli import main as cli_main
from pqkanto.functions import FunctionHandle, PiecewiseLinear
from pqkanto.moments import _direct_moments, peetre_bound_args
from pqkanto.operators import WEIGHT_BLOCK

from oracles import (GRID_STEPS, apply_classical_reference, one_delta_modulus,
                     pl_second_modulus, window_range)

P11 = PQPair(1, 1)


def stripped(handle):
    """Same evaluator, no metadata: no exact modulus of either order."""
    return FunctionHandle(name="plain", evaluator=handle.evaluator)


def omega(order, f, delta, domain):
    """omega_order(f, delta) over domain, from a modulus routine of its own."""
    return _Moduli(f, domain)(order, delta)


class TestModulus:
    def test_linear_slope(self):
        lin = polynomial_handle("3x", (0.0, 3.0))
        assert omega(1, lin, 0.2, (0.0, 2.0)) == pytest.approx(0.6, abs=1e-12)

    def test_constant_is_zero(self):
        # a constant without exact metadata takes the closed form of degree <= 2
        c = polynomial_handle("c", (1.0,))
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
            est = one_delta_modulus(stripped(h), 1, delta, 0.0, 4.0)
            assert est <= h.exact_modulus(delta) + 1e-12

    def test_nondecreasing_and_zero_at_zero(self):
        h = builtin("sin")
        deltas = [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]
        for order in (1, 2):
            vals = [omega(order, h, d, (0.0, 8.0)) for d in deltas]
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
        # a line's omega_2 comes from its piecewise-linear description (its
        # coefficients alone give omega_1 only)
        pl = PiecewiseLinear(xs=(0.0,), ys=(2.0,), end_slope=-3.0)
        lin = FunctionHandle(name="lin", evaluator=pl, piecewise_linear=pl)
        assert omega(2, lin, 0.3, (0.0, 2.0)) == 0.0
        # bump:2 is affine on [0, 1.9]: its kink at 2 lies outside
        assert omega(2, builtin("bump:2"), 0.9, (0.0, 1.9)) == 0.0

    def test_square_exact(self):
        assert omega(2, builtin("square"), 0.1, (0.0, 1.0)) == \
            pytest.approx(0.02, rel=1e-12)

    def test_square_grid_matches_exact(self):
        h = stripped(builtin("square"))
        got = one_delta_modulus(h, 2, 0.1, 0.0, 1.0)
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

    def test_hull_moduli_set_no_flags(self):
        # square's moduli are exact over the hull only, and it has no Lipschitz pair
        rep = bound_reports(builtin("square"), [0.5], OperatorParams(n=4), PQPair(0.9, 0.8))[0]
        assert rep.holds_modulus is None
        assert rep.holds_lipschitz is None
        assert rep.lipschitz_bound is None

    def test_no_structure_is_one_error(self):
        # no exact modulus of either order: one DomainError naming the handle and
        # what it lacks, while the operator still evaluates it at p = q = 1
        h = FunctionHandle(name="plain", evaluator=np.exp)
        params = OperatorParams(n=4)
        with pytest.raises(DomainError) as error:
            bound_reports(h, [0.0, 0.5, 1.0], params, PQPair(0.9, 0.8))
        assert str(error.value).startswith("plain has no exact omega_1 at delta ")
        assert str(error.value).endswith(
            ": bounds needs exact_modulus or a polynomial of degree <= 2")
        with pytest.raises(DomainError, match="^plain has no exact omega_2 at delta 0.1: bounds "
                                              "needs exact_second_modulus or piecewise_linear$"):
            omega(2, h, 0.1, (0.0, 1.0))
        assert apply_operator(h, 0.5, params, P11) == pytest.approx(
            apply_classical_reference(h, 0.5, params), rel=1e-12)

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
    """The oracle's grid estimate stays below the closed forms; the reports'
    moduli, operator values and moments."""

    DOMAIN = (0.0, 4.0)
    STEP = 4.0 / GRID_STEPS

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
            assert one_delta_modulus(h, 1, delta, *self.DOMAIN) <= om1(delta) + 1e-12
            assert one_delta_modulus(h, 2, delta, *self.DOMAIN) <= om2_upper(delta) + 1e-12

    def test_reports_match_pointwise_in_any_order(self):
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        pq = PQPair(0.9, 0.8)
        xs = [float(x) for x in np.linspace(0.0, 3.0, 9)]
        for h in (builtin("sin"), builtin("square"), builtin("lip:0.5:0.5"),
                  builtin("lip:10:0.5"), builtin("absdev:0.5")):
            rows = bound_reports(h, xs, params, pq)
            assert rows == [bound_reports(h, [x], params, pq)[0] for x in xs]
            assert bound_reports(h, xs[::-1], params, pq) == rows[::-1]

    def test_reports_sample_f_once(self):
        # polynomial coefficients keep the operator off the evaluator, and the
        # moduli are closed forms: f is sampled once per x, for the error only
        sq = builtin("square")
        points = []

        def counted(x):
            points.append(np.size(x))
            return sq.evaluator(x)

        h = replace(sq, evaluator=counted)
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        xs = np.linspace(0.0, 3.0, 9)
        bound_reports(h, xs, params, PQPair(0.9, 0.8))
        assert points == [1] * len(xs)

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
    closed form over the domain."""

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
    def test_against_mpmath_and_the_grid(self, coeffs, delta, domain):
        h = polynomial_handle("quad", coeffs)
        got = omega(1, h, delta, domain)
        want = mp_quadratic_modulus(coeffs + (0.0,) * (3 - len(coeffs)), delta, *domain)
        assert abs(got - want) <= 1e-14 * want
        assert one_delta_modulus(h, 1, delta, *domain) <= got + 1e-12

    def test_square_is_h_times_2H_minus_h(self):
        # h (2H - h) at h = min(delta, H) on [0, H], as printed; the flags stay
        # keyed to the global exact modulus, which square lacks
        hi = 1.7716868861038455  # bounds-grid's second hull
        for delta in (0.0, 5e-324, 0.1, 1.0, hi, 3.0):
            h = min(delta, hi)
            assert omega(1, builtin("square"), delta, (0.0, hi)) == h * (2.0 * hi - h)
        assert builtin("square").exact_modulus is None

    def test_degree_three_has_no_exact_modulus(self):
        cube = polynomial_handle("cube", (0.0, 0.0, 1.0, 1.0))
        with pytest.raises(DomainError, match="^cube has no exact omega_1 at delta 0.3: bounds "
                                              "needs exact_modulus or a polynomial of degree"):
            omega(1, cube, 0.3, (0.0, 1.0))


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


def mp_lip_second_modulus(a, g, delta, lo, hi, steps=40, digits=30):
    """Largest |Delta^2_h f(x)|, to `digits` digits, of f = |x - a|^g over 0 < h <= cap =
    min(delta, (hi - lo)/2) and lo <= x <= hi - 2h, found without the
    closed form.  Off the lines where a point x + jh meets a or an end of
    [lo, hi], the gradient of Delta^2 vanishes only where Delta^2 = 0: its
    h-part 2 (f'(x + 2h) - f'(x + h)) is nonzero for g < 1 (f' falls on
    each side of a and changes sign across it), and for g = 1 its x-part
    is +-2 across the kink.  So the max lies on one of those lines (x = lo,
    x = hi - 2h, and x + jh = a when a is in [lo, hi]) or on h = cap; each
    is searched by a dense grid, then golden section around each grid
    maximum."""
    with mp.workdps(digits):
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
            if top > 0 and lo <= c0 <= hi:  # each line starts at x = c0, h = 0
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
        grid = one_delta_modulus(FunctionHandle(name="pl", evaluator=pl), 2, delta, *domain)
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
        assert one_delta_modulus(stripped(builtin("sin")), 2, delta, *domain) <= got + 1e-12

    @pytest.mark.parametrize("a, domain", [(0.5, (0.0, 1.5)), (1.2, (0.0, 1.5))])
    def test_lip_window_edge_and_past_it(self, a, domain):
        h = builtin(f"lip:{a}:0.5")
        edge = min(a - domain[0], domain[1] - a)
        assert omega(2, h, edge, domain) == 2.0 * edge ** 0.5
        for delta in (float(np.nextafter(edge, 2.0)), 0.6, 2.0):
            got = omega(2, h, delta, domain)
            assert got == lip_second_modulus(a, 0.5, delta, *domain)
            assert one_delta_modulus(stripped(h), 2, delta, *domain) <= got + 1e-12

    @pytest.mark.parametrize("a", [0.05, 0.2, 0.5, 1.7, 2.0, 10.0, 1e6])
    @pytest.mark.parametrize("gamma", [1e-3, 0.3, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("delta", [0.2, 0.45, 1.0])
    def test_lip_against_mpmath(self, a, gamma, delta):
        # hull [0.2, 1.7]: the kink below lo, at lo, inside (window 0.3,
        # w_R/2 = 0.6), at hi, and past hi at three distances (u = h/c from
        # 0.375 down to 7.5e-7); delta inside the window, between it and
        # w_R/2, and past half the hull
        lo, hi = 0.2, 1.7
        h = builtin(f"lip:{a}:{gamma}")
        got = omega(2, h, delta, (lo, hi))
        outside = not lo <= a <= hi
        # 50 digits: the kink far past hi cancels about 13 of them
        want = mp_lip_second_modulus(a, gamma, delta, lo, hi, digits=50 if outside else 30)
        if outside and gamma == 1.0:
            assert got == 0.0 and abs(want) <= 1e-40
        else:
            # 1e-25: the 30-digit rounding where the true value is 0 (g = 1, a
            # at an end); outside, the rounding of 2 E(u) - E(2u) grows as 1/(1 - g)
            tol = 1e-13 / (1.0 - gamma) if outside else 1e-13
            assert abs(got - want) <= tol * want + 1e-25
        # the grid's second differences of f's values round by up to 4 eps max|f|,
        # 9e-10 for the kink at 1e6 where f is near 1e6
        rounding = 4.0 * np.finfo(float).eps * max(abs(lo - a), abs(hi - a)) ** gamma
        assert one_delta_modulus(stripped(h), 2, delta, lo, hi) <= got + 1e-12 + rounding
        if gamma == 1.0:
            pl = _pl_second_modulus(h, [delta], lo, hi)[0]
            assert abs(got - pl) <= 1e-15 * pl
            assert pl.hex() == pl_second_modulus(h.piecewise_linear, delta, lo, hi).hex()
        if delta <= min(a - lo, hi - a):
            assert got == 2.0 * delta ** gamma

    def test_bound_reports_build_no_grid_table(self, tmp_path, monkeypatch):
        # both operator settings of perfbench's bounds-grid over its five
        # builtins: sqrt peetre_arg reaches 2.09 on the hull [0, 1.527] in
        # the first.  The package has no grid: a modulus that no exact
        # source answered would stop the operation with exit 2
        workloads = load_by_path("workloads", monkeypatch)
        monkeypatch.chdir(tmp_path)
        for op in workloads.build("bounds-grid", 3):
            assert cli_main(list(op.argv)) == 0, op.id

    @pytest.mark.parametrize("gamma", [1e-3, 0.5, 0.999])
    def test_lip_kink_a_subnormal_distance_below_lo(self, gamma):
        # c = 1e-310 and h = 1: 2 h / c is past the float range, so the value
        # is taken as written, which loses digits only as 1 - g
        lo, hi = 1e-310, 2.0
        h = builtin(f"lip:0:{gamma}")
        got = omega(2, h, 1.0, (lo, hi))
        with mp.workdps(50):
            c = mp.mpf(lo)
            want = 2 * (c + 1) ** gamma - c ** gamma - (c + 2) ** gamma
        assert abs(got - want) <= 1e-13 / (1.0 - gamma) * want
        assert one_delta_modulus(stripped(h), 2, 1.0, lo, hi) <= got + 1e-12

    def test_bounds_with_the_kink_past_the_hull(self, tmp_path):
        # `bounds --fn lip:10:0.5`: its omega_2 column is the closed form at the
        # hull's end, to 50 digits, and never below the grid estimate it
        # replaced (the oracle's grid, which printed that column before)
        params, pq = OperatorParams(n=8), PQPair(0.95, 0.9)
        assert cli_main(["bounds", "--fn", "lip:10:0.5", "--n", "8", "--p", "0.95", "--q", "0.9",
                         "--grid", "9", "--out", str(tmp_path / "b.csv")]) == 0
        with open(tmp_path / "b.csv") as handle:
            rows = list(csv.DictReader(handle))
        hull = node_hull_max(params, pq)
        plain = stripped(builtin("lip:10:0.5"))
        for row in rows:
            delta = float(np.sqrt(max(float(row["peetre_arg"]), 0.0)))
            got = float(row["second_modulus_at_sqrt_peetre"])
            with mp.workdps(50):
                c, h = 10 - mp.mpf(hull), min(mp.mpf(delta), mp.mpf(hull) / 2)
                want = 2 * mp.sqrt(c + h) - mp.sqrt(c) - mp.sqrt(c + 2 * h)
            assert abs(got - want) <= 2e-13 * want, row["x"]
            assert got >= one_delta_modulus(plain, 2, delta, 0.0, hull), row["x"]

    @pytest.mark.parametrize("kinks, enumerated", [(30, True), (100, False)])
    def test_many_kinks_stay_bounded(self, kinks, enumerated):
        # the enumeration costs about K^4 for K kinks inside the hull: at 30
        # it still runs, at 100 it raises at once, naming the kink count
        xs = tuple(np.linspace(0.0, 3.0, kinks + 1))
        pl = PiecewiseLinear(xs=xs, ys=tuple(np.cos(7.0 * np.array(xs))), end_slope=0.5)
        h = FunctionHandle(name="pl", evaluator=pl, piecewise_linear=pl)
        if not enumerated:
            with pytest.raises(DomainError, match=r"^pl has no exact omega_2 at delta 2.0: its "
                                                  r"100 kinks in \[0.0, 3.5\] are too many"):
                omega(2, h, 2.0, (0.0, 3.5))
            return
        got = omega(2, h, 2.0, (0.0, 3.5))
        assert one_delta_modulus(FunctionHandle(name="pl", evaluator=pl), 2, 2.0, 0.0, 3.5) \
            <= got + 1e-12


def reference_table(f_base):
    """The per-offset loop that `oracles.window_range` replaces: entry k is
    the largest |f(x_{i+j}) - f(x_i)| over the offsets j <= k."""
    table = [0.0]
    for j in range(1, f_base.size):
        table.append(max(table[-1], float(np.abs(f_base[j:] - f_base[:-j]).max())))
    return table


def assert_same_bits(got, want):
    assert np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


class TestGridKernels:
    """The oracle's window range, by doubling, equals the per-offset loop bit
    for bit at every width: its grid is the lower estimate that the closed
    forms are held to."""

    # node_hull_max of the two operator settings of perfbench's bounds-grid
    HULLS = (1.5271657522561723, 1.7716868861038455)

    @pytest.mark.parametrize("hi", HULLS)
    @pytest.mark.parametrize("name", ["sin", "absdev:0.5", "lip:0.5:0.5", "bump:2", "square",
                                      "const1"])
    def test_builtins_at_every_k(self, name, hi):
        f_base = np.asarray(builtin(name).evaluator(np.linspace(0.0, hi, GRID_STEPS + 1)),
                            dtype=float)
        assert_same_bits([window_range(f_base, k + 1) for k in range(GRID_STEPS + 1)],
                         reference_table(f_base))

    def test_signed_zeros(self):
        for f_base in ([-0.0, 0.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0, -0.0]):
            f_base = np.asarray(f_base)
            assert_same_bits([window_range(f_base, k + 1) for k in range(f_base.size)],
                             reference_table(f_base))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_random_samples(self, samples, rng):
        f_base = np.asarray(samples, dtype=float)
        # differences of finite samples may overflow to inf in both kernels
        with np.errstate(over="ignore"):
            want = reference_table(f_base)
            ks = [rng.randrange(len(want)) for _ in range(6)] + list(range(len(want)))
            assert_same_bits([window_range(f_base, k + 1) for k in ks], [want[k] for k in ks])


class TestColumns:
    """A column of deltas equals the single-delta routine of
    `oracles.one_delta_modulus` bit for bit where an exact source answers,
    and raises at its first nonzero delta where none does."""

    @staticmethod
    def deltas(lo, hi):
        # 0, the least subnormal, one grid step, past half the domain and
        # past the domain; unsorted, with repeats
        step = (hi - lo) / GRID_STEPS
        half = float(np.nextafter((hi - lo) / 2.0, np.inf))
        return [0.3, 0.0, 5e-324, step, 0.1, half, 1.5 * (hi - lo), 0.1, step, 0.0, 0.05, 0.3]

    # the last two domains are 6144 subnormal units wide
    @pytest.mark.parametrize("domain", [(0.0, TestGridKernels.HULLS[0]), (0.3, 2.2),
                                        (0.0, 6144 * 5e-324),
                                        (2.0 ** -1020, 2.0 ** -1020 + 6144 * 5e-324)])
    @pytest.mark.parametrize("name", ["sin", "absdev:0.5", "lip:0.5:0.5", "lip:2:0.5", "bump:2",
                                      "square", "const1", "id"])
    @pytest.mark.parametrize("strip", [False, True], ids=["builtin", "stripped"])
    def test_equal_one_delta_at_a_time(self, name, domain, strip):
        h = stripped(builtin(name)) if strip else builtin(name)
        if name == "square" and not strip:
            # its first modulus is a closed form (TestQuadraticModulus) that the
            # oracle does not transcribe; without its coefficients it has none
            h = replace(h, polynomial_coeffs=None)
        deltas = self.deltas(*domain)
        for order in (1, 2):
            moduli = _Moduli(h, domain)
            if strip or (name == "square" and order == 1):
                with pytest.raises(DomainError, match=rf"^{h.name} has no exact "
                                                      rf"omega_{order} at delta 0.3: "):
                    moduli.column(order, deltas)
                for delta in deltas:
                    if delta:
                        with pytest.raises(DomainError, match=f"at delta {delta}: bounds needs"):
                            moduli(order, delta)
                    else:
                        assert moduli(order, delta) == 0.0
                continue
            want = [one_delta_modulus(h, order, delta, *domain) for delta in deltas]
            assert_same_bits(moduli.column(order, deltas), want)
            # and one delta at a time through the same instance
            assert_same_bits([moduli(order, delta) for delta in deltas], want)

    def test_kinks_across_the_size_guard(self):
        # 41 kinks, the fewest whose rows can pass PL_MAX_WORK (at 40 a delta has
        # at most 1,682 rows of K(3K + 2) = 4,880 entries, under 2^23): a delta
        # enumerates up to the break 75/41 and raises from the next one, 76/41,
        # on; a column raises at its first such delta
        xs = tuple(np.linspace(0.0, 3.0, 42))
        pl = PiecewiseLinear(xs=xs, ys=tuple(np.cos(7.0 * np.array(xs))), end_slope=0.5)
        h = FunctionHandle(name="pl", evaluator=pl, piecewise_linear=pl)
        domain = (0.0, 4.0)
        edge, past = 1.829268292682927, 1.853658536585366
        deltas = [0.01, 1.9, edge, 0.2, 2.5, float(np.nextafter(edge, 2.0)), past, 0.6, 0.2]
        enumerated = [pl_second_modulus(pl, delta, *domain) is not None for delta in deltas]
        assert enumerated == [True, False, True, True, False, True, False, True, True]
        fits = [delta for delta, fit in zip(deltas, enumerated) if fit]
        assert_same_bits(_Moduli(h, domain).column(2, fits),
                         [one_delta_modulus(h, 2, delta, *domain) for delta in fits])
        with pytest.raises(DomainError, match=r"^pl has no exact omega_2 at delta 1.9: its 41 "
                                              r"kinks in \[0.0, 4.0\] are too many for the "
                                              r"piecewise-linear enumeration$"):
            _Moduli(h, domain).column(2, deltas)
        for delta in (delta for delta, fit in zip(deltas, enumerated) if not fit):
            with pytest.raises(DomainError, match=f"at delta {delta}: its 41 kinks"):
                _Moduli(h, domain)(2, delta)

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
        # the moduli sample f nowhere: a handle without structure raises
        # before any sample.  In the oracle's grid the subnormal step rounds
        # from 1.5 units up to 2, which put 1,023 base points of [0, 6144
        # units] past hi; every base point and offset there stays in the domain
        lo, hi = domain
        points = []

        def probe(x):
            points.append(np.array(x, dtype=float))
            return np.zeros_like(points[-1])

        h = FunctionHandle(name="probe", evaluator=probe)
        for order in (1, 2):
            with pytest.raises(DomainError, match=f"^probe has no exact omega_{order}"):
                _Moduli(h, domain).column(order, self.deltas(lo, hi))
        assert points == []
        for order in (1, 2):
            one_delta_modulus(h, order, 5e-324, lo, hi)
        sampled = np.concatenate(points)
        assert sampled.size > 4 * (GRID_STEPS + 1)
        assert lo <= sampled.min() and sampled.max() <= hi

    def test_offsets_read_no_point_past_hi(self):
        # in the oracle's grid the step rounds from 1.5 units to 2, so base
        # points past hi come before hi, and hi + 2 units rounds back to hi: at
        # delta = 1 unit the offsets must take hi, not the first point past
        # it, where this f starts to rise; the package has no estimate for it
        lo = 2.0 ** -1020
        hi = lo + 6144 * 5e-324
        h = FunctionHandle(name="rise", evaluator=lambda x: np.where(
            np.asarray(x) > hi, (np.asarray(x) - hi) * 2.0 ** 1000, 0.0))
        with pytest.raises(DomainError, match="^rise has no exact omega_2"):
            _Moduli(h, (lo, hi)).column(2, [5e-324])
        assert one_delta_modulus(h, 2, 5e-324, lo, hi) == 0.0


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

    def test_missing_source_fails_before_a_non_finite_bias(self):
        # alpha b_n [2] is past the float range in the printed first moment,
        # so |bias| (and peetre_arg) is inf at every x; the first modulus at
        # x = 0, which no exact source answers, comes first
        params = OperatorParams(n=5, alpha=1e150, beta=1.3e154, b_n=1.5e158)
        pq, xs = PQPair(1.0, 0.9), [0.0, 1e150, 2e150]
        hull = node_hull_max(params, pq)
        h = FunctionHandle(name="root", evaluator=np.sqrt)
        central, _peetre, bias = self.delta_columns(params, pq, xs)
        assert np.isinf(bias).all() and all(0.0 < d < np.inf for d in central)
        # the order-1 column alone meets the non-finite delta first
        with pytest.raises(DomainError, match="delta must be finite and nonnegative, got inf"):
            _Moduli(h, (0.0, hull)).column(1, central + bias)
        with pytest.raises(DomainError) as error:
            bound_reports(h, xs, params, pq)
        assert str(error.value) == (f"root has no exact omega_1 at delta {central[0]}: "
                                    "bounds needs exact_modulus or a polynomial of degree <= 2")

    def test_non_finite_peetre_arg_before_a_modulus_overflow(self):
        # alpha^2 b_n^2 is past the float range in the printed peetre_arg, so
        # it is inf at every x; at x = b_n the nodes sit on x (central2 = 0),
        # so omega_2's delta is the first error; the order-1 column would
        # first meet the overflow of f's exact modulus, at x = 0
        params = OperatorParams(n=5, alpha=1e150, beta=1e150, b_n=1e10)
        pq, xs = PQPair(1.0, 0.5), [1e10, 0.0]
        hull = node_hull_max(params, pq)
        # the operator reads the coefficients, about 1 on the nodes near 1e10
        h = FunctionHandle(name="steep", polynomial_coeffs=(1.0, 0.0, 0.0, 1e-300),
                           evaluator=lambda x: 1.0 + 1e-300 * np.asarray(x) ** 3,
                           exact_modulus=lambda d: 2.0 ** d - 1.0)
        central, peetre, bias = self.delta_columns(params, pq, xs)
        assert central[0] == 0.0 and np.isinf(peetre).all() and np.isfinite(bias).all()
        with pytest.raises(OverflowError):
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
        # square's metadata on an evaluator that is nan on (0.5, 1]: the
        # moduli never sample f, so they are square's
        sq = builtin("square")
        h = replace(sq, evaluator=lambda x: np.where(np.asarray(x) > 0.5, np.nan, np.square(x)))
        assert omega(order, h, 0.3, (0.0, 1.0)) == omega(order, sq, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_nan_shifted_samples(self, order):
        # finite at the grid's base points k / GRID_STEPS, nan between them, and
        # no structure: the one error names the handle, not its samples
        def between(x):
            x = np.asarray(x, dtype=float)
            on_grid = np.abs(x * GRID_STEPS - np.round(x * GRID_STEPS)) < 1e-6
            return np.where(on_grid, x, np.nan)

        h = self.handle(between)
        with pytest.raises(DomainError, match=f"^holey has no exact omega_{order} at delta 0.3"):
            omega(order, h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_overflowing_differences(self, order):
        # square's closed forms past the float range: h (2t + h) and 2 h^2
        with pytest.raises(DomainError, match="^modulus of square overflows at delta 1e[+]200$"):
            omega(order, builtin("square"), 1e200, (0.0, 1e300))

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    @pytest.mark.parametrize("order", [1, 2], ids=ORDER_IDS)
    def test_non_finite_delta(self, order, delta):
        for h in (stripped(builtin("sin")), builtin("absdev:0.5"), builtin("square")):
            with pytest.raises(DomainError, match="delta"):
                omega(order, h, delta, (0.0, 1.0))

    def test_bound_reports(self):
        # the polynomial coefficients keep the operator off the evaluator,
        # and xs avoid the nan piece; the moduli never sample f: without an
        # exact omega_2 the one error names the handle, and with square's
        # the reports come out
        sq = builtin("square")

        def holey(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.5) & (x < 0.6), np.nan, np.square(x))

        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        xs = np.linspace(0.0, 3.0, 9)
        h = self.handle(holey, polynomial_coeffs=sq.polynomial_coeffs)
        with pytest.raises(DomainError, match="^holey has no exact omega_2 at delta"):
            bound_reports(h, xs, params, PQPair(0.9, 0.8))
        h = replace(h, exact_second_modulus=sq.exact_second_modulus)
        assert len(bound_reports(h, xs, params, PQPair(0.9, 0.8))) == len(xs)


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
