import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqkanto import (
    DomainError,
    OperatorParams,
    PQPair,
    bound_reports,
    builtin,
    modulus,
    node_hull_max,
    polynomial_handle,
    second_modulus,
)
from pqkanto.bounds import BOUND_CSV_FIELDS, DOMAIN_STEPS, _Moduli
from pqkanto.functions import FunctionHandle

P11 = PQPair(1, 1)


def stripped(handle):
    """Same evaluator, no metadata: forces the grid estimators."""
    return FunctionHandle(name="plain", evaluator=handle.evaluator)


class TestModulus:
    def test_linear_slope(self):
        lin = polynomial_handle("3x", (0.0, 3.0))
        assert modulus(lin, 0.2, (0.0, 2.0)) == pytest.approx(0.6, abs=1e-12)

    def test_constant_is_zero(self):
        c = stripped(builtin("const1"))
        assert modulus(c, 0.5, (0.0, 1.0)) == 0.0

    def test_square_example(self):
        # true modulus on [0,1] with delta=0.1 is 2*0.9*0.1 + 0.01 = 0.19
        got = modulus(builtin("square"), 0.1, (0.0, 1.0))
        assert got <= 0.19 + 1e-12
        assert got == pytest.approx(0.19, abs=2e-3)

    def test_exact_metadata_shortcut(self):
        h = builtin("absdev:5")
        assert modulus(h, 0.37, (0.0, 100.0)) == 0.37

    def test_grid_estimate_below_exact(self):
        h = builtin("absdev:1")
        for delta in (0.1, 0.5, 1.3):
            est = modulus(stripped(h), delta, (0.0, 4.0))
            assert est <= h.exact_modulus(delta) + 1e-12

    def test_nondecreasing_and_zero_at_zero(self):
        h = stripped(builtin("sin"))
        deltas = [0.0, 0.1, 0.5, 1.0, 2.0]
        vals = [modulus(h, d, (0.0, 8.0)) for d in deltas]
        assert vals[0] == 0.0
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_delta(self):
        with pytest.raises(DomainError):
            modulus(builtin("id"), -0.1, (0.0, 1.0))

    def test_rejects_empty_domain(self):
        with pytest.raises(DomainError):
            modulus(stripped(builtin("id")), 0.1, (1.0, 1.0))


class TestSecondModulus:
    def test_linear_vanishes(self):
        lin = polynomial_handle("lin", (2.0, -3.0))
        assert second_modulus(lin, 0.3, (0.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_square_exact(self):
        assert second_modulus(builtin("square"), 0.1, (0.0, 1.0)) == \
            pytest.approx(0.02, rel=1e-12)

    def test_square_grid_matches_exact(self):
        h = stripped(builtin("square"))
        got = second_modulus(h, 0.1, (0.0, 1.0))
        assert got == pytest.approx(0.02, abs=1e-4)
        assert got <= 0.02 + 1e-12

    def test_constant_vanishes(self):
        assert second_modulus(builtin("const1"), 1.0, (0.0, 2.0)) == 0.0


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
        # square has no exact modulus; its grid modulus grows with the
        # domain, so the report must use the hull end, not b_n
        params = OperatorParams(n=2, m=0, b_n=1.0)
        pq = PQPair(0.8, 0.5)
        hull_hi = node_hull_max(params, pq)
        assert hull_hi > 1.0
        rep = bound_reports(builtin("square"), [0.5], params, pq)[0]
        direct = modulus(builtin("square"), np.sqrt(rep.second_central_moment),
                         (0.0, hull_hi))
        assert rep.modulus_at_sqrt_moment == pytest.approx(direct, rel=1e-12)

    def test_csv_fields_cover_report(self):
        rep = bound_reports(builtin("absdev:1"), [0.5], OperatorParams(n=3),
                            PQPair(0.9, 0.8))[0]
        payload = rep.to_json_dict()
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
            assert modulus(h, delta, self.DOMAIN) <= om1(delta) + 1e-12
            assert second_modulus(h, delta, self.DOMAIN) <= om2_upper(delta) + 1e-12

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
        # without exact moduli both orders go through the grid
        sq = builtin("square")
        points = []

        def counted(x):
            points.append(np.size(x))
            return sq.evaluator(x)

        h = FunctionHandle(name="sq", evaluator=counted,
                           polynomial_coeffs=sq.polynomial_coeffs)
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
        from pqkanto import bounds, moments, operators

        calls = []

        def counted(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, **k: calls.append(name) or original(*a, **k))

        for module, name in ((operators, "operator_profile"), (operators, "_node_affine"),
                             (moments, "_node_affine")):
            counted(module, name)
        # bounds holds its own binding of operator_profile
        monkeypatch.setattr(bounds, "operator_profile", operators.operator_profile)
        params = OperatorParams(n=50, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        xs = [float(x) for x in np.linspace(0.0, 3.0, points)]
        bound_reports(builtin("sin"), xs, params, PQPair(0.9, 0.8))
        assert calls.count("operator_profile") == 1
        assert calls.count("_node_affine") <= 2


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


class TestNonFinite:
    @staticmethod
    def handle(evaluator, **metadata):
        return FunctionHandle(name="holey", evaluator=evaluator, **metadata)

    @pytest.mark.parametrize("estimate", [modulus, second_modulus])
    def test_nan_base_samples(self, estimate):
        # a stripped square that is nan on (0.5, 1]
        h = self.handle(lambda x: np.where(np.asarray(x) > 0.5, np.nan, np.square(x)))
        with pytest.raises(DomainError, match="holey"):
            estimate(h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("estimate", [modulus, second_modulus])
    def test_nan_shifted_samples(self, estimate):
        # finite at the base points k / DOMAIN_STEPS, nan between them
        def between(x):
            x = np.asarray(x, dtype=float)
            on_grid = np.abs(x * DOMAIN_STEPS - np.round(x * DOMAIN_STEPS)) < 1e-6
            return np.where(on_grid, x, np.nan)

        h = self.handle(between)
        with pytest.raises(DomainError, match="holey"):
            estimate(h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("estimate", [modulus, second_modulus])
    def test_overflowing_differences(self, estimate):
        h = self.handle(lambda x: np.where(np.asarray(x) < 0.5, 1.5e308, -1.5e308))
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="holey"):
            estimate(h, 0.3, (0.0, 1.0))

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    @pytest.mark.parametrize("estimate", [modulus, second_modulus])
    def test_non_finite_delta(self, estimate, delta):
        for h in (stripped(builtin("sin")), builtin("absdev:0.5"), builtin("square")):
            with pytest.raises(DomainError, match="delta"):
                estimate(h, delta, (0.0, 1.0))

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
