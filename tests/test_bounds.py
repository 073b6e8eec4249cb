import numpy as np
import pytest

from pqkanto import (
    DomainError,
    OperatorParams,
    PQPair,
    bound_report,
    bound_reports,
    builtin,
    modulus,
    node_hull_max,
    polynomial_handle,
    second_modulus,
)
from pqkanto.bounds import BOUND_CSV_FIELDS, DOMAIN_STEPS
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
        rep = bound_report(builtin("const1"), 0.4, OperatorParams(n=4), PQPair(0.9, 0.8))
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
            rep = bound_report(builtin("absdev:0.9"), x, params, pq)
            assert rep.holds_modulus is True
            assert rep.holds_lipschitz is True
            assert rep.modulus_bound == pytest.approx(2 * rep.modulus_at_sqrt_moment)

    def test_lip_bound_formula(self):
        params = OperatorParams(n=5, b_n=1.0)
        pq = PQPair(0.9, 0.8)
        rep = bound_report(builtin("lip:0.5:0.5"), 0.3, params, pq)
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
        rep = bound_report(h, 1.0, params, pq)
        assert rep.bias < 0
        assert rep.modulus_at_abs_bias == pytest.approx(abs(rep.bias))

    def test_grid_moduli_set_no_flags(self):
        h = stripped(builtin("sin"))
        rep = bound_report(h, 0.5, OperatorParams(n=4), PQPair(0.9, 0.8))
        assert rep.holds_modulus is None
        assert rep.holds_lipschitz is None
        assert rep.lipschitz_bound is None

    def test_requires_normalized_mode(self):
        with pytest.raises(DomainError):
            bound_report(builtin("id"), 0.2, OperatorParams(n=3, mode="literal"),
                         PQPair(0.9, 0.8))

    def test_moduli_measured_over_hull(self):
        # square has no exact modulus; its grid modulus grows with the
        # domain, so the report must use the hull end, not b_n
        params = OperatorParams(n=2, m=0, b_n=1.0)
        pq = PQPair(0.8, 0.5)
        hull_hi = node_hull_max(params, pq)
        assert hull_hi > 1.0
        rep = bound_report(builtin("square"), 0.5, params, pq)
        direct = modulus(builtin("square"), np.sqrt(rep.second_central_moment),
                         (0.0, hull_hi))
        assert rep.modulus_at_sqrt_moment == pytest.approx(direct, rel=1e-12)

    def test_csv_fields_cover_report(self):
        rep = bound_report(builtin("absdev:1"), 0.5, OperatorParams(n=3),
                           PQPair(0.9, 0.8))
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
            assert rows == [bound_report(h, x, params, pq) for x in xs]
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
            # once for f; the moments add their own polynomial integrals
            assert calls.count(name) == 1
            calls.clear()
