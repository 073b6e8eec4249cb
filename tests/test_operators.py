from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqkanto import (
    DomainError,
    OperatorParams,
    PQPair,
    RegimeError,
    apply_classical_reference,
    apply_extended,
    apply_operator,
    apply_unit_operator,
    basis_weights,
    builtin,
    kantorovich_node,
    node_hull_max,
    polynomial_handle,
)
from pqkanto.functions import FunctionHandle
from pqkanto.operators import operator_profile

PQ98 = PQPair(0.9, 0.8)
P11 = PQPair(1, 1)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            OperatorParams(n=0)
        with pytest.raises(DomainError):
            OperatorParams(n=2, m=-1)
        with pytest.raises(DomainError):
            OperatorParams(n=2, alpha=2.0, beta=1.0)
        with pytest.raises(DomainError):
            OperatorParams(n=2, b_n=0.0)
        with pytest.raises(DomainError):
            OperatorParams(n=2, mode="weird")

    def test_degree(self):
        assert OperatorParams(n=3, m=4).degree == 7


class TestBasisWeights:
    def test_normalized_example(self):
        w = basis_weights(OperatorParams(n=2), PQ98, 0.5)
        assert np.allclose(w.weights, [5 / 18, 17 / 36, 0.25], atol=1e-12)
        assert w.total() == pytest.approx(1.0, abs=1e-14)

    def test_literal_example_sum(self):
        w = basis_weights(OperatorParams(n=2, mode="literal"), PQ98, 0.5)
        assert w.total() == pytest.approx(0.925, abs=1e-13)
        assert np.allclose(w.weights, [0.25, 0.425, 0.25], atol=1e-13)

    def test_x_zero_concentrates(self):
        w = basis_weights(OperatorParams(n=5, m=2), PQ98, 0.0)
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(w.weights, want, atol=0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            basis_weights(OperatorParams(n=2, b_n=2.0), PQ98, 2.5)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 34), m=st.integers(0, 6),
        p=st.floats(0.5, 1.0), ratio=st.floats(0.05, 1.0),
        x_norm=st.floats(0.0, 1.0),
    )
    @example(n=1, m=3, p=1.0, ratio=0.99999, x_norm=0.5)  # q/p -> 1 cancellation
    def test_partition_of_unity_and_nonnegativity(self, n, m, p, ratio, x_norm):
        pq = PQPair(p, max(p * ratio, 1e-6))
        params = OperatorParams(n=n, m=m, b_n=2.0)
        w = basis_weights(params, pq, x_norm * 2.0)
        assert np.all(np.asarray(w.weights) >= 0.0)
        assert abs(w.total() - 1.0) <= 1e-12
        lit = basis_weights(
            OperatorParams(n=n, m=m, b_n=2.0, mode="literal"), pq, x_norm * 2.0
        )
        assert np.all(np.asarray(lit.weights) >= 0.0)

    @pytest.mark.parametrize("ratio", [1 - 1e-5, 1 - 1e-6, 1 - 1e-7])
    def test_partition_of_unity_as_ratio_tends_to_one(self, ratio):
        pq = PQPair(1.0, ratio)
        for degree in (1, 4, 17, 40):
            params = OperatorParams(n=degree, b_n=2.0)
            for x in np.linspace(0.0, 2.0, 21):
                w = basis_weights(params, pq, x)
                assert np.all(np.asarray(w.weights) >= 0.0)
                assert abs(w.total() - 1.0) <= 1e-12

    def test_exact_path_matches_float_path(self):
        pq_e = PQPair(F(9, 10), F(4, 5))
        for mode in ("normalized", "literal"):
            params_e = OperatorParams(n=3, m=1, alpha=F(1), beta=F(2), b_n=F(2),
                                      mode=mode)
            exact = basis_weights(params_e, pq_e, F(3, 4)).weights
            assert isinstance(exact[0], F)
            params_f = OperatorParams(n=3, m=1, alpha=1.0, beta=2.0, b_n=2.0,
                                      mode=mode)
            floats = basis_weights(params_f, PQ98, 0.75).weights
            assert np.allclose(floats, [float(v) for v in exact], rtol=1e-13)

    def test_exact_normalized_sums_to_one(self):
        pq_e = PQPair(F(3, 4), F(1, 2))
        params = OperatorParams(n=4, m=2, alpha=F(0), beta=F(0), b_n=F(1))
        w = basis_weights(params, pq_e, F(2, 7))
        assert w.total() == 1


class TestNodes:
    def test_zero_at_origin(self):
        assert kantorovich_node(0, 0.0, OperatorParams(n=4), PQ98) == 0.0

    def test_classical_form(self):
        params = OperatorParams(n=6, m=2)
        for k in range(9):
            got = kantorovich_node(k, 0.37, params, P11)
            assert got == pytest.approx((k + 0.37) / 7, rel=1e-14)

    def test_unit_endpoint_example(self):
        got = kantorovich_node(1, 1.0, OperatorParams(n=1), PQ98)
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_affine_in_t(self):
        params = OperatorParams(n=5, m=1, alpha=1.0, beta=2.0, b_n=3.0)
        v0 = kantorovich_node(3, 0.0, params, PQ98)
        v1 = kantorovich_node(3, 1.0, params, PQ98)
        vh = kantorovich_node(3, 0.5, params, PQ98)
        assert vh == pytest.approx(0.5 * (v0 + v1), rel=1e-14)

    def test_node_index_domain(self):
        with pytest.raises(DomainError):
            kantorovich_node(7, 0.5, OperatorParams(n=5), PQ98)

    def test_series_arguments_stay_in_hull(self):
        params = OperatorParams(n=5, m=2, alpha=1.5, beta=2.0, b_n=3.0)
        pq = PQPair(0.92, 0.8)
        seen = []

        def tracking(t):
            arr = np.asarray(t, dtype=float)
            seen.append(float(arr.max()))
            return np.ones_like(arr)

        handle = FunctionHandle(name="track", evaluator=tracking)
        apply_operator(handle, 1.7, params, pq)
        assert max(seen) <= node_hull_max(params, pq) + 1e-12


class TestApplyOperator:
    def test_reproduces_constants_everywhere(self):
        rng = np.random.default_rng(7)
        one = builtin("const1")
        for _ in range(25):
            p = rng.uniform(0.6, 1.0)
            pq = PQPair(p, p * rng.uniform(0.5, 0.999))
            params = OperatorParams(
                n=int(rng.integers(1, 15)), m=int(rng.integers(0, 4)),
                alpha=1.0, beta=2.0, b_n=rng.uniform(0.5, 5.0),
            )
            x = rng.uniform(0, float(params.b_n))
            assert apply_operator(one, x, params, pq) == pytest.approx(1.0, abs=1e-12)

    def test_constant_via_series_path_matches(self):
        # same function without polynomial metadata exercises the series
        plain_one = FunctionHandle(name="one", evaluator=lambda t: np.ones_like(t))
        params = OperatorParams(n=4, m=1)
        got = apply_operator(plain_one, 0.6, params, PQPair(0.9, 0.7))
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_identity_classical_examples(self):
        ident = builtin("id")
        params = OperatorParams(n=1)
        assert apply_operator(ident, 0.0, params, P11) == pytest.approx(0.25)
        assert apply_operator(ident, 1.0, params, P11) == pytest.approx(0.75)

    def test_unit_operator_examples(self):
        ident = builtin("id")
        assert apply_unit_operator(ident, 0.0, 2, 0, P11) == pytest.approx(1 / 6)
        params = OperatorParams(n=3, m=1)
        got_k = apply_operator(ident, 0.4, params, P11)
        got_t = apply_unit_operator(ident, 0.4, 3, 1, P11)
        assert got_t == pytest.approx(got_k, rel=1e-14)

    def test_linearity(self):
        f = polynomial_handle("f", (0.3, -1.0, 2.0))
        g = polynomial_handle("g", (1.0, 0.5))
        combo = polynomial_handle("combo", (0.3 * 2 + 1.0 * -3, -2.0 + 0.5 * -3, 4.0))
        params = OperatorParams(n=6, m=1, alpha=0.5, beta=1.0, b_n=2.0)
        pq = PQPair(0.95, 0.85)
        x = 1.2
        lhs = apply_operator(combo, x, params, pq)
        rhs = 2 * apply_operator(f, x, params, pq) - 3 * apply_operator(g, x, params, pq)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotonicity(self):
        # g - f = (t - 1)^2 >= 0 on the node hull
        f = polynomial_handle("f", (0.0, 1.0))
        g = polynomial_handle("g", (1.0, -1.0, 1.0))  # f + (t-1)^2
        params = OperatorParams(n=5, b_n=2.0)
        pq = PQPair(0.9, 0.75)
        for x in np.linspace(0, 2, 9):
            kf = apply_operator(f, float(x), params, pq)
            kg_plus_f = apply_operator(g, float(x), params, pq) + kf
            assert kf <= kg_plus_f + 1e-12

    def test_classical_limit_matches_reference(self):
        rng = np.random.default_rng(13)
        handles = [builtin("const1"), builtin("id"), builtin("square"),
                   polynomial_handle("cubic", (0.5, 0.0, -1.0, 2.0)), builtin("sin")]
        for _ in range(10):
            n = int(rng.integers(1, 25))
            m = int(rng.integers(0, 4))
            alpha = float(rng.integers(0, 3))
            beta = alpha + float(rng.integers(0, 2))
            b_n = float(rng.choice([1.0, 5.0]))
            params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
            x = rng.uniform(0, b_n)
            for h in handles:
                got = apply_operator(h, x, params, P11)
                want = apply_classical_reference(h, x, params)
                assert abs(got - want) <= 1e-10, (h.name, n, m, alpha, beta, b_n, x)

    def test_lip_classical_exact_across_kink(self):
        # a fixed Gauss-Legendre rule misses the kink of |t - 1|^0.5 by 1e-5
        n, b_n, x = 200, 5.848035476425731, 1.023406208374503
        got = apply_operator(builtin("lip:1:0.5"), x, OperatorParams(n=n, b_n=b_n), P11)
        with mp.workdps(30):
            s, scale = mp.mpf(x) / b_n, mp.mpf(b_n) / (n + 1)

            def antiderivative(t):
                return mp.sign(t - 1) * abs(t - 1) ** mp.mpf(1.5) / mp.mpf(1.5)

            want = mp.fsum(mp.binomial(n, k) * s ** k * (1 - s) ** (n - k)
                           * (antiderivative((k + 1) * scale) - antiderivative(k * scale))
                           / scale for k in range(n + 1))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_piecewise_exact_matches_series(self):
        # dual route: the closed-form geometric tail sums against the series
        pq = PQPair(0.9, 0.75)
        params = OperatorParams(n=6, m=1, alpha=0.5, beta=1.5, b_n=3.0)
        for name in ("absdev:1.2", "bump:2", "lip:0.8:1"):
            h = builtin(name)
            stripped = FunctionHandle(name="plain", evaluator=h.evaluator)
            for x in (0.0, 0.9, 2.2, 3.0):
                exact = apply_operator(h, x, params, pq)
                series = apply_operator(stripped, x, params, pq, rel_tol=1e-12)
                assert exact == pytest.approx(series, abs=1e-9)

    def test_profile_matches_pointwise(self):
        params = OperatorParams(n=7, m=0, b_n=2.0)
        pq = PQPair(0.95, 0.9)
        xs = np.linspace(0, 2, 11)
        prof = operator_profile(builtin("square"), params, pq, xs)
        for x, v in zip(xs, prof):
            assert v == apply_operator(builtin("square"), float(x), params, pq)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            apply_operator(builtin("id"), 1.5, OperatorParams(n=2), PQ98)

    def test_p_equals_q_below_one_needs_polynomial(self):
        pq = PQPair(0.9, 0.9)
        params = OperatorParams(n=3)
        # polynomial goes through the monomial rule
        assert apply_operator(builtin("square"), 0.5, params, pq) > 0
        with pytest.raises(RegimeError):
            apply_operator(builtin("sin"), 0.5, params, pq)

    def test_literal_mode_shrinks_constants(self):
        one = builtin("const1")
        got = apply_operator(one, 0.5, OperatorParams(n=2, mode="literal"), PQ98)
        assert got == pytest.approx(0.925, abs=1e-13)


class TestApplyExtended:
    def test_branches(self):
        params = OperatorParams(n=3, b_n=2.0)
        sq = builtin("square")
        assert apply_extended(sq, 5.0, params, PQ98) == 25.0
        inside = apply_extended(sq, 2.0, params, PQ98)
        assert inside == pytest.approx(apply_operator(sq, 2.0, params, PQ98))
        with pytest.raises(DomainError):
            apply_extended(sq, -0.1, params, PQ98)

    def test_constants_everywhere(self):
        params = OperatorParams(n=4, b_n=1.5)
        one = builtin("const1")
        for x in (0.0, 1.0, 1.5, 2.0, 7.0):
            assert apply_extended(one, x, params, PQ98) == pytest.approx(1.0, abs=1e-12)


class TestClassicalReference:
    def test_constant(self):
        assert apply_classical_reference(builtin("const1"), 0.4,
                                         OperatorParams(n=4)) == pytest.approx(1.0)

    def test_identity_closed_form(self):
        params = OperatorParams(n=1)
        for x in (0.0, 0.3, 1.0):
            got = apply_classical_reference(builtin("id"), x, params)
            assert got == pytest.approx(0.25 + 0.5 * x, rel=1e-12)

    def test_square_at_origin(self):
        got = apply_classical_reference(builtin("square"), 0.0, OperatorParams(n=1))
        assert got == pytest.approx(1 / 12, rel=1e-12)
