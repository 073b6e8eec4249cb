import decimal
import math
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
    apply_extended,
    apply_operator,
    basis_weights,
    builtin,
    node_hull_max,
    polynomial_handle,
)
from pqkanto import operators
from pqkanto.functions import FunctionHandle, PiecewiseLinear
from pqkanto.operators import (
    _euler_maclaurin,
    _inner_integrals,
    _node_affine,
    _series_integrals,
    _weights_exact,
    operator_profile,
)
from pqkanto.pq_calculus import TERM_CAP, predicted_terms, truncated_series

from oracles import apply_classical_reference, kantorovich_node, pq_binomial

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

    def test_rationals_stored_as_fractions(self):
        params = OperatorParams(n=2, m=1, alpha=0, beta=1, b_n=3)
        assert [type(v) for v in (params.alpha, params.beta, params.b_n)] == [F] * 3
        assert type(params.n) is int and type(params.m) is int
        assert type(OperatorParams(n=2, alpha=0.5, beta=1.0).alpha) is float


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

    def test_overflow_raises(self):
        # the float r-binomial products overflow past degree ~1030 as q/p -> 1
        params = OperatorParams(n=1100)
        pq = PQPair(1 - 1 / 1101 ** 2, 1 - 2 / 1101 ** 2)
        with np.errstate(over="raise", invalid="raise"):  # not a numpy warning
            with pytest.raises(DomainError, match="basis weights .* overflow"):
                basis_weights(params, pq, 0.5)

    def test_exact_normalized_sums_to_one(self):
        pq_e = PQPair(F(3, 4), F(1, 2))
        params = OperatorParams(n=4, m=2, alpha=F(0), beta=F(0), b_n=F(1))
        w = basis_weights(params, pq_e, F(2, 7))
        assert w.total() == 1

    @staticmethod
    def literal_reference(degree, pq, s, mode):
        # the literal product definition with per-k (p,q)-binomials
        p, q = F(pq.p), F(pq.q)
        out = []
        for k in range(degree + 1):
            prod = F(1)
            for j in range(degree - k):
                prod *= p ** j - q ** j * s
            w = pq_binomial(degree, k, PQPair(p, q)) * s ** k * prod
            if mode == "normalized":
                w *= p ** ((k * (k - 1) - degree * (degree - 1)) // 2)
            out.append(w)
        return out

    @pytest.mark.parametrize("mode", ["normalized", "literal"])
    def test_exact_equals_literal_reference(self, mode):
        for pq in (PQPair(F(9, 10), F(4, 5)), PQPair(F(1), F(3, 4)),
                   PQPair(F(1, 2), F(1, 2)), PQPair(F(1), F(1))):
            for degree in range(1, 13):
                for s in (F(0), F(2, 7), F(5, 6), F(1)):
                    got = _weights_exact(degree, pq, s, mode)
                    assert all(type(v) is int for v in got.nums) and type(got.den) is int
                    assert [F(v, got.den) for v in got.nums] == \
                        self.literal_reference(degree, pq, s, mode)

    def test_exact_with_integer_pq_stays_exact(self):
        # p = q = 1 given as ints still gives the exact binomial weights
        params = OperatorParams(n=5, m=2, alpha=F(1), beta=F(2), b_n=F(3))
        got = basis_weights(params, PQPair(1, 1), F(1)).weights
        assert got == [math.comb(7, k) * F(1, 3) ** k * F(2, 3) ** (7 - k)
                       for k in range(8)]


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

    def test_node_affine_exact_is_the_node_map(self):
        params = OperatorParams(n=5, m=2, alpha=F(1, 2), beta=F(1), b_n=F(2))
        pq = PQPair(F(9, 10), F(4, 5))
        a, b = _node_affine(params, pq)
        # integer numerators over one denominator, shared by A and B
        assert type(a.den) is int and a.den == b.den
        assert len(a.nums) == len(b.nums) == params.degree + 1
        for k in range(params.degree + 1):
            assert type(a.nums[k]) is int and type(b.nums[k]) is int
            assert F(a.nums[k], a.den) == kantorovich_node(k, 0, params, pq)
            assert F(a.nums[k] + b.nums[k], a.den) == kantorovich_node(k, 1, params, pq)

    def test_fraction_pq_keeps_the_float_operator(self):
        # operator_profile builds float nodes whatever scalars pq holds
        params = OperatorParams(n=5, m=2, alpha=0.5, beta=1.0, b_n=2.0)
        xs = [0.0, 1.3, 2.0]
        got = operator_profile(builtin("sin"), params, PQPair(F(9, 10), F(4, 5)), xs)
        assert got.dtype == float
        assert got.tolist() == operator_profile(builtin("sin"), params, PQ98, xs).tolist()

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
        # the unit operator is alpha = beta = 0, b_n = 1, as `eval --op unit` builds it
        ident = builtin("id")
        unit = OperatorParams(n=2, alpha=0, beta=0, b_n=1)
        assert apply_operator(ident, 0.0, unit, P11) == pytest.approx(1 / 6)
        got_k = apply_operator(ident, 0.4, OperatorParams(n=3, m=1), P11)
        got_t = apply_operator(ident, 0.4, OperatorParams(n=3, m=1, alpha=0, beta=0, b_n=1),
                               P11)
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


def pointwise_weights(degree, pq, x_norm, mode):
    """The float basis weights at one point, one numpy operation at a time
    (the reference every row of `_weights_float` must match bit for bit)."""
    p = float(pq.p)
    r = float(pq.q) / p
    ks = np.arange(degree + 1)
    if r == 1.0:
        brackets = np.arange(1, degree + 1, dtype=float)
    else:
        d = r - 1.0
        brackets = np.expm1(np.arange(1, degree + 1) * math.log1p(d)) / d
    binoms = np.concatenate(([1.0], np.cumprod(brackets[::-1] / brackets)))
    prefix = np.concatenate(([1.0], np.cumprod(1.0 - (r ** np.arange(degree)) * x_norm)))
    w = binoms * (x_norm ** ks) * prefix[degree - ks]
    if mode == "literal":
        w = w * p ** ((degree * (degree - 1) - ks * (ks - 1)) / 2.0)
    return w


class TestOperatorProfile:
    HANDLES = ("const1", "id", "square", "absdev:1", "bump:2")

    # degree 52 fills 154 rows per block, 800 fills 10, 3000 fills 2 (and a
    # last block of 1 row on 257 points)
    @pytest.mark.parametrize("mode", ["normalized", "literal"])
    @pytest.mark.parametrize("points", [2, 257, 258])
    @pytest.mark.parametrize("degree", [1, 52, 800, 3000])
    def test_rows_equal_pointwise(self, degree, points, mode):
        params = OperatorParams(n=degree, b_n=2.0, mode=mode)
        pq = PQPair(0.95, 0.9)
        handles = [builtin(name) for name in self.HANDLES]
        xs = np.linspace(0.0, 2.0, points)
        rows = operator_profile(handles, params, pq, xs)
        assert rows.shape == (len(handles), points)
        a, b = _node_affine(params, pq)
        weights = [pointwise_weights(degree, pq, x / 2.0, mode) for x in xs.tolist()]
        for h, row in zip(handles, rows):
            integrals = _inner_integrals(h, a, b, pq, 1e-12)
            assert row.tolist() == [float(np.dot(w, integrals)) for w in weights], h.name
        # apply_operator is the one-point case; compare every point of one handle
        assert rows[2].tolist() == [apply_operator(handles[2], x, params, pq)
                                    for x in xs.tolist()]

    def test_one_handle_gives_one_row(self):
        params = OperatorParams(n=5, b_n=2.0)
        xs = [0.0, 0.5, 2.0]
        one = operator_profile(builtin("square"), params, PQ98, xs)
        many = operator_profile([builtin("square")], params, PQ98, xs)
        assert one.shape == (3,) and many.shape == (1, 3)
        assert one.tolist() == many[0].tolist()

    def test_weights_overflow_raises(self):
        # the r-binomial products overflow past degree ~1030 as q/p -> 1
        params = OperatorParams(n=1100, b_n=1.0)
        pq = PQPair(1 - 1 / 1101 ** 2, 1 - 2 / 1101 ** 2)
        with pytest.raises(DomainError, match="1100"):
            operator_profile([builtin("const1")], params, pq, [0.0, 0.5, 1.0])
        with pytest.raises(DomainError, match="overflow"):
            apply_operator(builtin("square"), 0.5, params, pq)


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


def default_pq_params(n):
    """The default sequence's operator at degree n (alpha = beta = m = 0)."""
    p, q = 1.0 - 1.0 / (n + 1) ** 2, 1.0 - 2.0 / (n + 1) ** 2
    return PQPair(p, q), OperatorParams(n=n, b_n=float(n) ** (1.0 / 3.0))


def sin_series_oracle(a, b, p, q):
    """(p - q) sum_j t_j sin(a + b t_j), t_j = (q/p)^j / p, at 30 digits:
    sin(a + b t) = sum_m sin(a + m pi/2) (b t)^m / m!, and the node sums
    of t^m are 1/[m+1] (exact geometric series)."""
    with mp.workdps(30):
        P, Q, A, B = (mp.mpf(v) for v in (p, q, a, b))
        return mp.fsum(mp.sin(A + m * mp.pi / 2) * B ** m / mp.factorial(m)
                       * (P - Q) / (P ** (m + 1) - Q ** (m + 1)) for m in range(30))


def sqrt_kink_series_oracle(a, b, p, q, kink):
    """(p - q) sum_j t_j |a + b t_j - kink|^(1/2) at 30 digits.

    Nodes t_j above half the Taylor radius rho = |kink - a|/b of f(a + b t)
    about t = 0 are summed directly in 30-digit decimal arithmetic; the
    rest, J onwards, through the Taylor series |a - kink|^(1/2)
    sum_m C(1/2, m) (s t/rho)^m (s the sign of a - kink), whose node sums
    are r^{J(m+1)}/[m+1]: a ratio of 1/2 or less per term."""
    with mp.workdps(30):
        P, Q, A, B, K = (mp.mpf(v) for v in (p, q, a, b, kink))
        r, rho = Q / P, abs(K - A) / B
        terms = max(0, int(mp.ceil(mp.log(2 / (P * rho)) / -mp.log(r))))
        with decimal.localcontext() as ctx:
            ctx.prec = 30
            Pd, Qd, Ad, Bd, Kd = (decimal.Decimal(v) for v in (p, q, a, b, kink))
            rd, t, direct = Qd / Pd, 1 / Pd, decimal.Decimal(0)
            for _ in range(terms):
                direct += t * abs(Ad + Bd * t - Kd).sqrt()
                t *= rd
            direct *= Pd - Qd
        tail, coef, s = mp.mpf(0), mp.mpf(1), mp.sign(A - K)
        ratio = r ** terms / (P * rho)  # largest |t_j| / rho in the tail, <= 1/2
        for m in range(int(mp.ceil(32 * mp.log(10) / -mp.log(ratio))) + 1):
            tail += (coef * (s / rho) ** m * r ** (terms * (m + 1))
                     * (P - Q) / (P ** (m + 1) - Q ** (m + 1)))
            coef *= (mp.mpf(1) / 2 - m) / (m + 1)
        return mp.mpf(str(direct)) + abs(A - K) ** (mp.mpf(1) / 2) * tail


def with_kinks_only(handle):
    """The handle's evaluator and kinks, nothing else: forces the general
    series paths."""
    return FunctionHandle(name="kinks-only", evaluator=handle.evaluator,
                          kinks=handle.kinks)


class TestSeriesPaths:
    """Inner integrals for general f at q < p: truncated sum and
    Euler-Maclaurin."""

    def test_sin_matches_mpmath_default_n200(self):
        pq, params = default_pq_params(200)
        a, b = _node_affine(params, pq)
        got = _series_integrals(builtin("sin"), a, b, pq, 1e-12)
        for k in range(len(a)):
            want = sin_series_oracle(a[k], b[k], pq.p, pq.q)
            assert abs(got[k] - want) <= 1e-12 * abs(want), k

    def test_lip_matches_oracle_default_n200(self):
        pq, params = default_pq_params(200)
        a, b = _node_affine(params, pq)
        straddle = [k for k in range(len(a)) if a[k] < 1.0 < a[k] + b[k] / pq.p]
        assert straddle
        got = _series_integrals(builtin("lip:1:0.5"), a, b, pq, 1e-12)
        for k in range(len(a)):
            want = sqrt_kink_series_oracle(a[k], b[k], pq.p, pq.q, 1.0)
            assert abs(got[k] - want) <= 1e-12 * abs(want), k

    @pytest.mark.parametrize("ratio", [0.99, 0.999])
    def test_euler_maclaurin_agrees_with_truncated_sum(self, ratio):
        zigzag = PiecewiseLinear(xs=(0.0, 0.9, 0.905, 0.96, 1.4),
                                 ys=(0.0, 1.0, 0.2, 0.7, 0.1), end_slope=-1.0)
        handles = [builtin("sin"), builtin("lip:1:0.5"), builtin("lip:0.5:0.3"),
                   with_kinks_only(builtin("absdev:1")), with_kinks_only(builtin("bump:2")),
                   FunctionHandle(name="zigzag", evaluator=zigzag, kinks=zigzag.xs[1:])]
        pq = PQPair(0.98, 0.98 * ratio)
        params = OperatorParams(n=30, m=2, alpha=0.5, beta=1.0, b_n=3.0)
        a, b = _node_affine(params, pq)
        for h in handles:
            em, err = _euler_maclaurin(h, a, b, pq)
            summed = truncated_series(h, a, b, pq, 1e-14)
            assert np.all(err <= 1e-12 * np.abs(em)), h.name
            assert np.all(np.abs(em - summed) <= 1e-12 * np.abs(summed)), h.name

    @pytest.mark.parametrize("name", ["absdev:1", "bump:2", "absdev:3.1"])
    def test_piecewise_exact_matches_euler_maclaurin(self, name):
        # q/p -> 1, where the truncated sum cannot run: the exact geometric
        # tail sums against the kink windows with Gauss-Legendre gaps
        pq, params = default_pq_params(200)
        a, b = _node_affine(params, pq)
        exact = _inner_integrals(builtin(name), a, b, pq, 1e-12)
        em = _series_integrals(with_kinks_only(builtin(name)), a, b, pq, 1e-12)
        assert np.all(np.abs(em - exact) <= 1e-12 * np.maximum(np.abs(exact), 1e-300))

    def test_uncertified_nodes_fall_back(self):
        # without its antiderivative, Gauss-Legendre next to the kink of
        # |t - 1|^0.5 misses the tolerance at some nodes; those, and only
        # those, take the truncated sum
        pq = PQPair(1.0, 0.9999)
        params = OperatorParams(n=200, b_n=5.85)
        a, b = _node_affine(params, pq)
        h = with_kinks_only(builtin("lip:1:0.5"))
        em, err = _euler_maclaurin(h, a, b, pq)
        bad = err > 1e-12 * np.abs(em)
        assert np.any(bad) and not np.all(bad)
        got = _series_integrals(h, a, b, pq, 1e-12)
        assert np.array_equal(got[~bad], em[~bad])
        assert np.array_equal(got[bad], truncated_series(h, a[bad], b[bad], pq, 1e-12))

    PATHS = ("_poly_integrals", "_pl_integrals_classical", "_gl_integrals",
             "_pl_integrals_strict", "truncated_series", "_euler_maclaurin")

    def paths_taken(self, monkeypatch, f, params, pq):
        taken = []
        for name in self.PATHS:
            original = getattr(operators, name)

            def spy(*args, _name=name, _original=original):
                taken.append(_name)
                return _original(*args)

            monkeypatch.setattr(operators, name, spy)
        try:
            apply_operator(f, 1.0, params, pq)
        except RegimeError:
            taken.append("RegimeError")
        monkeypatch.undo()
        # the classical antiderivative path is inline in _inner_integrals
        return taken or ["antiderivative"]

    def test_path_pinned_per_builtin_and_regime(self, monkeypatch):
        near_one, params = default_pq_params(200)
        assert predicted_terms(near_one, 1e-12) > TERM_CAP
        regimes = (P11, PQPair(0.9, 0.9), PQPair(0.9, 0.8), near_one)
        poly = [["_poly_integrals"]] * 4
        pl = [["_pl_integrals_classical"], ["RegimeError"], ["_pl_integrals_strict"],
              ["_pl_integrals_strict"]]
        expected = {
            "const1": poly, "id": poly, "square": poly,
            "sin": [["_gl_integrals"], ["RegimeError"], ["truncated_series"],
                    ["_euler_maclaurin"]],
            "absdev:1": pl, "bump:2": pl, "lip:1:1": pl,
            "lip:1:0.5": [["antiderivative"], ["RegimeError"], ["truncated_series"],
                          ["_euler_maclaurin"]],
        }
        for name, paths in expected.items():
            got = [self.paths_taken(monkeypatch, builtin(name), params, pq) for pq in regimes]
            assert got == paths, name
