import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqkanto import (
    ConvergenceError,
    DomainError,
    PQPair,
    RegimeError,
    pq_integer,
    pq_integral_monomial,
    pq_power,
)
from pqkanto.pq_calculus import TERM_CAP, _brackets, bracket_table, predicted_terms

from oracles import (pq_binomial, pq_binomial_expand, pq_factorial, pq_integer_quotient,
                     pq_integral_unit)

PQ98 = PQPair(0.9, 0.8)


def rationals(max_den=16):
    return st.fractions(min_value=F(1, 16), max_value=1, max_denominator=max_den)


class TestPQPair:
    def test_rejects_bad_regime(self):
        for p, q in ((0.5, 0.6), (1.2, 0.5), (0.5, 0.0), (0.0, 0.0)):
            with pytest.raises(DomainError):
                PQPair(p, q)

    def test_flags(self):
        assert PQPair(1, 1).is_classical
        assert not PQPair(1, 1).is_strict
        assert PQPair(0.9, 0.8).is_strict
        assert PQPair(F(1, 2), F(1, 3)).is_exact
        assert not PQPair(0.5, F(1, 3)).is_exact

    def test_integers_stored_as_fractions(self):
        pq = PQPair(1, 1)
        assert type(pq.p) is F and type(pq.q) is F
        assert type(PQPair(0.9, 0.8).p) is float
        # the primitives then stay exact instead of dividing int by int
        assert type(pq_binomial(4, 2, pq)) is F and pq_binomial(4, 2, pq) == F(6)
        got = pq_integral_monomial(2, pq)
        assert type(got) is F and got == F(1, 3)


class TestPQInteger:
    def test_classical_is_n(self):
        pq = PQPair(1, 1)
        for n in range(21):
            assert pq_integer(n, pq) == n

    def test_two_is_p_plus_q(self):
        assert pq_integer(2, PQ98) == pytest.approx(0.9 + 0.8, abs=1e-15)

    def test_three_example(self):
        # 0.81 + 0.72 + 0.64
        assert pq_integer(3, PQ98) == pytest.approx(2.17, abs=1e-12)

    def test_homogeneous_sum_equals_quotient_float(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.uniform(0.3, 1.0)
            q = p * rng.uniform(0.1, 0.999)
            pq = PQPair(p, q)
            for n in (0, 1, 5, 17, 50):
                if n == 0:
                    assert pq_integer(n, pq) == 0
                    continue
                a = pq_integer(n, pq)
                b = pq_integer_quotient(n, pq)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @settings(max_examples=60, deadline=None)
    @given(p=rationals(), q=rationals(), n=st.integers(0, 50))
    def test_homogeneous_sum_equals_quotient_exact(self, p, q, n):
        p, q = max(p, q), min(p, q)
        pq = PQPair(p, q)
        if n >= 1 and pq.is_strict:
            assert pq_integer(n, pq) == pq_integer_quotient(n, pq)
        # symmetry of the homogeneous sum
        assert _brackets(n + 1, p, q)[n] == _brackets(n + 1, q, p)[n]

    def test_valid_at_p_equals_q(self):
        pq = PQPair(F(1, 2), F(1, 2))
        assert pq_integer(4, pq) == 4 * F(1, 2) ** 3

    def test_quotient_refuses_p_equals_q(self):
        with pytest.raises(RegimeError):
            pq_integer_quotient(3, PQPair(0.7, 0.7))

    def test_bracket_table_matches_scalar(self):
        # float parameters: the same operations as pq_integer, bit for bit
        for pq in (PQPair(0.97, 0.9), PQ98, PQPair(0.7, 0.7), PQPair(1.0, 1.0)):
            table = bracket_table(41, pq)
            assert isinstance(table, np.ndarray) and table.dtype == float
            assert table.tolist() == [pq_integer(n, pq) for n in range(41)]

    @pytest.mark.parametrize("pq", [PQPair(F(9, 10), F(4, 5)), PQPair(F(1, 2), F(1, 2)),
                                    PQPair(F(1), F(1))])
    def test_bracket_table_exact_equals_scalar(self, pq):
        # p > q, p = q < 1 and p = q = 1: the recurrence on Fractions (the
        # closed-form terms) and on the integers P, Q of p = P/D, q = Q/D
        # (the exact direct sums), whose entry n is N_n in [n] = N_n / D^(n-1)
        table = _brackets(41, pq.p, pq.q)
        d = math.lcm(pq.p.denominator, pq.q.denominator)
        integers = _brackets(41, int(pq.p * d), int(pq.q * d))
        for n in range(41):
            assert isinstance(table[n], F) and type(integers[n]) is int
            assert table[n] == pq_integer(n, pq)
            assert F(integers[n], d ** max(n - 1, 0)) == pq_integer(n, pq)


class TestPQFactorial:
    def test_empty_product(self):
        assert pq_factorial(0, PQ98) == 1

    def test_classical(self):
        pq = PQPair(1, 1)
        for n in range(11):
            assert pq_factorial(n, pq) == math.factorial(n)

    def test_example(self):
        # 1 * 1.7 * 2.17
        assert pq_factorial(3, PQ98) == pytest.approx(3.689, abs=1e-12)

    @pytest.mark.parametrize("pq", [PQ98, PQPair(0.97, 0.9), PQPair(0.6, 0.6), PQPair(1, 1),
                                    PQPair(F(9, 10), F(4, 5)), PQPair(F(1, 2), F(1, 2))])
    def test_equals_product_of_brackets(self, pq):
        # the running bracket takes the same operations as pq_integer(j)
        acc = pq.p * 0 + 1
        for n in range(41):
            if n:
                acc = acc * pq_integer(n, pq)
            got = pq_factorial(n, pq)
            assert got == acc and type(got) is type(acc)

    def test_linear_in_n(self, monkeypatch):
        calls = []
        monkeypatch.setattr("oracles.pq_integer",
                            lambda *a: calls.append(a) or pq_integer(*a))
        pq = PQPair(F(9, 10), F(4, 5))
        assert pq_binomial(30, 12, pq) == pq_binomial(30, 18, pq)
        assert calls == []


class TestPQBinomial:
    def test_k_zero_is_one(self):
        assert pq_binomial(7, 0, PQ98) == 1

    def test_example(self):
        assert pq_binomial(4, 2, PQPair(1, 0.5)) == pytest.approx(2.1875, abs=1e-13)

    def test_symmetry(self):
        pq = PQPair(0.85, 0.6)
        assert pq_binomial(7, 3, pq) == pytest.approx(pq_binomial(7, 4, pq), rel=1e-13)

    def test_classical_matches_comb(self):
        pq = PQPair(1, 1)
        for n in range(21):
            for k in range(n + 1):
                assert pq_binomial(n, k, pq) == pytest.approx(math.comb(n, k), rel=1e-13)

    def test_k_above_n_is_domain_error(self):
        with pytest.raises(DomainError):
            pq_binomial(3, 4, PQ98)

    def test_float_ratio_path_matches_exact(self):
        p, q = F(17, 20), F(3, 5)
        exact = pq_binomial(12, 5, PQPair(p, q))
        approx = pq_binomial(12, 5, PQPair(float(p), float(q)))
        assert approx == pytest.approx(float(exact), rel=1e-12)


class TestPQPower:
    def test_single_factor(self):
        assert pq_power(1.25, -0.5, 1, PQ98) == pytest.approx(0.75, abs=1e-15)

    def test_ones(self):
        assert pq_power(1, 1, 2, PQ98) == pytest.approx(2 * (0.9 + 0.8), abs=1e-14)

    def test_negative_b_example(self):
        assert pq_power(1.0, -0.5, 2, PQ98) == pytest.approx(0.25, abs=1e-15)

    def test_empty(self):
        assert pq_power(3.0, 4.0, 0, PQ98) == 1


class TestBinomialExpand:
    def test_degenerate(self):
        assert pq_binomial_expand(2.0, 3.0, 0, PQ98) == 1

    def test_ones_squared(self):
        want = 2 * (0.9 + 0.8)
        assert pq_binomial_expand(1, 1, 2, PQ98) == pytest.approx(want, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        p=rationals(), q=rationals(),
        a=st.fractions(min_value=-2, max_value=2, max_denominator=8),
        b=st.fractions(min_value=-2, max_value=2, max_denominator=8),
        n=st.integers(0, 12),
    )
    def test_equals_product_exactly(self, p, q, a, b, n):
        pq = PQPair(max(p, q), min(p, q))
        assert pq_binomial_expand(a, b, n, pq) == pq_power(a, b, n, pq)


class TestIntegralSeries:
    def test_constant_is_one(self):
        assert pq_integral_unit(lambda t: np.ones_like(t), PQ98) == pytest.approx(
            1.0, rel=1e-11
        )

    def test_linear_example(self):
        got = pq_integral_unit(lambda t: t, PQ98)
        assert got == pytest.approx(1 / 1.7, rel=1e-11)

    def test_classical_riemann_limit(self):
        # p, q -> 1: integral of t^2 approaches 1/3
        got = pq_integral_unit(lambda t: t * t, PQPair(0.999, 0.998))
        assert got == pytest.approx(1 / 3, abs=2e-3)

    def test_monomials_match_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.uniform(0.5, 1.0)
            q = p * rng.uniform(0.2, 0.99)
            pq = PQPair(p, q)
            for j in range(7):
                got = pq_integral_unit(lambda t, _j=j: t ** _j, pq, rel_tol=1e-12)
                want = float(pq_integral_monomial(j, pq))
                assert abs(got - want) <= 10 * 1e-12 * max(1.0, abs(want))

    def test_requires_strict_regime(self):
        with pytest.raises(RegimeError):
            pq_integral_unit(lambda t: t, PQPair(0.9, 0.9))

    def test_term_cap_raises(self):
        # q/p so close to 1 that the tolerance needs ~3e8 terms; the stop
        # rule cannot fire before (q/p)^J <= rel_tol, so f is never evaluated
        points = []

        def counted(t):
            points.append(np.size(t))
            return t

        pq = PQPair(1.0, 1.0 - 1e-7)
        assert predicted_terms(pq, 1e-12) > TERM_CAP
        with pytest.raises(ConvergenceError, match=str(predicted_terms(pq, 1e-12))):
            pq_integral_unit(counted, pq, rel_tol=1e-12)
        assert sum(points) == 0

    def test_predicted_terms_bounds_the_stop(self):
        # the truncation stops at the first chunk boundary (multiples of 256)
        # at or past the predicted count, for an integrand of constant sign
        for q in (0.9, 0.99, 0.999):
            points = []

            def counted(t):
                points.append(np.size(t))
                return np.ones_like(t)

            pq = PQPair(1.0, q)
            pq_integral_unit(counted, pq, rel_tol=1e-12)
            needed = predicted_terms(pq, 1e-12)
            assert needed <= sum(points) < needed + 256 + 256

    def test_scalar_only_evaluator_falls_back(self):
        def scalar_only(t):
            if isinstance(t, np.ndarray):
                raise TypeError("scalars only")
            return t

        got = pq_integral_unit(scalar_only, PQ98)
        assert got == pytest.approx(1 / 1.7, rel=1e-11)


class TestIntegralMonomial:
    def test_j_zero(self):
        assert pq_integral_monomial(0, PQ98) == 1

    def test_classical_half(self):
        assert pq_integral_monomial(1, PQPair(1, 1)) == pytest.approx(0.5)

    def test_example(self):
        assert pq_integral_monomial(2, PQ98) == pytest.approx(1 / 2.17, rel=1e-12)

    def test_continuous_through_p_equals_q(self):
        assert pq_integral_monomial(3, PQPair(0.9, 0.9)) == pytest.approx(
            1 / (4 * 0.9 ** 3), rel=1e-12
        )
