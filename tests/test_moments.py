import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqkanto import (
    DomainError,
    OperatorParams,
    PQPair,
    SizeCapError,
    basis_weights,
    builtin,
    moment_closed,
    peetre_bound_args,
    polynomial_handle,
    second_central_moment,
    verify_moments,
)
from pqkanto import moments
from pqkanto.moments import MOMENT_KEYS, _direct_moments
from pqkanto.operators import operator_profile
from pqkanto.pq_calculus import _pq_powers, pq_integer, pq_integral_monomial, pq_power

from oracles import apply_classical_reference, direct_moments_fractions, weights_exact_fractions

PQ98 = PQPair(0.9, 0.8)
P11 = PQPair(1, 1)
KINDS = (0, 1, 2, "central1", "central2")


class TestUnitMomentClosed:
    # the unit operator: alpha = beta = 0, b_n = 1
    def test_mass_is_one(self):
        assert moment_closed(0, OperatorParams(n=4, m=2), PQ98, 0.3) == 1

    def test_first_moment_classical(self):
        for n in (1, 3, 9):
            for x in (0.0, 0.4, 1.0):
                got = moment_closed(1, OperatorParams(n=n), P11, x)
                want = 1 / (2 * (n + 1)) + n * x / (n + 1)
                assert got == pytest.approx(want, rel=1e-14)

    def test_first_moment_at_origin(self):
        assert moment_closed(1, OperatorParams(n=5), P11, 0.0) == pytest.approx(1 / 12)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_closed(1, OperatorParams(n=3), PQ98, 1.2)
        with pytest.raises(DomainError):
            moment_closed(3, OperatorParams(n=3), PQ98, 0.5)

    def test_kind_checked_before_any_power(self, monkeypatch):
        calls = []
        for name in ("pq_power", "_pq_powers"):
            monkeypatch.setattr(moments, name, lambda *a: calls.append(a))
        with pytest.raises(DomainError, match="kind"):
            moment_closed(3, OperatorParams(n=3), PQ98, 0.5)
        assert calls == []


class TestMomentClosed:
    def test_mass_is_one(self):
        params = OperatorParams(n=5, m=1, alpha=1.0, beta=2.0, b_n=3.0)
        assert moment_closed(0, params, PQ98, 2.0) == 1

    def test_first_moment_classical_limit(self):
        params = OperatorParams(n=4, m=2, alpha=1.0, beta=2.0, b_n=5.0)
        for x in (0.0, 2.5, 5.0):
            got = moment_closed(1, params, P11, x)
            want = (1.0 * 5.0 + 5.0 / 2 + 6 * x) / (4 + 1 + 2.0)
            assert got == pytest.approx(want, rel=1e-14)

    def test_central1_is_first_moment_minus_x(self):
        params = OperatorParams(n=3, m=1, alpha=0.5, beta=1.5, b_n=2.0)
        pq = PQPair(0.93, 0.81)
        for x in (0.0, 0.7, 2.0):
            lhs = moment_closed("central1", params, pq, x)
            rhs = moment_closed(1, params, pq, x) - x
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)

    def test_central1_identity_exact(self):
        params = OperatorParams(n=2, m=1, alpha=F(1), beta=F(2), b_n=F(3))
        pq = PQPair(F(9, 10), F(4, 5))
        x = F(5, 4)
        assert moment_closed("central1", params, pq, x) == \
            moment_closed(1, params, pq, x) - x

    def test_central2_combination_identity_exact(self):
        # the printed second central moment is algebraically (iii) - 2x(ii) + x^2(i)
        params = OperatorParams(n=3, m=0, alpha=F(1, 2), beta=F(1), b_n=F(2))
        pq = PQPair(F(4, 5), F(2, 3))
        x = F(3, 2)
        direct = moment_closed("central2", params, pq, x)
        combo = (
            moment_closed(2, params, pq, x)
            - 2 * x * moment_closed(1, params, pq, x)
            + x * x * moment_closed(0, params, pq, x)
        )
        assert direct == combo

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            moment_closed(3, OperatorParams(n=2), PQ98, 0.1)


class TestBruteMoments:
    def test_second_central_at_origin_classical(self):
        assert second_central_moment(OperatorParams(n=1), P11, 0.0) == \
            pytest.approx(1 / 12, rel=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = rng.uniform(0.6, 1.0)
            pq = PQPair(p, p * rng.uniform(0.4, 0.999))
            params = OperatorParams(n=int(rng.integers(1, 12)),
                                    m=int(rng.integers(0, 3)), b_n=2.0)
            x = rng.uniform(0, 2.0)
            assert second_central_moment(params, pq, x) >= -1e-15

    def test_matches_moment_combination(self):
        params = OperatorParams(n=6, m=1, alpha=1.0, beta=1.0, b_n=2.0)
        pq = PQPair(0.92, 0.85)
        one, ident, sq = builtin("const1"), builtin("id"), builtin("square")
        from pqkanto import apply_operator

        for x in (0.0, 0.9, 2.0):
            mu = second_central_moment(params, pq, x)
            combo = (
                apply_operator(sq, x, params, pq)
                - 2 * x * apply_operator(ident, x, params, pq)
                + x * x * apply_operator(one, x, params, pq)
            )
            assert mu == pytest.approx(combo, abs=1e-10)


def moments_by_handles(params, pq, x):
    """The float moments as five polynomial handles through one
    `operator_profile` call: the reference the direct sums must equal."""
    handles = [polynomial_handle(key, coeffs) for key, coeffs in (
        ("m0", (1.0,)),
        ("m1", (0.0, 1.0)),
        ("m2", (0.0, 0.0, 1.0)),
        ("c1", (-x, 1.0)),
        ("c2", (x * x, -2.0 * x, 1.0)),
    )]
    values = operator_profile(handles, params, pq, [x])[:, 0].tolist()
    return {h.name: v for h, v in zip(handles, values)}


@st.composite
def exact_instances(draw):
    """(params, pq, xs), all rational: q <= p in (0, 1] (p = q < 1 and the
    integer p = q = 1 included), alpha <= beta, b_n, degrees 1 to 12, both
    modes, and two to four points in [0, b_n], the ends included."""
    unit = st.fractions(min_value=0, max_value=1, max_denominator=12)
    p = F(1) if draw(st.integers(0, 3)) == 0 else draw(unit.filter(lambda v: v > 0))
    q = p if draw(st.integers(0, 3)) == 0 else draw(unit.filter(lambda v: 0 < v <= p))
    pq = PQPair(1, 1) if p == q == 1 else PQPair(p, q)
    alpha = draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
    beta = alpha + draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
    b_n = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6))
    degree = draw(st.integers(1, 12))
    n = draw(st.integers(1, degree))
    params = OperatorParams(n=n, m=degree - n, alpha=alpha, beta=beta, b_n=b_n,
                            mode=draw(st.sampled_from(["normalized", "literal"])))
    ends = st.sampled_from([F(0), F(1)])
    xs = [t * b_n for t in draw(st.lists(st.one_of(ends, unit), min_size=2, max_size=4))]
    return params, pq, xs


class TestDirectMoments:
    @pytest.mark.parametrize("mode", ["normalized", "literal"])
    def test_float_equals_handles_bit_for_bit(self, mode):
        cases = [(pq, OperatorParams(n=n, m=m, alpha=1.0, beta=2.0, b_n=3.0, mode=mode))
                 for pq in (P11, PQPair(0.9, 0.9), PQ98, PQPair(0.95, 0.85))
                 for n, m in ((1, 0), (6, 1), (50, 2))]
        # the default sequence at degree 900, q/p -> 1
        near_one = PQPair(1.0 - 1.0 / 901 ** 2, 1.0 - 2.0 / 901 ** 2)
        cases.append((near_one, OperatorParams(n=900, b_n=900.0 ** (1 / 3), mode=mode)))
        for pq, params in cases:
            xs = [float(x) for x in np.linspace(0.0, float(params.b_n), 7)]
            got = _direct_moments(params, pq, xs)
            for x, row in zip(xs, got):
                want = moments_by_handles(params, pq, x)
                assert list(row) == list(MOMENT_KEYS)
                assert [v.hex() for v in row.values()] == [v.hex() for v in want.values()]
                assert all(type(v) is float for v in row.values())

    def test_helpers_equal_handles_bit_for_bit(self):
        params = OperatorParams(n=20, m=1, alpha=0.5, beta=1.0, b_n=2.0)
        for pq in (P11, PQPair(0.9, 0.9), PQPair(0.95, 0.85)):
            for x in (0.0, 0.3, 1.7, 2.0):
                want = moments_by_handles(params, pq, x)
                c2 = second_central_moment(params, pq, x)
                c1 = _direct_moments(params, pq, [x])[0]["c1"]
                assert (c1.hex(), c2.hex()) == (want["c1"].hex(), want["c2"].hex())
                assert type(c1) is float and type(c2) is float

    def test_exact_on_one_node_map(self, monkeypatch):
        # the whole call shares one node map, whatever the number of points
        calls = []
        node_affine = moments._node_affine
        monkeypatch.setattr(moments, "_node_affine",
                            lambda *a: calls.append(a) or node_affine(*a))
        params = OperatorParams(n=4, m=2, alpha=F(1, 2), beta=F(1), b_n=F(2))
        pq = PQPair(F(9, 10), F(4, 5))
        xs = [F(k, 3) for k in range(7)]
        got = _direct_moments(params, pq, xs)
        assert len(calls) == 1
        for x, row in zip(xs, got):
            assert all(isinstance(v, F) for v in row.values())
            assert row == verify_moments(params, pq, x, "exact").brute

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(instance=exact_instances())
    @example(instance=(OperatorParams(n=9, m=3, alpha=F(1, 2), beta=F(1), b_n=F(2),
                                      mode="literal"), PQPair(1, 1), [F(0), F(6, 7), F(2)]))
    def test_exact_equals_fraction_reference(self, instance):
        # the integer-numerator sums against the object-array Fraction path
        # they replaced, on every moment key and on basis_weights
        params, pq, xs = instance
        got = _direct_moments(params, pq, xs)
        assert got == direct_moments_fractions(params, pq, xs)
        for x, row in zip(xs, got):
            assert list(row) == list(MOMENT_KEYS)
            assert all(type(v) is F for v in row.values())
            weights = basis_weights(params, pq, x).weights
            assert all(type(w) is F for w in weights)
            assert weights == weights_exact_fractions(params.degree, pq, x / params.b_n,
                                                      params.mode)

    def test_overflow_blames_the_inner_integrals(self):
        # finite weights, inner integrals past the float range: no numpy
        # warning (the suite turns those into errors) and no word of ~1030
        params = OperatorParams(n=2, b_n=1e200)
        with pytest.raises(DomainError, match="inner integrals are not finite"):
            second_central_moment(params, PQ98, 1e200)
        with pytest.raises(DomainError, match="inner integrals are not finite"):
            verify_moments(params, PQ98, 0.5)


class TestPeetreArgs:
    def test_origin_example(self):
        for n, beta in ((4, 2.0), (7, 0.0)):
            arg, _bias = peetre_bound_args(OperatorParams(n=n, beta=beta), P11, 0.0)
            assert arg == pytest.approx(7 / (12 * (n + 1 + beta) ** 2), rel=1e-13)

    def test_bias_equals_printed_central1(self):
        params = OperatorParams(n=3, m=1, alpha=0.5, beta=1.0, b_n=2.0)
        pq = PQPair(0.95, 0.9)
        for x in (0.0, 1.3, 2.0):
            _arg, bias = peetre_bound_args(params, pq, x)
            assert bias == moment_closed("central1", params, pq, x)

    def test_classical_collapse(self):
        # at p = q = 1 the curly brackets collapse to 1 and 2, leaving
        # 2((n+m)/E - 1)^2 x^2 + [(3+4a)(n+m)/E^2 - 2/E - 4a/E] b x + ...
        n, m, alpha, beta, b = 5, 2, 1.0, 2.0, 3.0
        params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b)
        ee = n + 1 + beta
        deg = n + m
        for x in (0.0, 1.1, 3.0):
            arg, _ = peetre_bound_args(params, P11, x)
            want = (
                2 * (deg / ee - 1) ** 2 * x * x
                + ((3 + 4 * alpha) * deg / ee ** 2 - 2 / ee - 4 * alpha / ee) * b * x
                + (1 / 3 + 1 / 4 + 2 * alpha + 2 * alpha ** 2) * b * b / ee ** 2
            )
            assert arg == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestVerifyMoments:
    def test_classical_residuals_vanish(self):
        # all five closed forms match direct summation at p = q = 1
        for n, m in ((1, 0), (4, 2), (12, 3), (17, 3)):
            for alpha, beta in ((0.0, 0.0), (1.0, 2.0), (2.0, 2.0)):
                for b_n in (1.0, 5.0):
                    params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
                    rep = verify_moments(params, P11, 0.37 * b_n)
                    for key in MOMENT_KEYS:
                        assert abs(rep.residuals[key]) <= 1e-12, (key, n, m)

    def test_exact_p_one_literal_mass_residual_zero(self):
        params = OperatorParams(n=2, m=0, alpha=F(0), beta=F(0), b_n=F(1),
                                mode="literal")
        rep = verify_moments(params, PQPair(F(1), F(4, 5)), F(1, 2), "exact")
        assert rep.residuals["m0"] == 0

    def test_exact_literal_mass_counterexample(self):
        params = OperatorParams(n=2, m=0, alpha=F(0), beta=F(0), b_n=F(1),
                                mode="literal")
        rep = verify_moments(params, PQPair(F(9, 10), F(4, 5)), F(1, 2), "exact")
        assert rep.residuals["m0"] == F(3, 40)  # 1 - 0.925

    def test_exact_normalized_mass_residual_zero(self):
        params = OperatorParams(n=3, m=1, alpha=F(1), beta=F(1), b_n=F(2))
        rep = verify_moments(params, PQPair(F(3, 4), F(1, 2)), F(1, 3), "exact")
        assert rep.residuals["m0"] == 0

    def test_exact_brute_central_identity(self):
        params = OperatorParams(n=3, m=0, alpha=F(1), beta=F(2), b_n=F(2))
        rep = verify_moments(params, PQPair(F(9, 10), F(3, 5)), F(1, 2), "exact")
        assert rep.brute["c2"] == (
            rep.brute["m2"] - 2 * F(1, 2) * rep.brute["m1"]
            + F(1, 4) * rep.brute["m0"]
        )

    def test_float_brute_central_identity(self):
        params = OperatorParams(n=8, m=2, alpha=1.0, beta=2.0, b_n=3.0)
        rep = verify_moments(params, PQPair(0.9, 0.7), 1.9)
        combo = rep.brute["m2"] - 2 * 1.9 * rep.brute["m1"] + 1.9 ** 2 * rep.brute["m0"]
        assert rep.brute["c2"] == pytest.approx(combo, abs=1e-10)

    def test_exact_closed_forms_share_their_powers(self, monkeypatch):
        # one set of closed-form terms per call: at most three product
        # powers, not three for each of the five moments
        calls = []
        for name, power in (("pq_power", pq_power), ("_pq_powers", _pq_powers)):
            monkeypatch.setattr(moments, name,
                                lambda *a, power=power: calls.append(a) or power(*a))
        params = OperatorParams(n=10, m=2, alpha=F(1, 2), beta=F(1), b_n=F(2))
        rep = verify_moments(params, PQPair(F(9, 10), F(4, 5)), F(4, 7), "exact")
        assert len(calls) <= 3
        assert rep.closed == {k: moment_closed(kind, params, PQPair(F(9, 10), F(4, 5)),
                                               F(4, 7))
                              for k, kind in zip(MOMENT_KEYS, KINDS)}

    def test_exact_brute_equals_hand_summation(self):
        # the direct sums written out term by term: an independent check of
        # the node map and monomial rule shared with the float path
        for pq in (PQPair(F(9, 10), F(4, 5)), PQPair(F(1), F(1)), PQPair(F(1, 2), F(1, 2))):
            for n, m, mode in ((1, 0, "normalized"), (4, 2, "literal"), (10, 2, "normalized")):
                params = OperatorParams(n=n, m=m, alpha=F(1, 2), beta=F(1), b_n=F(2),
                                        mode=mode)
                x = F(6, 7)
                rep = verify_moments(params, pq, x, "exact")
                w = basis_weights(params, pq, x).weights
                ee = pq_integer(n + 1, pq) + params.beta
                mono = [pq_integral_monomial(j, pq) for j in range(3)]
                want = [F(0)] * 3
                for k, wk in enumerate(w):
                    a = (pq_integer(k, pq) + params.alpha) * params.b_n / ee
                    b = (pq_integer(k + 1, pq) - pq_integer(k, pq)) * params.b_n / ee
                    for u in range(3):
                        want[u] += wk * sum(math.comb(u, j) * a ** (u - j) * b ** j * mono[j]
                                            for j in range(u + 1))
                assert [rep.brute[k] for k in ("m0", "m1", "m2")] == want

    def test_exact_with_integer_pq_stays_exact(self):
        # p = q = 1 given as ints still gives Fraction residuals
        params = OperatorParams(n=5, m=2, alpha=F(1), beta=F(2), b_n=F(3))
        rep = verify_moments(params, PQPair(1, 1), F(1), "exact")
        for key in MOMENT_KEYS:
            assert isinstance(rep.residuals[key], F) and rep.residuals[key] == 0
        assert rep.to_json_dict()["pq"] == {"p": "1", "q": "1"}

    def test_closed_with_integer_pq_stays_exact(self):
        params = OperatorParams(n=3, m=1, alpha=F(1), beta=F(2), b_n=F(3))
        got = moment_closed(2, params, PQPair(1, 1), F(1))
        assert type(got) is F and got == F(9, 4)

    def test_size_cap(self):
        params = OperatorParams(n=9, m=4, alpha=F(0), beta=F(0), b_n=F(1))
        with pytest.raises(SizeCapError):
            verify_moments(params, PQPair(F(1), F(1, 2)), F(0), "exact")

    def test_exact_requires_rationals(self):
        with pytest.raises(DomainError):
            verify_moments(OperatorParams(n=2), PQPair(0.9, 0.8), 0.5, "exact")

    def test_json_round_trip(self):
        params = OperatorParams(n=2, m=0, alpha=F(1), beta=F(1), b_n=F(2))
        rep = verify_moments(params, PQPair(F(9, 10), F(4, 5)), F(1, 2), "exact")
        payload = json.dumps(rep.to_json_dict(), sort_keys=True)
        data = json.loads(payload)
        assert data["residual_is_zero"]["m0"] is True
        assert F(data["residuals"]["m1"]) == rep.residuals["m1"]

    def test_first_central_brute_helper(self):
        params = OperatorParams(n=4, m=1, b_n=2.0)
        pq = PQPair(0.9, 0.8)
        got = _direct_moments(params, pq, [1.0])[0]["c1"]
        rep = verify_moments(params, pq, 1.0)
        assert got == pytest.approx(rep.brute["c1"], abs=1e-14)


class TestClosedVsClassicalOracle:
    def test_first_moment_against_independent_reference(self):
        # at p = q = 1 the closed first moment must agree with the
        # classical reference implementation applied to f = t
        ident = builtin("id")
        for n, m, alpha, beta, b_n in ((2, 0, 0.0, 0.0, 1.0), (5, 2, 1.0, 2.0, 5.0)):
            params = OperatorParams(n=n, m=m, alpha=alpha, beta=beta, b_n=b_n)
            for x in (0.0, 0.5 * b_n, b_n):
                closed = moment_closed(1, params, P11, x)
                oracle = apply_classical_reference(ident, x, params)
                assert closed == pytest.approx(oracle, rel=1e-12, abs=1e-14)
