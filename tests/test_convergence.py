import math

import numpy as np
import pytest

from pqkanto import (
    DomainError,
    OperatorParams,
    PQPair,
    SequenceSpec,
    builtin,
    default_spec,
    hypothesis_check,
    korovkin_sweep,
    vanishing_sweep,
    weighted_sup_error,
)
from pqkanto import operators
from pqkanto.convergence import sweep_csv_header, sweep_csv_rows
from pqkanto.functions import FunctionHandle

P11 = PQPair(1, 1)


class TestSequenceSpec:
    def test_default_realization(self):
        spec = default_spec((10,))
        p, q, b = spec.realize(10)
        assert p == pytest.approx(1 - 1 / 121)
        assert q == pytest.approx(1 - 2 / 121)
        assert b == pytest.approx(10 ** (1 / 3))

    def test_tables(self):
        spec = SequenceSpec(n_list=(2, 4), p_table=(0.9, 0.95),
                            q_table=(0.8, 0.9), b_table=(1.0, 1.5))
        assert spec.realize(4) == (0.95, 0.9, 1.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            SequenceSpec(n_list=(5, 3), rule="default")
        with pytest.raises(DomainError):
            SequenceSpec(n_list=(1, 2), rule="unknown-rule")
        with pytest.raises(DomainError):
            SequenceSpec(n_list=(1, 2), p_table=(0.9,), q_table=(0.8, 0.7),
                         b_table=(1.0, 1.0))


class TestHypothesisCheck:
    def test_default_spec_is_valid(self):
        report = hypothesis_check(default_spec((10, 50, 100, 200)))
        assert report["all_valid"]
        assert report["trends"]["bn_over_bracket"]["verdict"] == "vanishing"
        assert report["trends"]["bn2_over_bracket"]["verdict"] == "vanishing"
        assert report["trends"]["p_pow_n"]["verdict"] == "bounded"

    def test_q_at_least_p_flagged(self):
        spec = SequenceSpec(n_list=(2, 3), p_table=(0.9, 0.9),
                            q_table=(0.95, 0.8), b_table=(1.0, 1.0))
        report = hypothesis_check(spec)
        assert not report["all_valid"]
        assert report["rows"][0]["valid"] is False
        assert report["rows"][1]["valid"] is True

    def test_linear_bn_flagged_non_vanishing(self):
        ns = (10, 50, 100, 200)
        spec = SequenceSpec(
            n_list=ns,
            p_table=tuple(1 - 1 / (n + 1) ** 2 for n in ns),
            q_table=tuple(1 - 2 / (n + 1) ** 2 for n in ns),
            b_table=tuple(float(n) for n in ns),
        )
        report = hypothesis_check(spec)
        assert report["all_valid"]
        assert report["trends"]["bn_over_bracket"]["verdict"] == "non-vanishing"


class TestWeightedSupError:
    def test_constant_vanishes(self):
        got = weighted_sup_error(builtin("const1"), OperatorParams(n=7, b_n=2.0),
                                 PQPair(0.9, 0.8))
        assert got <= 1e-12

    def test_identity_classical_example(self):
        got = weighted_sup_error(builtin("id"), OperatorParams(n=1), P11)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_square_finite(self):
        got = weighted_sup_error(builtin("square"), OperatorParams(n=5, b_n=3.0),
                                 PQPair(0.95, 0.9))
        assert np.isfinite(got) and got >= 0.0

    def test_requires_normalized(self):
        with pytest.raises(DomainError):
            weighted_sup_error(builtin("id"),
                               OperatorParams(n=2, mode="literal"), PQPair(0.9, 0.8))


class TestKorovkinSweep:
    def test_errors_decay(self):
        records = korovkin_sweep(default_spec((10, 100)))
        assert all(r.err_e0 <= 1e-10 for r in records)
        assert records[-1].err_e1 < records[0].err_e1
        assert records[-1].err_e2 < records[0].err_e2

    def test_single_n_matches_direct_call(self):
        spec = default_spec((25,))
        [record] = korovkin_sweep(spec)
        p, q, b = spec.realize(25)
        params = OperatorParams(n=25, b_n=b)
        direct = weighted_sup_error(builtin("id"), params, PQPair(p, q))
        assert record.err_e1 == direct

    def test_extras_and_csv_layout(self):
        spec = default_spec((10, 50))
        extra = [builtin("bump:2")]
        records = korovkin_sweep(spec, extra=extra)
        assert "bump:2" in records[0].err_extra
        header = sweep_csv_header([h.name for h in extra])
        assert header == ["n", "p_n", "q_n", "b_n", "err_e0", "err_e1", "err_e2",
                          "err_bump:2"]
        rows = sweep_csv_rows(records)
        assert len(rows) == 2 and len(rows[0]) == len(header)

    def test_invalid_spec_reports_rows(self):
        spec = SequenceSpec(n_list=(2, 3), p_table=(0.9, 0.9),
                            q_table=(0.95, 0.8), b_table=(1.0, 1.0))
        with pytest.raises(DomainError, match="n=2"):
            korovkin_sweep(spec)

    def test_weights_built_once_per_block(self, monkeypatch):
        # each weight block serves all five handles; at degree 200 a block
        # holds 40 rows, so the 257 grid points take 7 blocks, not 5 x 257
        calls = []
        weights = operators._weights_float

        def counted(degree, pq, x_norm, mode):
            calls.append(len(x_norm))
            return weights(degree, pq, x_norm, mode)

        monkeypatch.setattr(operators, "_weights_float", counted)
        korovkin_sweep(default_spec((200,)), extra=[builtin("absdev:1"), builtin("bump:2")])
        rows = operators.WEIGHT_BLOCK // 201
        assert sum(calls) == 257
        assert len(calls) <= math.ceil(257 / rows)

    def test_overflow_degree_raises(self):
        # the float weights overflow past degree ~1030 on the default sequence
        with pytest.raises(DomainError, match="degree n\\+m = 1100"):
            korovkin_sweep(default_spec((1100,)))

    def test_deterministic(self):
        spec = default_spec((10, 50))
        a = korovkin_sweep(spec)
        b = korovkin_sweep(spec)
        assert [r.__dict__ for r in a] == [r.__dict__ for r in b]


class TestVanishingSweep:
    def test_zero_function(self):
        zero = FunctionHandle(
            name="zero", evaluator=lambda x: np.zeros_like(np.asarray(x, float)),
            polynomial_coeffs=(0.0,), support_bound=1.0,
        )
        results = vanishing_sweep(default_spec((10, 50)), zero)
        assert all(err == 0.0 for _n, err in results)

    def test_bump_decays(self):
        results = vanishing_sweep(default_spec((10, 400)), builtin("bump:2"))
        assert results[-1][1] < results[0][1]

    def test_support_beyond_domain_reduces_to_plain_sup(self):
        spec = default_spec((10,))
        h = builtin("bump:50")  # support far beyond b_10 ~ 2.15
        [(_, err)] = vanishing_sweep(spec, h)
        p, q, b = spec.realize(10)
        params = OperatorParams(n=10, b_n=b)
        pq = PQPair(p, q)
        from pqkanto import apply_operator

        xs = np.linspace(0, b, 257)
        direct = max(
            abs(apply_operator(h, float(x), params, pq) - float(h.evaluator(float(x))))
            for x in xs
        )
        assert err == pytest.approx(direct, rel=1e-12)

    def test_requires_support_bound(self):
        with pytest.raises(DomainError):
            vanishing_sweep(default_spec((10,)), builtin("sin"))
