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
    pq_integer,
    sweep_rows,
)
from pqkanto import operators
from pqkanto.cli import main
from pqkanto.functions import FunctionHandle, const1, identity, square
from pqkanto.operators import operator_profile

P11 = PQPair(1, 1)


def korovkin_set(*extra):
    """The test set {1, t, t^2} of the weighted sweep, then any extras."""
    return [const1(), identity(), square(), *extra]


def one_n(n, p, q, b):
    """A spec of one index from explicit tables."""
    return SequenceSpec(n_list=(n,), p_table=(p,), q_table=(q,), b_table=(b,))


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

    def test_bracket_underflow_raises(self):
        # [900] = (0.3^900 - 0.2^900) / 0.1 underflows to 0 in floats
        spec = SequenceSpec(n_list=(400, 900), p_table=(0.3, 0.3), q_table=(0.2, 0.2),
                            b_table=(1.0, 1.0))
        with pytest.raises(DomainError, match=r"\[n\] underflows to 0 at n=900"):
            hypothesis_check(spec)

    def test_bn2_ratio_where_bn_squared_overflows(self):
        # b_n^2 is past the float range, b_n^2 / [n] ~ 7.5e304 is not
        spec = SequenceSpec(n_list=(3000,), p_table=(1.0,), q_table=(0.999999,),
                            b_table=(1.5e154,))
        [row] = hypothesis_check(spec)["rows"]
        bracket = float(pq_integer(3000, PQPair(1.0, 0.999999)))
        assert row["bn2_over_bracket"] == 1.5e154 * (1.5e154 / bracket) < math.inf


class TestWeightedSupError:
    def test_constant_vanishes(self):
        [row] = sweep_rows(one_n(7, 0.9, 0.8, 2.0), [builtin("const1")])
        assert row[4] <= 1e-12

    def test_identity_classical_example(self):
        # p = q = 1 is outside any sequence spec, so the grid error is taken
        # from the operator profile the sweeps contract
        xs = np.linspace(0.0, 1.0, 257)
        values = operator_profile(builtin("id"), OperatorParams(n=1), P11, xs)
        got = float(np.max(np.abs(values - xs) / (1.0 + xs * xs)))
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_square_finite(self):
        [row] = sweep_rows(one_n(5, 0.95, 0.9, 3.0), [builtin("square")])
        assert np.isfinite(row[4]) and row[4] >= 0.0


class TestKorovkinSweep:
    def test_errors_decay(self):
        rows = sweep_rows(default_spec((10, 100)), korovkin_set())
        assert all(r[4] <= 1e-10 for r in rows)
        assert rows[-1][5] < rows[0][5]
        assert rows[-1][6] < rows[0][6]

    def test_single_n_matches_direct_call(self):
        # a handle's column does not depend on the other handles of the sweep
        spec = default_spec((25,))
        [row] = sweep_rows(spec, korovkin_set())
        [direct] = sweep_rows(spec, [builtin("id")])
        assert row[5] == direct[4]

    def test_extras_and_csv_layout(self, tmp_path, monkeypatch):
        spec = default_spec((10, 50))
        extra = [builtin("bump:2")]
        monkeypatch.chdir(tmp_path)
        assert main(["converge", "--n-list", "10", "--grid", "5", "--extra", "bump:2",
                     "--out", "s.csv"]) == 0
        header = (tmp_path / "s.csv").read_text().splitlines()[0].split(",")
        assert header == ["n", "p_n", "q_n", "b_n", "err_e0", "err_e1", "err_e2",
                          "err_bump:2"]
        rows = sweep_rows(spec, korovkin_set(*extra))
        assert len(rows) == 2 and len(rows[0]) == len(header)

    @pytest.mark.parametrize("vanishing", [False, True])
    def test_sweeps_and_csv_equal_sweep_rows(self, tmp_path, monkeypatch, vanishing):
        # the converge CSV holds the rows of the one sweep loop, bit for bit
        spec = default_spec((10, 50))
        kw = {"m": 1, "alpha": 0.5, "beta": 1.0, "grid_points": 33}
        argv = ["converge", "--n-list", "10,50", "--m", "1", "--alpha", "1/2",
                "--beta", "1", "--grid", "33", "--out", "s.csv"]
        if vanishing:
            rows = sweep_rows(spec, [builtin("bump:2")], weighted=False, **kw)
            argv += ["--vanishing", "bump:2"]
        else:
            rows = sweep_rows(spec, korovkin_set(builtin("absdev:1"), builtin("sin")), **kw)
            argv += ["--extra", "absdev:1", "--extra", "sin"]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert [[float(v).hex() for v in line.split(",")] for line in lines] == \
            [[float(v).hex() for v in row] for row in rows]

    def test_invalid_spec_reports_rows(self):
        spec = SequenceSpec(n_list=(2, 3), p_table=(0.9, 0.9),
                            q_table=(0.95, 0.8), b_table=(1.0, 1.0))
        with pytest.raises(DomainError, match="n=2"):
            sweep_rows(spec, korovkin_set())

    def test_one_point_grid_rejected(self, tmp_path, monkeypatch, capsys):
        # --grid 1 reaches the sweep's own check
        with pytest.raises(DomainError, match="grid_points must be at least 2"):
            sweep_rows(default_spec((10,)), korovkin_set(), grid_points=1)
        monkeypatch.chdir(tmp_path)
        assert main(["converge", "--n-list", "10", "--grid", "1"]) == 2
        assert capsys.readouterr().err == "error: grid_points must be at least 2\n"

    def test_sup_error_past_float_range_raises(self, tmp_path, monkeypatch, capsys):
        # nodes stay near 1 at beta = 1e200, but t^2 overflows on [0, 1e200]:
        # an error line and no CSV, where the sweep wrote nan
        with pytest.raises(DomainError, match="sup error is not finite at n=10"):
            sweep_rows(one_n(10, 0.9, 0.8, 1e200), korovkin_set(), alpha=1.0, beta=1e200,
                       grid_points=9)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seq.json").write_text(
            '{"n_list": [10], "p": [0.9], "q": [0.8], "b": [1e200]}')
        argv = ["converge", "--seq-file", "seq.json", "--alpha", "1", "--beta", "1e200",
                "--grid", "9"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: sup error is not finite at n=10")
        assert [path.name for path in tmp_path.iterdir()] == ["seq.json"]

    def test_weights_built_once_per_block(self, monkeypatch):
        # each weight block serves all five handles; at degree 200 a block
        # holds 40 rows, so the 257 grid points take 7 blocks, not 5 x 257;
        # the x-free factors are built once per `_weight_blocks` call and
        # shared by its blocks
        calls, factors, built, block_calls = [], [], [], []
        weights, build, blocks = (operators._weights_float, operators._weight_factors,
                                  operators._weight_blocks)

        def counted(x_norm, *args):
            calls.append(len(x_norm))
            factors.append(args)
            return weights(x_norm, *args)

        def counted_build(*args):
            built.append(args)
            return build(*args)

        def counted_blocks(*args):
            block_calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(operators, "_weights_float", counted)
        monkeypatch.setattr(operators, "_weight_factors", counted_build)
        monkeypatch.setattr(operators, "_weight_blocks", counted_blocks)
        sweep_rows(default_spec((200,)), korovkin_set(builtin("absdev:1"), builtin("bump:2")))
        rows = operators.WEIGHT_BLOCK // 201
        assert sum(calls) == 257
        assert len(calls) <= math.ceil(257 / rows)
        assert len(built) == len(block_calls) == 1
        assert all(all(a is b for a, b in zip(f, factors[0])) for f in factors)

    def test_overflow_degree_raises(self):
        # the float weights overflow past degree ~1030 on the default sequence
        with pytest.raises(DomainError, match="degree n\\+m = 1100"):
            sweep_rows(default_spec((1100,)), korovkin_set())

    def test_deterministic(self):
        spec = default_spec((10, 50))
        assert sweep_rows(spec, korovkin_set()) == sweep_rows(spec, korovkin_set())


class TestVanishingSweep:
    def test_zero_function(self):
        zero = FunctionHandle(
            name="zero", evaluator=lambda x: np.zeros_like(np.asarray(x, float)),
            polynomial_coeffs=(0.0,), support_bound=1.0,
        )
        rows = sweep_rows(default_spec((10, 50)), [zero], weighted=False)
        assert all(row[4] == 0.0 for row in rows)

    def test_bump_decays(self):
        rows = sweep_rows(default_spec((10, 400)), [builtin("bump:2")], weighted=False)
        assert rows[-1][4] < rows[0][4]

    def test_support_beyond_domain_reduces_to_plain_sup(self):
        spec = default_spec((10,))
        h = builtin("bump:50")  # support far beyond b_10 ~ 2.15
        [row] = sweep_rows(spec, [h], weighted=False)
        p, q, b = spec.realize(10)
        params = OperatorParams(n=10, b_n=b)
        pq = PQPair(p, q)
        from pqkanto import apply_operator

        xs = np.linspace(0, b, 257)
        direct = max(
            abs(apply_operator(h, float(x), params, pq) - float(h.evaluator(float(x))))
            for x in xs
        )
        assert row[4] == pytest.approx(direct, rel=1e-12)

    def test_requires_support_bound(self):
        with pytest.raises(DomainError):
            sweep_rows(default_spec((10,)), [builtin("sin")], weighted=False)
