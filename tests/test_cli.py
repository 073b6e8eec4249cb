import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import pqkanto
from pqkanto import cli
from pqkanto.cli import main
from pqkanto.manifest import RunManifest


def run_cli(args, cwd, capsys=None):
    """Invoke the CLI in-process from a working directory."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


class TestEval:
    def test_mass_example(self, tmp_path, capsys):
        code = run_cli(
            ["eval", "--fn", "const1", "--x", "0.3", "--n", "5", "--m", "1",
             "--alpha", "0", "--beta", "0", "--bn", "1", "--p", "0.9",
             "--q", "0.8", "--mode", "normalized"],
            tmp_path,
        )
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-12)

    def test_identity_example(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "id", "--x", "1", "--n", "1",
                        "--p", "1", "--q", "1"], tmp_path)
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.75)

    def test_domain_error_exit_2(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "id", "--x", "2", "--bn", "1",
                        "--n", "1"], tmp_path)
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_convergence_error_exit_3(self, tmp_path, capsys):
        # a tolerance below float64 resolution: no path can certify it, and
        # the truncated sum would need ~4.6e8 terms, so it fails at once
        code = run_cli(["eval", "--fn", "sin", "--x", "0.5", "--n", "2",
                        "--p", "1", "--q", "0.9999999", "--tol", "1e-20"], tmp_path)
        assert code == 3
        assert "convergence" in capsys.readouterr().err

    def test_sin_as_ratio_tends_to_one(self, tmp_path, capsys):
        # q/p = 1 - 1e-7 needs ~2.8e8 series terms, past the term cap; the
        # Euler-Maclaurin path must match a 30-digit operator built from
        # the definition (sin integrated by the monomial rule, term by term)
        code = run_cli(["eval", "--fn", "sin", "--x", "0.5", "--n", "2",
                        "--p", "1", "--q", "0.9999999"], tmp_path)
        assert code == 0
        got = float(capsys.readouterr().out)
        with mp.workdps(30):
            p, q, s, deg = mp.mpf(1), mp.mpf(0.9999999), mp.mpf(0.5), 2
            r = q / p

            def bracket(k, u=p, v=q):
                return (u ** k - v ** k) / (u - v)

            def factorial(k):
                return mp.fprod(bracket(i, 1, r) for i in range(1, k + 1))

            scale = 1 / bracket(deg + 1)
            want = mp.mpf(0)
            for k in range(deg + 1):
                weight = factorial(deg) / (factorial(k) * factorial(deg - k)) * s ** k
                for j in range(deg - k):
                    weight *= 1 - r ** j * s
                a, b = bracket(k) * scale, (bracket(k + 1) - bracket(k)) * scale
                inner = mp.fsum(mp.sin(a + m * mp.pi / 2) * b ** m / mp.factorial(m)
                                / bracket(m + 1) for m in range(30))
                want += weight * inner
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_unknown_function_exit_2(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "mystery", "--x", "0.1", "--n", "2"],
                       tmp_path)
        assert code == 2

    def test_unit_and_extended_variants(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "square", "--x", "7", "--n", "3",
                        "--bn", "2", "--op", "extended"], tmp_path)
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(49.0)
        code = run_cli(["eval", "--fn", "id", "--x", "0", "--n", "2",
                        "--p", "1", "--q", "1", "--op", "unit"], tmp_path)
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(1 / 6)

    @pytest.mark.parametrize("argv, want", [
        (["--fn", "sin", "--n", "3", "--x", "0.4", "--p", "0.9", "--q", "0.8"],
         "0.52191070589795452"),
        (["--fn", "square", "--n", "7", "--m", "2", "--x", "0.9", "--p", "0.95",
          "--q", "0.85", "--mode", "literal"], "0.70114602029545514"),
        (["--fn", "absdev:1", "--n", "40", "--x", "0.3"], "0.69512195121951048"),
    ])
    def test_unit_variant_values_pinned(self, tmp_path, capsys, argv, want):
        # the unit operator's int parameters are stored as Fractions; the
        # printed values stay those of int parameters
        assert run_cli(["eval", "--op", "unit"] + argv, tmp_path) == 0
        assert capsys.readouterr().out.strip() == want

    def test_json_output_with_manifest(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "id", "--x", "0.5", "--n", "4",
                        "--p", "0.9", "--q", "0.8", "--json", "value.json"],
                       tmp_path)
        assert code == 0
        data = json.loads((tmp_path / "value.json").read_text())
        assert data["command"] == "eval"
        manifest = RunManifest.load(tmp_path / "value.json.manifest.json")
        assert manifest.command == "eval"
        assert manifest.outputs == ["value.json"]


class TestVerify:
    def test_float_report(self, tmp_path, capsys):
        code = run_cli(["verify", "--x", "0.5", "--n", "3", "--p", "1",
                        "--q", "1", "--out", "rep.json"], tmp_path)
        assert code == 0
        data = json.loads((tmp_path / "rep.json").read_text())
        for key in ("m0", "m1", "m2", "c1", "c2"):
            assert abs(data["residuals_float"][key]) <= 1e-12

    def test_exact_report_residuals_recorded(self, tmp_path):
        code = run_cli(["verify", "--x", "1/2", "--n", "2", "--p", "9/10",
                        "--q", "4/5", "--mode", "literal", "--exact",
                        "--out", "rep.json"], tmp_path)
        assert code == 0
        data = json.loads((tmp_path / "rep.json").read_text())
        assert data["residuals"]["m0"] == "3/40"
        assert data["residual_is_zero"]["m0"] is False

    def test_exact_size_cap_exit_2(self, tmp_path, capsys):
        code = run_cli(["verify", "--x", "0", "--n", "10", "--m", "3",
                        "--exact"], tmp_path)
        assert code == 2
        assert "n+m" in capsys.readouterr().err

    def test_nonzero_residuals_still_exit_0(self, tmp_path):
        code = run_cli(["verify", "--x", "0.5", "--n", "2", "--p", "0.9",
                        "--q", "0.8", "--out", "rep.json"], tmp_path)
        assert code == 0
        data = json.loads((tmp_path / "rep.json").read_text())
        assert abs(data["residuals_float"]["m1"]) > 1e-3


class TestBounds:
    def test_csv_columns_and_holds(self, tmp_path):
        code = run_cli(["bounds", "--fn", "absdev:5", "--n", "4", "--m", "1",
                        "--p", "0.95", "--q", "0.9", "--bn", "10",
                        "--grid", "7", "--out", "b.csv"], tmp_path)
        assert code == 0
        lines = (tmp_path / "b.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "x" and "holds_modulus" in header
        holds_col = header.index("holds_modulus")
        assert all(row.split(",")[holds_col] == "true" for row in lines[1:])

    def test_constant_observed_zero(self, tmp_path):
        code = run_cli(["bounds", "--fn", "const1", "--n", "3", "--p", "0.9",
                        "--q", "0.8", "--grid", "5", "--out", "c.csv"], tmp_path)
        assert code == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()
        obs_col = lines[0].split(",").index("observed_error")
        assert all(abs(float(r.split(",")[obs_col])) <= 1e-12 for r in lines[1:])

    def test_lip_bound_column_populated(self, tmp_path):
        code = run_cli(["bounds", "--fn", "lip:2:0.5", "--n", "5", "--p", "0.9",
                        "--q", "0.8", "--bn", "4", "--grid", "5",
                        "--out", "l.csv"], tmp_path)
        assert code == 0
        lines = (tmp_path / "l.csv").read_text().splitlines()
        col = lines[0].split(",").index("lipschitz_bound")
        assert all(float(r.split(",")[col]) > 0 for r in lines[1:])


class TestConverge:
    def test_sweep_csv_and_decay(self, tmp_path):
        code = run_cli(["converge", "--n-list", "10,50", "--out", "s.csv"],
                       tmp_path)
        assert code == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "n,p_n,q_n,b_n,err_e0,err_e1,err_e2"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(last[5]) < float(first[5])

    def test_overflow_degree_exit_2(self, tmp_path, capsys):
        code = run_cli(["converge", "--n-list", "1100", "--out", "s.csv"], tmp_path)
        assert code == 2
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_check_only(self, tmp_path):
        code = run_cli(["converge", "--check-only", "--n-list", "10,50",
                        "--out", "hc.json"], tmp_path)
        assert code == 0
        data = json.loads((tmp_path / "hc.json").read_text())
        assert data["all_valid"] is True

    def test_seq_file_tables(self, tmp_path):
        seq = {"n_list": [3, 5], "p": [0.9, 0.95], "q": [0.8, 0.9],
               "b": [1.0, 1.2]}
        (tmp_path / "seq.json").write_text(json.dumps(seq))
        code = run_cli(["converge", "--seq-file", "seq.json", "--out", "t.csv"],
                       tmp_path)
        assert code == 0
        assert (tmp_path / "t.csv").exists()

    def test_seq_file_invalid_row_exit_2(self, tmp_path, capsys):
        seq = {"n_list": [3, 5], "p": [0.9, 0.95], "q": [0.95, 0.9],
               "b": [1.0, 1.2]}
        (tmp_path / "bad.json").write_text(json.dumps(seq))
        code = run_cli(["converge", "--seq-file", "bad.json", "--out", "t.csv"],
                       tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "n=3" in err

    def test_vanishing_mode(self, tmp_path):
        code = run_cli(["converge", "--vanishing", "bump:2", "--n-list",
                        "10,50", "--out", "v.csv"], tmp_path)
        assert code == 0
        lines = (tmp_path / "v.csv").read_text().splitlines()
        assert lines[0] == "n,p_n,q_n,b_n,err_sup"


class TestReplay:
    def test_converge_replay_byte_identical(self, tmp_path):
        run_dir = tmp_path / "orig"
        run_dir.mkdir()
        assert run_cli(["converge", "--n-list", "10,50", "--out", "s.csv"],
                       run_dir) == 0
        assert run_cli(["replay", str(run_dir / "s.csv.manifest.json"),
                        "--outdir", str(tmp_path / "redo")], tmp_path) == 0
        assert (run_dir / "s.csv").read_bytes() == \
            (tmp_path / "redo" / "s.csv").read_bytes()
        assert (run_dir / "s.csv.manifest.json").read_bytes() == \
            (tmp_path / "redo" / "s.csv.manifest.json").read_bytes()

    def test_verify_replay_byte_identical(self, tmp_path):
        run_dir = tmp_path / "orig"
        run_dir.mkdir()
        assert run_cli(["verify", "--x", "1/2", "--n", "2", "--p", "9/10",
                        "--q", "4/5", "--exact", "--out", "rep.json"],
                       run_dir) == 0
        assert run_cli(["replay", str(run_dir / "rep.json.manifest.json"),
                        "--outdir", str(tmp_path / "redo")], tmp_path) == 0
        assert (run_dir / "rep.json").read_bytes() == \
            (tmp_path / "redo" / "rep.json").read_bytes()


class TestConfig:
    def test_config_mirrors_flags(self, tmp_path, capsys):
        cfg = {"fn": "id", "x": "1", "n": 1, "p": "1", "q": "1"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = run_cli(["eval", "--config", "cfg.json"], tmp_path)
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.75)

    def test_explicit_flag_overrides_config(self, tmp_path, capsys):
        cfg = {"fn": "id", "x": "1", "n": 1, "p": "1", "q": "1"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = run_cli(["eval", "--config", "cfg.json", "--x", "0"], tmp_path)
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.25)

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"fn": "id", "nope": 1}))
        code = run_cli(["eval", "--config", "cfg.json"], tmp_path)
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("command", "bounds"), ("config", "c.json")])
    def test_config_cannot_switch_command_exit_2(self, tmp_path, capsys, key, value):
        # a config may not name the command or another config: exit 2,
        # not a traceback from the other command's runner
        cfg = {key: value, "x": "0.5", "n": 3}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = run_cli(["eval", "--fn", "id", "--config", "cfg.json"], tmp_path)
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_missing_required_flag_exit_2(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "id", "--x", "0.5"], tmp_path)
        assert code == 2
        assert "--n" in capsys.readouterr().err


def subprocess_env() -> dict:
    # An absolute path to the imported package: a relative PYTHONPATH such as
    # `src` does not resolve from tmp_path.
    env = dict(os.environ)
    pkg_root = str(Path(pqkanto.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pqkanto.cli", "eval", "--fn", "id", "--x", "1",
         "--n", "1", "--p", "1", "--q", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(0.75)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--bn", "1e200", "--x", "1e200"],
    ["bounds", "--fn", "sin", "--n", "2", "--bn", "1e200"],
])
def test_overflowing_integrals_one_error_line(tmp_path, argv):
    # finite weights at degree 2, inner integrals past the float range:
    # one error line that does not blame the weights, and no numpy warnings
    proc = subprocess.run([sys.executable, "-m", "pqkanto.cli"] + argv,
                          capture_output=True, text=True, cwd=tmp_path,
                          env=subprocess_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "~1030" not in proc.stderr


def test_cli_import_leaves_out_scipy(tmp_path):
    # scipy serves only the test oracles; the CLI's cold start must not pay
    # for importing it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pqkanto.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestParser:
    def test_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._main_parser.cache_clear()
        value = ["eval", "--fn", "sin", "--x", "0.7", "--n", "7", "--m", "1",
                 "--alpha", "1/2", "--beta", "1", "--bn", "2", "--p", "0.9",
                 "--q", "0.8"]
        sweep = ["converge", "--n-list", "5", "--grid", "5"]
        assert run_cli(value, tmp_path) == 0
        assert run_cli(sweep + ["--extra", "sin", "--out", "a.csv"], tmp_path) == 0
        assert run_cli(sweep + ["--out", "b.csv"], tmp_path) == 0
        assert run_cli(value, tmp_path) == 0
        assert built == [1]
        # the values printed before the parser was shared
        assert capsys.readouterr().out == ("0.90943508802305617\n"
                                           "wrote a.csv\nwrote b.csv\n"
                                           "0.90943508802305617\n")
        # an --extra of one call does not leak into the next
        a, b = ((tmp_path / name).read_text().splitlines()[0] for name in ("a.csv", "b.csv"))
        assert "sin" in a and "sin" not in b

    @pytest.mark.parametrize("argv, want", [
        (["eval", "--fn", "id", "--x", "1", "--n", "2", "--p", "9/10", "--q", "0.8"],
         [("fn", "id"), ("x", "1"), ("op", "scaled"), ("json", None), ("n", 2),
          ("m", 0), ("alpha", "0"), ("beta", "0"), ("bn", "1"), ("p", "9/10"),
          ("q", "0.8"), ("mode", "normalized"), ("tol", 1e-12)]),
        (["verify", "--x", "1/2", "--n", "2", "--exact", "--alpha", "1",
          "--beta", "2"],
         [("x", "1/2"), ("exact", True), ("out", "moment_report.json"), ("n", 2),
          ("m", 0), ("alpha", "1"), ("beta", "2"), ("bn", "1"), ("p", "1"),
          ("q", "1"), ("mode", "normalized"), ("tol", 1e-12)]),
        (["bounds", "--fn", "sin", "--n", "3", "--grid", "5", "--mode", "literal"],
         [("fn", "sin"), ("grid", 5), ("out", "bounds.csv"), ("n", 3), ("m", 0),
          ("alpha", "0"), ("beta", "0"), ("bn", "1"), ("p", "1"), ("q", "1"),
          ("mode", "literal"), ("tol", 1e-12)]),
    ])
    def test_params_follow_flags(self, argv, want, tmp_path, monkeypatch):
        seen = []
        runner = {"eval": "run_eval", "verify": "run_verify", "bounds": "run_bounds"}
        result = 0.0 if argv[0] == "eval" else ["x"]
        monkeypatch.setattr(cli, runner[argv[0]],
                            lambda params, base: seen.append(params) or result)
        assert run_cli(argv, tmp_path) == 0
        assert list(seen[0].items()) == want

    def test_config_values_keep_their_coercions(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_verify",
                            lambda params, base: seen.append(params) or ["x"])
        cfg = {"x": 0.25, "n": 3, "exact": 1, "p": 1, "alpha": 0.5, "beta": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(["verify", "--config", "cfg.json"], tmp_path) == 0
        assert list(seen[0].items()) == [
            ("x", "0.25"), ("exact", True), ("out", "moment_report.json"),
            ("n", 3), ("m", 0), ("alpha", "0.5"), ("beta", "1"), ("bn", "1"),
            ("p", "1"), ("q", "1"), ("mode", "normalized"), ("tol", 1e-12)]
