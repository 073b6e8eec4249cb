import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

import pqkanto
from pqkanto import cli
from pqkanto.cli import main
from pqkanto.manifest import RunManifest, write_text


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

    def test_non_finite_function_parameter_exit_2(self, tmp_path, capsys):
        code = run_cli(["eval", "--fn", "lip:nan:0.5", "--x", "0.5", "--n", "3",
                        "--p", "0.9", "--q", "0.8"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: lip requires a finite a >= 0, got a=nan\n"

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
        path = tmp_path / "value.json.manifest.json"
        manifest = RunManifest(**json.loads(path.read_text()))
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

    GOLDEN_CASES = {
        "degree-12": ["--n", "12", "--alpha", "1/2", "--beta", "1", "--bn", "2",
                      "--p", "9/10", "--q", "4/5", "--x", "4/7"],
        "classical-degree-7": ["--n", "6", "--m", "1", "--alpha", "1/2", "--beta", "1",
                               "--bn", "2", "--p", "1", "--q", "1", "--x", "10/7"],
        "defect-n-2": ["--n", "2", "--p", "9/10", "--q", "4/5", "--x", "1/2"],
    }
    # SHA-256 of (report, manifest) bytes; the manifest records __version__
    GOLDEN_DIGESTS = {
        ("normalized", "degree-12"): (
            "c9f4adbe774a43d9ec8fbc2cec04916dab13afb059252b000d6cd765d8876939",
            "67008b873cf3f768bf5f4e2f1ad84e748e609ffd5613e604880d80f96d88a837"),
        ("normalized", "classical-degree-7"): (
            "b656e98b05ea6db100097dec4f0a670bf7cf928e228d8311c2d1335b05954ac1",
            "e3ca78ff41d71e2a85e9b832811af60dd8b45a5395e23498a9c92ca7c58302c5"),
        ("normalized", "defect-n-2"): (
            "0a33b70b3dcec0d930f23e0ed8a86590c73858d06bf644e836fa68e450bbea90",
            "be0c0de75da483d8203881744ca74ded778f53e949a484c0552622ed5a82df0c"),
        ("literal", "degree-12"): (
            "6428ebdab5a8ddfc586bbaa948b00df26d136bfdb9adf8cdaf94c4ff676b5470",
            "25000b2c4d0ad6b426d0ff47ad706fdad73145c1c54689a263e7747443f14c0c"),
        ("literal", "classical-degree-7"): (
            "75323a44bc005efec11acc474eea60ab4aaac4f993808cb0332bc916815167fa",
            "7bb6c133ec75eb645f7994a5a28cd7301a34f1eddcc28b61002094e8159056fb"),
        ("literal", "defect-n-2"): (
            "3a07ce6f734f940b493649f7d983786efca8c98a01de74f5bf46a060330d0b27",
            "e14ba838f49d52d2d2df601fca0c4f00362c16d9c2706fd0466e4bda74896b3d"),
    }

    @pytest.mark.parametrize("case", list(GOLDEN_CASES))
    @pytest.mark.parametrize("mode", ["normalized", "literal"])
    def test_exact_report_bytes_pinned(self, tmp_path, mode, case):
        # exact reports and manifests keep their bytes across rewrites of
        # the exact arithmetic
        argv = ["verify", "--exact", "--out", "rep.json", "--mode", mode]
        assert run_cli(argv + self.GOLDEN_CASES[case], tmp_path) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("rep.json", "rep.json.manifest.json"))
        assert got == self.GOLDEN_DIGESTS[mode, case]

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

    @pytest.mark.parametrize("text", [
        '{"n_list": ["a"]}', '{"n_list": 5}', '{"n_list": [10.5]}', '{"n_list": [true]}',
        '{"n_list": [3], "p": ["x"], "q": [0.8], "b": [1.0]}',
        '{"n_list": [3], "p": 0.9, "q": [0.8], "b": [1.0]}',
        '{"n_list": [3], "p": [0.9], "q": [0.8], "b": [Infinity]}',
        '{"n_list": [3], "rule": ["default"]}', '{not json', '5'],
        ids=["n-text", "n-scalar", "n-float", "n-bool", "table-text", "table-scalar",
             "table-inf", "rule-list", "not-json", "not-object"])
    def test_seq_file_malformed_exit_2(self, tmp_path, capsys, text):
        # integer n_list, numeric tables, a JSON object: else one error line
        (tmp_path / "bad.json").write_text(text)
        code = run_cli(["converge", "--seq-file", "bad.json", "--out", "t.csv"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "t.csv").exists()

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

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(command=["eval"]),
        lambda m: m.pop("command"),
        lambda m: m.update(command="eval", params={}),
        lambda m: m["params"].update(n="abc"),
    ], ids=["command-list", "no-command", "eval-without-params", "n-not-int"])
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, edit):
        # a manifest is outside input: one error line, no traceback, no output
        assert run_cli(["bounds", "--fn", "sin", "--n", "3", "--grid", "3",
                        "--out", "b.csv"], tmp_path) == 0
        path = tmp_path / "b.csv.manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli(["replay", str(path), "--outdir", str(tmp_path / "redo")],
                       tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "redo").exists()


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

    def test_explicit_repeatable_flag_overrides_config(self, tmp_path):
        # the config's --extra entries are dropped, not added to the flag's
        (tmp_path / "cfg.json").write_text(json.dumps({"extra": ["sin"]}))
        code = run_cli(["converge", "--n-list", "10", "--grid", "9", "--extra", "bump:2",
                        "--config", "cfg.json", "--out", "s.csv"], tmp_path)
        assert code == 0
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "n,p_n,q_n,b_n,err_e0,err_e1,err_e2,err_bump:2"

    def test_abbreviated_flag_exit_2(self, tmp_path, capsys):
        # flags are spelled in full: --ext is no --extra, so it cannot slip
        # past the explicit-flag override and add to the config's entries
        (tmp_path / "cfg.json").write_text(json.dumps({"extra": ["sin"]}))
        code = run_cli(["converge", "--n-list", "10", "--grid", "9", "--ext", "bump:2",
                        "--config", "cfg.json", "--out", "s.csv"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --ext bump:2\n"
        assert not (tmp_path / "s.csv").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"fn": "id", "nope": 1}))
        code = run_cli(["eval", "--config", "cfg.json"], tmp_path)
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cfg", [
        (["eval", "--fn", "id", "--x", "0.5"], {"n": "abc"}),
        (["eval", "--fn", "id", "--x", "0.5", "--n", "3"], {"op": "bogus"}),
        (["bounds", "--fn", "sin", "--n", "3"], {"grid": "many"}),
        (["converge", "--n-list", "10"], {"m": "one"}),
        (["converge"], {"n_list": [10.5]}),
        (["bounds", "--fn", "sin", "--n", "3"], {"grid": None}),
        (["eval", "--x", "0.5", "--n", "3"], {"fn": 5}),
        (["converge", "--n-list", "10"], {"extra": ["sin", 3]}),
        (["converge", "--n-list", "10"], {"vanishing": ["bump:2"]}),
        (["eval", "--fn", "sin", "--x", "0.5", "--n", "3"], {"json": True}),
        (["verify", "--x", "1/2", "--n", "3"], {"exact": "false"}),
        (["converge", "--n-list", "10"], {"check_only": "no"}),
        (["converge", "--n-list", "10"], {"extra": {"sin": 1}}),
    ])
    def test_config_value_the_flag_rejects_exit_2(self, tmp_path, capsys, argv, cfg):
        # a config value is checked as argparse checks the flag's text
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(argv + ["--config", "cfg.json"], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.manifest.json"))

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

    @pytest.mark.parametrize("argv, cfg, flags", [
        (["verify", "--x", "0.5", "--n", "3"], {"out": 5}, ["--out", "5"]),
        (["converge", "--n-list", "10", "--grid", "9"], {"extra": "sin"}, ["--extra", "sin"]),
        (["converge"], {"seq_file": 0}, ["--seq-file", "0"]),
        (["converge"], {"seq_file": 2}, ["--seq-file", "2"]),
    ])
    def test_config_value_behaves_as_its_flag(self, tmp_path, capsys, argv, cfg, flags):
        # exit code, stdout, stderr and every file written are the flag's own
        outcomes = []
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        for name, extra in (("config", ["--config", "../cfg.json"]), ("flags", flags)):
            (tmp_path / name).mkdir()
            code = run_cli(argv + extra, tmp_path / name)
            files = {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}
            outcomes.append((code, capsys.readouterr(), files))
        assert outcomes[0] == outcomes[1]

    def test_config_seq_file_descriptor_keeps_stderr_open(self, tmp_path):
        # {"seq_file": 2} names a file "2", not the process's stderr
        (tmp_path / "cfg.json").write_text(json.dumps({"seq_file": 2}))
        proc = subprocess.run([sys.executable, "-m", "pqkanto.cli", "converge",
                               "--config", "cfg.json"], capture_output=True, text=True,
                              cwd=tmp_path, env=subprocess_env())
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "No such file" in proc.stderr


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


@pytest.mark.parametrize("command", ["eval", "bounds"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_not_positive_finite_exit_2(tmp_path, capsys, command, tol):
    # a series path needs 0 < tol < inf: exit 2 with one error line
    argv = [command, "--fn", "sin", "--n", "3", "--p", "0.9", "--q", "0.8", "--tol", tol]
    argv += ["--x", "0.5"] if command == "eval" else ["--out", "b.csv"]
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rel_tol must be a positive finite number")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--beta", "1e200", "--x", "0.5"],
    ["bounds", "--fn", "sin", "--n", "2", "--beta", "1e200"],
])
def test_huge_beta_one_error_line(tmp_path, argv):
    # ([n+1] + beta)^2 in the closed forms is past the float range: a
    # domain error, not an OverflowError traceback
    proc = subprocess.run([sys.executable, "-m", "pqkanto.cli"] + argv,
                          capture_output=True, text=True, cwd=tmp_path,
                          env=subprocess_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "beta" in lines[0]


@pytest.mark.parametrize("argv, code, line", [
    # q/p below 2^-54, where 1 - q/p rounds to 1: the value at --q 1e-16
    pytest.param(["eval", "--fn", "sin", "--n", "3", "--x", "0.5", "--p", "1", "--q", "1e-17"],
                 0, "0.8414709848078965", id="series_terms_at_tiny_q_over_p"),
    pytest.param(["eval", "--fn", "id", "--n", "3", "--x", "0.5", "--p", "1", "--q", "1e-17"],
                 0, "1", id="weights_at_tiny_q_over_p"),
    pytest.param(["eval", "--fn", "square", "--n", "3", "--x", "0.5", "--p", "1e-300",
                  "--q", "1e-301"],
                 2, "error: [3] underflows to 0", id="bracket_underflows"),
    pytest.param(["bounds", "--fn", "sin", "--n", "3", "--p", "1e-300", "--q", "1e-301",
                  "--grid", "3"],
                 2, "error: [n+1] + beta underflows to 0", id="hull_bracket_underflows"),
    pytest.param(["verify", "--exact", "--n", "2", "--bn", "1e300", "--p", "1", "--q", "1e-300",
                  "--x", "5e+299"],
                 2, "error: an exact residual is past the float range",
                 id="exact_residual_no_float"),
    pytest.param(["verify", "--exact", "--n", "3", "--m", "7", "--alpha", "1", "--beta", "1",
                  "--bn", "1e10", "--p", "1", "--q", "1e-300", "--x", "0"],
                 2, "error: an exact value of the report has more than",
                 id="exact_value_past_str_digits"),
    pytest.param(["verify", "--x", "0", "--n", "14", "--m", "4", "--p", "0.022", "--q", "0.01",
                  "--bn", "1.4e+87", "--alpha", "6.07e+117", "--beta", "6.07e+117"],
                 2, "error: a closed-form moment or its residual is past the float range",
                 id="float_closed_form_overflows"),
    pytest.param(["verify", "--x", "0", "--n", "600", "--p", "0.5", "--q", "0.25",
                  "--bn", "1e-200"],
                 2, "error: a bracket product the closed forms divide by underflows to 0",
                 id="closed_form_divisor_underflows"),
    pytest.param(["bounds", "--fn", "sin", "--n", "600", "--p", "0.5", "--q", "0.25",
                  "--bn", "1e-200", "--grid", "3"],
                 2, "error: a bracket product the closed forms divide by underflows to 0",
                 id="peetre_divisor_underflows"),
    # lip's closed-form omega_2 with its kink past the hull, on a hull of
    # 3.6e-313 and of 3.5e-323, and square's closed forms on the latter
    pytest.param(["bounds", "--fn", "lip:1:0.5", "--n", "11", "--m", "8", "--p", "1e-17",
                  "--q", "1e-25", "--beta", "2.77e+06", "--grid", "5"],
                 0, "wrote bounds.csv", id="grid_step_subnormal"),
    pytest.param(["bounds", "--fn", "lip:1:0.5", "--n", "11", "--m", "8", "--p", "1e-17",
                  "--q", "1e-25", "--beta", "2.77e+06", "--bn", "1e-10", "--grid", "5"],
                 0, "wrote bounds.csv", id="kink_past_a_subnormal_hull"),
    pytest.param(["bounds", "--fn", "square", "--n", "11", "--m", "8", "--p", "1e-17",
                  "--q", "1e-25", "--beta", "2.77e+06", "--bn", "1e-10", "--grid", "5"],
                 0, "wrote bounds.csv", id="grid_step_underflows"),
    pytest.param(["eval", "--fn", "id", "--n", "1031", "--bn", "1e-300", "--p", "0.01",
                  "--q", "0.001", "--x", "5e-301"],
                 2, "error: operator value is not finite", id="node_scale_divides_by_zero"),
    # A = B = 0 at every node: the integral hook gives f(0) dt, so the
    # operator certifies its value (exit 3 before the hook) and bounds goes
    # on to its closed forms, past the float range at this beta
    pytest.param(["bounds", "--fn", "lip:0.5:0.5", "--n", "2", "--m", "7", "--beta", "1e200",
                  "--bn", "1e-300", "--p", "1", "--q", "0.99999999999", "--grid", "5"],
                 2, "error: ([n+1] + beta)^2 is past the float range",
                 id="gregory_divides_by_zero_b"),
    pytest.param(["eval", "--fn", "lip:0.5:0.5", "--n", "2", "--m", "7", "--beta", "1e200",
                  "--bn", "1e-300", "--p", "1", "--q", "0.99999999999", "--x", "0"],
                 0, "0.707106781186547", id="gregory_hook_at_zero_b"),
    # p tau below the float range in the node count above a kink: ln p + ln tau
    pytest.param(["eval", "--fn", "bump:2", "--n", "1", "--x", "0.5", "--p", "1e-200",
                  "--q", "1e-201"],
                 2, "error: operator value is not finite at degree n+m = 1: the inner",
                 id="pl_kink_log_underflows"),
    pytest.param(["bounds", "--fn", "lip:1:1", "--grid", "2", "--n", "200", "--beta", "1e-300",
                  "--bn", "0.22943242713595324", "--p", "2.077448193692951e-175",
                  "--q", "1.862823227115954e-175"],
                 2, "error: operator value is not finite at degree n+m = 200: the inner",
                 id="pl_kink_log_underflows_in_bounds"),
    # the direct sums' bracket error comes before their overflowing weights:
    # only bounds checks the weights first, as its operator values do
    pytest.param(["verify", "--x", "1.4908523301635342e-228", "--n", "653", "--m", "589",
                  "--bn", "4.660330214754911e-228", "--p", "6.302597450199011e-203",
                  "--q", "6.30196719045399e-203", "--mode", "literal"],
                 2, "error: [3] underflows to 0 at p=6.302597450199011e-203",
                 id="moment_bracket_before_weight_overflow"),
    pytest.param(["eval", "--fn", "lip:0.5:0.5", "--n", "1", "--x", "0.5", "--p", "1e-300",
                  "--q", "9.999e-301"],
                 2, "error: the integrand is not finite on the series nodes",
                 id="gregory_kink_log_underflows"),
    # the Peetre arguments of a whole x-grid divide by a bracket product
    # that underflows to 0: the same line as at one point
    pytest.param(["bounds", "--fn", "bump:1.1478215524434411e-184", "--grid", "9", "--n", "1",
                  "--bn", "5.7391077622172054e-185", "--p", "1.8217830736956749e-106",
                  "--q", "2.533186197491089e-108"],
                 2, "error: a bracket product the closed forms divide by underflows to 0",
                 id="peetre_grid_divisor_underflows"),
    pytest.param(["eval", "--fn", "square", "--x", "2e+300", "--op", "extended", "--n", "4",
                  "--bn", "1e+300"],
                 2, "error: square(x) is past the float range at x=2e+300",
                 id="extended_value_past_float_range"),
])
def test_domain_edge_ends_in_a_value_or_one_line(tmp_path, capsys, argv, code, line):
    # numpy warnings raise in this suite, so a pass also means none was printed
    assert run_cli(argv, tmp_path) == code
    out, err = capsys.readouterr()
    lines = (err if code else out).splitlines()
    assert len(lines) == 1 and lines[0].startswith(line), lines
    assert (out if code else err) == ""
    written = [path.read_text().lower() for path in tmp_path.iterdir()]
    assert not written if code else not any("nan" in t or "inf" in t for t in written)


def classical_oracle(fn, n, b_n, x):
    """`eval` at p = q = 1 in 30 digits from the flags' doubles: Bernstein
    weights at x/b_n times the integrals of f(A_k + B t) over [0, 1], with
    A_k = k b_n/(n+1) and B = b_n/(n+1), by mp.quad split at the kink."""
    with mp.workdps(30):
        b_n, x = mp.mpf(float(b_n)), mp.mpf(float(x))
        kink, gamma = (mp.mpf(float(v)) for v in fn.split(":")[1:]) if ":" in fn else (None, None)
        f = mp.sin if kink is None else (lambda u: abs(u - kink) ** gamma)
        s, big_b, total = x / b_n, b_n / (n + 1), mp.mpf(0)
        for k in range(n + 1):
            a = k * big_b
            cut = [(kink - a) / big_b] if kink is not None and 0 < (kink - a) / big_b < 1 else []
            inner = mp.quad(lambda t: f(a + big_b * t), [0] + cut + [1])
            total += mp.binomial(n, k) * s ** k * (1 - s) ** (n - k) * inner
        return total


def subnormal_sin_series_oracle(n, b_n, p, q):
    """`eval --fn sin --x 0` at q < p with subnormal nodes, where sin u = u
    to every digit: only k = 0 counts, B_0 times the integral of t, B_0 =
    b_n/[n+1] and the integral 1/(p + q)."""
    with mp.workdps(30):
        p, q = mp.mpf(p), mp.mpf(q)
        bracket = mp.fsum(p ** (n - j) * q ** j for j in range(n + 1))
        return mp.mpf(b_n) / bracket / (p + q)


#: The least subnormal double: a value on the subnormal grid rounds each
#: weight product to a multiple of it.
TINY = 2.0 ** -1074


@pytest.mark.parametrize("argv, want", [
    # lip's classical integral without the antiderivative difference, which
    # lost up to 2.8e-8 relative here, printed 0 at 1e-310 and exited 2 at
    # 5e-324 (B = 0)
    *(pytest.param(["--fn", "lip:1:0.5", "--bn", bn],
                   lambda bn=bn: classical_oracle("lip:1:0.5", 60, bn, "0"), id=f"lip_bn_{bn}")
      for bn in ("1e-2", "1e-4", "1e-6", "1e-8", "1e-310", "5e-324")),
    pytest.param(["--fn", "sin", "--bn", "5e-324"],
                 lambda: classical_oracle("sin", 60, "5e-324", "0"), id="sin_zero_b"),
    pytest.param(["--fn", "sin", "--bn", "1e-310", "--x", "1e-311"],
                 lambda: classical_oracle("sin", 60, "1e-310", "1e-311"), id="sin_subnormal_b"),
    # the parent of the hook exited 3 here: the Gauss-Legendre estimate
    # sent every node to the truncated sum
    pytest.param(["--fn", "sin", "--bn", "1e-320", "--q", "0.9999999"],
                 lambda: subnormal_sin_series_oracle(60, 1e-320, 1.0, 0.9999999),
                 id="sin_subnormal_series"),
])
def test_domain_edge_integral_hook_values(tmp_path, capsys, argv, want):
    # B = 0, subnormal B and tiny B against 30 digits: 1e-15 relative, or
    # two steps of the subnormal grid
    flags = dict(zip(argv[::2], argv[1::2]))
    flags = {"--n": "60", "--x": "0", "--p": "1", "--q": "1", **flags}
    assert run_cli(["eval"] + [v for kv in flags.items() for v in kv], tmp_path) == 0
    out, err = capsys.readouterr()
    value, want = float(out), want()
    assert err == "" and (value > 0 or want < TINY)
    assert abs(value - want) <= 1e-15 * abs(want) + 2 * TINY, (value, mp.nstr(want, 30))


def test_write_text_bytes_and_parents(tmp_path, capsys, monkeypatch):
    # the text's UTF-8 bytes, with no newline translation; a missing parent
    # is made, an existing one is not made again; a file in the parent's
    # place is one error line, exit 2
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir",
                        lambda self, *a, **k: made.append(self) or mkdir(self, *a, **k))
    text = "x,f(x)\r\n0.5,\u00e9\n"
    write_text(tmp_path / "new" / "deep" / "a.csv", text)
    assert tmp_path / "new" / "deep" in made
    del made[:]
    write_text(tmp_path / "new" / "b.csv", text)
    assert made == []
    for name in ("new/deep/a.csv", "new/b.csv"):
        assert (tmp_path / name).read_bytes() == b"x,f(x)\r\n0.5,\xc3\xa9\n"
    (tmp_path / "blocker").write_text("")
    for out, cause in (("blocker/v.json", "File exists"),
                       ("blocker/sub/v.json", "Not a directory")):
        assert run_cli(["verify", "--x", "0.5", "--n", "3", "--out", out], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and cause in err and err.count("\n") == 1


def test_check_only_ratio_past_float_range_exit_2(tmp_path, capsys):
    # b_n^2 / [1] = 1e600 has no float: one line and no file, not Infinity
    (tmp_path / "seq.json").write_text(json.dumps(
        {"n_list": [1, 5], "p": [1.0, 0.9], "q": [0.5, 0.8], "b": [1e300, 1e300]}))
    argv = ["converge", "--seq-file", "seq.json", "--check-only", "--out", "report.json"]
    assert run_cli(argv, tmp_path) == 2
    assert capsys.readouterr().err == "error: a value of the output is past the float range\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["seq.json"]


def test_weight_overflow_fails_fast(tmp_path, capsys):
    # the weights overflow at degree 2007; the slow series of lip is never summed
    argv = ["eval", "--fn", "lip:0.5:0.5", "--x", "1.608285690623881", "--op", "extended",
            "--n", "2000", "--m", "7", "--alpha", "16/12", "--beta", "36/15",
            "--bn", "4.292915229838249", "--p", "5.848372909184979e-43",
            "--q", "5.847974275191292e-43", "--mode", "literal"]
    start = time.process_time()
    assert run_cli(argv, tmp_path) == 2
    assert time.process_time() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: operator value is not finite at degree n+m = 2007: "
                                 "the float basis weights overflow past degree ~1030\n")


def test_cli_import_leaves_out_scipy(tmp_path):
    # scipy serves only the test oracles, and numpy.polynomial only the
    # Gauss-Legendre rule, built at its first use: the CLI's cold start must
    # not pay for importing either
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pqkanto.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
         " or m.startswith('numpy.polynomial')))"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: A value for every flag of the commands that take --config: as a config
#: holds it, and as the command line spells it.
FLAG_SAMPLES = {
    "fn": ("sin", ["--fn", "sin"]), "x": (0.25, ["--x", "0.25"]),
    "op": ("unit", ["--op", "unit"]), "json": ("v.json", ["--json", "v.json"]),
    "exact": (True, ["--exact"]), "out": (5, ["--out", "5"]),
    "grid": (5, ["--grid", "5"]), "n": (3, ["--n", "3"]), "m": (1, ["--m", "1"]),
    "alpha": ("1/2", ["--alpha", "1/2"]), "beta": (1, ["--beta", "1"]),
    "bn": (2, ["--bn", "2"]), "p": (0.9, ["--p", "0.9"]), "q": ("4/5", ["--q", "4/5"]),
    "mode": ("literal", ["--mode", "literal"]), "tol": (1e-10, ["--tol", "1e-10"]),
    "rule": ("default", ["--rule", "default"]),
    "n_list": ([10, 50], ["--n-list", "10,50"]),
    "seq_file": ("seq.json", ["--seq-file", "seq.json"]),
    "extra": (["sin", "bump:2"], ["--extra", "sin", "--extra", "bump:2"]),
    "check_only": (True, ["--check-only"]),
    "vanishing": ("bump:2", ["--vanishing", "bump:2"]),
}
#: Every dest of every subcommand that takes --config.
CONFIG_DESTS = [(command, key) for command in ("eval", "verify", "bounds", "converge")
                for key in vars(cli.build_parser().parse_args([command]))
                if key not in ("command", "config")]


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
        (["converge", "--n-list", "10,50", "--extra", "sin", "--alpha", "1/2",
          "--beta", "1", "--check-only"],
         [("extra", ["sin"]), ("m", 0), ("alpha", "1/2"), ("beta", "1"), ("grid", 257),
          ("check_only", True), ("vanishing", None), ("out", "hypothesis_report.json"),
          ("spec", {"n_list": [10, 50], "rule": "default"})]),
    ])
    def test_params_follow_flags(self, argv, want, tmp_path, monkeypatch):
        seen = []
        result = 0.0 if argv[0] == "eval" else ["x"]
        monkeypatch.setitem(cli._COMMANDS, argv[0],
                            (lambda params, base: seen.append(params) or result,
                             cli._COMMANDS[argv[0]][1]))
        assert run_cli(argv, tmp_path) == 0
        assert list(seen[0].items()) == want

    @pytest.mark.parametrize("command, key", CONFIG_DESTS)
    def test_config_records_the_params_of_its_flag(self, command, key, tmp_path,
                                                   monkeypatch):
        # a config holding a flag's value records the flag's params dict
        seen = []
        required = cli._COMMANDS[command][1]
        result = 0.0 if command == "eval" else ["x"]
        monkeypatch.setitem(cli._COMMANDS, command,
                            (lambda params, base: seen.append(params) or result, required))
        (tmp_path / "seq.json").write_text(json.dumps({"n_list": [3, 5]}))
        value, flags = FLAG_SAMPLES[key]
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        argv = [command] + [token for name in required if name != key
                            for token in FLAG_SAMPLES[name][1]]
        assert run_cli(argv + flags, tmp_path) == 0
        assert run_cli(argv + ["--config", "cfg.json"], tmp_path) == 0
        assert list(seen[0].items()) == list(seen[1].items())
        if key in seen[0]:  # rule, n_list and seq_file are folded into `spec`
            assert seen[0][key] != vars(cli.build_parser().parse_args([command]))[key]

    @pytest.mark.parametrize("argv, err", [
        (["eval", "--n", "abc"], "error: argument --n: invalid int value: 'abc'\n"),
        (["bounds", "--mode", "loose"], "error: argument --mode: invalid choice: 'loose' "
                                        "(choose from 'normalized', 'literal')\n"),
        (["verify", "--x", "1", "--bogus"], "error: unrecognized arguments: --bogus\n"),
        ([], "error: the following arguments are required: command\n"),
    ])
    def test_usage_error_is_one_line(self, argv, err, tmp_path, capsys):
        assert run_cli(argv, tmp_path) == 2
        assert capsys.readouterr() == ("", err)

    def test_config_values_keep_their_coercions(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "verify",
                            (lambda params, base: seen.append(params) or ["x"],
                             cli._COMMANDS["verify"][1]))
        cfg = {"x": 0.25, "n": 3, "exact": 1, "p": 1, "alpha": 0.5, "beta": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(["verify", "--config", "cfg.json"], tmp_path) == 0
        assert list(seen[0].items()) == [
            ("x", "0.25"), ("exact", True), ("out", "moment_report.json"),
            ("n", 3), ("m", 0), ("alpha", "0.5"), ("beta", "1"), ("bn", "1"),
            ("p", "1"), ("q", "1"), ("mode", "normalized"), ("tol", 1e-12)]
