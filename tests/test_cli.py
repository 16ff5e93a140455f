import csv
import json

import numpy as np
import pytest

from gsreg import data as gdata
from gsreg import io as gio
from gsreg.cli import ExperimentPlan, _hash, main
from gsreg.data import make_instance


def _gen_args(out, **over):
    args = ["gen", "--p", "48", "--m", "8", "--r-bar", "2", "--betas", "4",
            "--signals", "i", "--reps", "2", "--alpha", "1.0",
            "--theta1", "0.05", "--theta2", "0.05", "--out", str(out)]
    for key, val in over.items():
        args += [f"--{key}", str(val)]
    return args


class TestPlan:
    def test_cells_are_deterministic(self):
        plan = ExperimentPlan(signals=("i", "ii"), betas=(4, 8), reps=2, seed=100)
        cells = list(plan.cells())
        assert cells == list(plan.cells())
        assert len(cells) == 8
        seeds = [c[3] for c in cells]
        assert len(set(seeds)) == 8  # distinct per cell

    def test_default_plan_hash_is_pinned(self):
        assert _hash(ExperimentPlan().to_dict()) == "bceb95321aba"


class TestGen:
    def test_writes_instances_and_plan(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(_gen_args(out)) == 0
        dirs = [d for d in out.iterdir() if d.is_dir()]
        assert len(dirs) == 2  # one signal x one beta x two reps
        assert (out / "plan.json").exists()
        inst = gio.load_instance(dirs[0])
        assert inst.A.shape == (12, 48)  # n = floor(48/4)

    def test_config_flag_exits_2(self, tmp_path, capsys):
        # gen solves nothing, so it takes no solver config
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(_gen_args(tmp_path / "gen", config=cfg)) == 2
        assert not (tmp_path / "gen").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(_gen_args(out1))
        main(_gen_args(out2))
        for d1 in sorted(p for p in out1.iterdir() if p.is_dir()):
            d2 = out2 / d1.name
            assert (d1 / "A.gsrm").read_bytes() == (d2 / "A.gsrm").read_bytes()
            assert (d1 / "b.f64").read_bytes() == (d2 / "b.f64").read_bytes()


class TestSolve:
    def _instance_dir(self, tmp_path):
        inst = make_instance(design="I", signal="iii", n=48, p=96, m=12, r_bar=3,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=41)
        return gio.save_instance(tmp_path / "inst", inst)

    def test_success_and_artifacts(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        code = main(["solve", str(d), "--out", str(tmp_path / "run")])
        assert code == 0
        run_dir = tmp_path / "run"
        assert (run_dir / "traces.jsonl").exists()
        assert (run_dir / "x_out.f64").exists()
        with open(run_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["stop_reason"] in ("equilibrium", "loss")
        assert rows[0]["exact_support"] == "True"
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["converged"] == "True" or out["converged"] is True

    def test_traces_carry_the_product_counts(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            stages = [json.loads(line) for line in fh]
        # groups of 8 columns and p/8 = 12: every stage runs on all groups, so
        # every product is with all of A: A^T d and A s per Newton step, A s,
        # A^T xi and A x per outer iteration, one A^T xi at the start, one more
        # for a warm start, and r = Ax - b
        for t in stages:
            s, warm = t["inner"], t["k"] > 1
            assert s["sieve_rounds"] == 0
            assert s["dense_products"] + s["working_set_products"] == (
                2 * s["sncg_iters"] + 3 * s["outer_iters"] + 2 + warm)

    def test_rows_carry_the_sncg_exit_counts(self, tmp_path, capsys):
        # summary.csv and bench.csv sum each stage's SolveStats over the run
        d = self._instance_dir(tmp_path)
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            inner = [json.loads(line)["inner"] for line in fh]
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        for key in ("sncg_unmet", "sncg_early", "sncg_decrement"):
            assert int(row[key]) == sum(s[key] for s in inner)
        assert int(row["sncg_early"]) > 0 and int(row["sncg_decrement"]) > 0

        out = tmp_path / "bench"
        assert main(_bench_args(out, "--mode", "both", "--reps", "1")) == 0
        bench = _bench_rows(out)[0]
        inst = ExperimentPlan(p=48, m=8, r_bar=2, betas=(4,), alpha=1.0, theta1=0.0,
                              theta2=0.0, reps=1).instance("i", 4, 0)
        # this cell's GEP-MSCRA run interpolates, so solve exits 1 but writes its summary
        assert main(["solve", str(gio.save_instance(tmp_path / "cell", inst)),
                     "--out", str(tmp_path / "cell_run")]) == 1
        with open(tmp_path / "cell_run" / "summary.csv") as fh:
            cell = next(csv.DictReader(fh))
        assert (bench["gep_sncg_unmet"], bench["gep_sncg_early"], bench["gep_sncg_decrement"]) == (
            cell["sncg_unmet"], cell["sncg_early"], cell["sncg_decrement"])
        assert int(bench["stage1_sncg_early"]) > 0 and bench["stage1_sncg_unmet"] != ""

    def test_inner_failures_exit_1_with_reason(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alm": {"max_outer": 1}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("not converged:") and "stage ALM solves hit max_outer" in err[0]
        assert "line search" not in err[0]
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["inner_failures"]) > 0
        assert row["converged"] == "False"

    def test_line_search_stall_exits_1_with_reason(self, tmp_path, capsys, monkeypatch):
        # a line search that refuses its one trial step ends the SNCG call as
        # a counted stall; the run writes its results and reports the stalls
        from gsreg import wl21

        inst = make_instance("I", "i", 32, 64, 8, 2, 2.0, 0.1, 0.1, 1)
        d = gio.save_instance(tmp_path / "inst", inst)
        monkeypatch.setattr(wl21, "_MAX_BACKTRACKS", 0)
        code = main(["solve", str(d), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("not converged:") and "stalled SNCG calls" in err[0]
        assert "stopped after two line searches in a row that moved nothing" in err[0]
        assert "max_outer" not in err[0]
        assert (tmp_path / "run" / "traces.jsonl").exists()
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["converged"] == "False"
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            inner = [json.loads(line)["inner"] for line in fh]
        assert sum(s["sncg_stalls"] for s in inner) > 0
        # two refused line searches in a row end the stalled solve early
        # (it took all 200 outer iterations when it could not)
        assert any(not s["converged"] and s["outer_iters"] < wl21.AlmConfig().max_outer
                   for s in inner)
        assert all(s["stop_cause"] == ("converged" if s["converged"] else "line_search")
                   for s in inner)

    def test_nested_alm_configs_reach_the_solver(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alm": {"max_outer": 5, "sncg_max_iter": 1}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code in (0, 1)
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            inner = [json.loads(line)["inner"] for line in fh]
        # one Newton step per SNCG call falls short of its target somewhere
        assert any(s["sncg_unmet"] > 0 for s in inner)
        assert all(s["outer_iters"] <= 5 for s in inner)

    def test_config_hash_covers_the_settings_that_ran(self, tmp_path, capsys):
        # each pair runs the same settings, so it hashes the same: the
        # defaults are written out, and nu_factor is unused once nu is set
        d = self._instance_dir(tmp_path)
        pairs = [[{}, {"max_stages": 30, "nu_factor": 0.1}],
                 [{"nu": 5.0}, {"nu": 5.0, "nu_factor": 0.2}]]
        hashes = []
        for k, config in enumerate(config for pair in pairs for config in pair):
            cfg = tmp_path / f"cfg{k}.json"
            cfg.write_text(json.dumps(config))
            run = tmp_path / f"run{k}"
            assert main(["solve", str(d), "--config", str(cfg), "--out", str(run)]) == 0
            with open(run / "summary.csv") as fh:
                row = next(csv.DictReader(fh))
            resolved = json.loads((run / "config.json").read_text())
            assert resolved["max_stages"] == 30 and resolved["alm"]["sncg_max_iter"] == 50
            assert "nu_factor" not in resolved
            assert resolved["nu"] == pytest.approx(float(row["nu"]), rel=1e-15)
            assert resolved["nu"] == config.get("nu", resolved["nu"])
            hashes.append(row["config_hash"])
        assert hashes[0] == hashes[1] and len(hashes[0]) == 12
        assert hashes[2] == hashes[3] != hashes[0]

    @pytest.mark.parametrize("config, message", [
        ({"max_stages": "x"}, "'max_stages' must be int"),
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"alm": {"bogus": 1}}, "unknown config key 'alm.bogus'"),
        ({"alm": {"abcd": {"max_iter": 1}}}, "unknown config key 'alm.abcd'"),
        ({"alm": {"sncg": {"max_iter": 1}}}, "unknown config key 'alm.sncg'"),
        ({"alm": {"sigma0": 2.0}}, "unknown config key 'alm.sigma0'"),
        ({"static_rho": 5.0}, "unknown config key 'static_rho'"),
        ({"w0": [0.0]}, "unknown config key 'w0'"),
        ({"alm": {"tol": -1}}, "eps_loss, tol_decay and tol_floor"),
        ({"max_stages": 0}, "max_stages must be positive, got 0"),
        ({"tol_floor": -1}, "tol_floor must be positive, got -1"),
        ({"rho_cap_numerator": 1}, "unknown config key 'rho_cap_numerator'"),
        ({"nu_factor": 0}, "nu_factor must be positive and finite, got 0"),
        ({"nu_factor": -0.5}, "nu_factor must be positive and finite, got -0.5"),
        ({"alm": {"sigma_max": 0}}, "sigma_max must be finite and at least 1, got 0"),
        # JSON reads 1e400 as inf
        ({"phi": {"family": "mcp", "a": 1e400}}, "mcp requires a finite a > 0, got inf"),
        ({"nu": 1e400}, "nu must be None or positive and finite, got inf"),
        ({"eps_loss": -0.5}, "eps_loss must be positive and finite, got -0.5"),
        ({"eps_loss": 1e400}, "eps_loss must be positive and finite, got inf"),
        ({"eps_gap": -1}, "eps_gap must be nonnegative and finite, got -1"),
        ({"eps_gap": float("nan")}, "eps_gap must be nonnegative and finite, got nan"),
        ({"tol_floor": 1e400}, "tol_floor must be finite, got inf"),
    ], ids=["bad_type", "unknown_key", "unknown_nested_key", "alm_abcd", "alm_sncg",
            "alm_sigma0", "static_rho", "w0", "alm_tol",
            "max_stages_zero", "tol_floor_negative", "rho_cap_numerator",
            "nu_factor_zero", "nu_factor_negative", "sigma_max_zero", "mcp_a_inf", "nu_inf",
            "eps_loss_negative", "eps_loss_inf", "eps_gap_negative", "eps_gap_nan",
            "tol_floor_inf"])
    def test_bad_config_exits_2(self, tmp_path, capsys, config, message):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and message in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("b.f64", lambda raw: raw + bytes(4), "not a whole number of float64 entries"),
        ("x_true.f64", lambda raw: raw[:-8], "95 entries, expected 96"),
    ], ids=["trailing_bytes", "short_x_true"])
    def test_bad_vector_file_exits_2(self, tmp_path, capsys, monkeypatch, name, edit, message):
        d = self._instance_dir(tmp_path)
        (d / name).write_bytes(edit((d / name).read_bytes()))
        monkeypatch.setattr("gsreg.cli.run", lambda *a, **k: pytest.fail("solve ran"))
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and name in err[0] and message in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config", [{}, {"nu": 1.0}], ids=["default_nu", "nu_set"])
    def test_non_finite_b_exits_2(self, tmp_path, capsys, config):
        inst = make_instance("I", "i", 48, 96, 12, 3, 1.0, 0.1, 0.1, seed=41)
        inst.b[3] = np.nan
        d = gio.save_instance(tmp_path / "inst", inst)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: A and b must be finite: A^T b has a NaN or inf entry"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name, text", [
        ("groups.json", '{"p": 96}'),
        ("groups.json", '{"p": 96, "groups": 5}'),
        ("groups.json", "[[1, 2], [3, 4]]"),
        ("meta.json", '[1, 2]'),
    ], ids=["groups_missing", "groups_not_a_list", "groups_top_level_list",
            "meta_top_level_list"])
    def test_malformed_instance_file_exits_2(self, tmp_path, capsys, monkeypatch, name, text):
        d = self._instance_dir(tmp_path)
        (d / name).write_text(text)
        monkeypatch.setattr("gsreg.cli.run", lambda *a, **k: pytest.fail("solve ran"))
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and str(d / name) in err[0]
        assert not (tmp_path / "run").exists()

    def test_missing_instance_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope")]) == 2

    def test_bad_flag_exits_2(self):
        assert main(["solve"]) == 2

    def test_interpolating_run_exits_1_with_the_column_count(self, tmp_path, capsys):
        inst = make_instance(design="I", signal="ii", n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=7001)
        d = gio.save_instance(tmp_path / "inst", inst)
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["not converged: stage 4 left 72 columns unpenalized, at least n = 64,"
                       " so its fit interpolates b"]
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["stop_reason"] == "interpolating" and row["converged"] == "False"

    def test_config_override(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_stages": 1, "phi": {"family": "mcp", "a": 3.0}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code in (0, 1)
        with open(tmp_path / "run" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["stages"] == "1"


def _bench_args(out, *extra):
    return ["bench", "--p", "48", "--m", "8", "--r-bar", "2", "--betas", "4",
            "--signals", "i", "--reps", "2", "--alpha", "1.0",
            "--theta1", "0.0", "--theta2", "0.0", "--out", str(out), *extra]


def _bench_rows(out):
    with open(out / "bench.csv") as fh:
        return list(csv.DictReader(fh))


class TestBench:
    def test_sweep_emits_csv(self, tmp_path, capsys):
        out = tmp_path / "bench"
        args = ["bench", "--p", "48", "--m", "8", "--r-bar", "2", "--betas", "4",
                "--signals", "i,ii", "--reps", "2", "--alpha", "1.0",
                "--theta1", "0.05", "--theta2", "0.05",
                "--out", str(out), "--mode", "both"]
        assert main(args) == 0
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["gep_relerr"] for r in rows)
        assert all(r["stage1_relerr"] for r in rows)
        with open(out / "bench_agg.csv") as fh:
            agg = list(csv.DictReader(fh))
        assert len(agg) == 2  # one row per (signal, beta)
        assert {r["signal"] for r in agg} == {"i", "ii"}
        assert all(float(r["reps"]) == 2 for r in agg)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phi": {"family": "scad", "bogus": 1}}))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_rows_carry_provenance(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(_bench_args(out, "--mode", "gep")) == 0
        rows = _bench_rows(out)
        assert rows[0]["seed"] != ""
        # plan.json holds the plan and the resolved config that plan_hash covers
        setup = json.loads((out / "plan.json").read_text())
        assert setup["plan"]["seed"] == 0 and setup["config"]["nu_factor"] == 0.1
        assert rows[0]["plan_hash"] == _hash(setup)

    def test_plan_hash_does_not_depend_on_the_output_directory(self, tmp_path, capsys):
        hashes = []
        for name in ("benchA", "benchB"):
            assert main(_bench_args(tmp_path / name, "--mode", "gep")) == 0
            hashes.append(_bench_rows(tmp_path / name)[0]["plan_hash"])
        assert hashes[0] == hashes[1]

    def test_runs_the_whole_config(self, tmp_path, capsys):
        # both estimators run every setting of the file, not only phi
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_stages": 1}))
        out = tmp_path / "bench"
        assert main(_bench_args(out, "--config", str(cfg))) == 0
        rows = _bench_rows(out)
        assert len(rows) == 2
        assert all(r["gep_stages"] == "1" and r["stage1_stages"] == "1" for r in rows)
        # with one stage each, the two differ only in their nu factor
        assert all(r["gep_relerr"] != r["stage1_relerr"] for r in rows)


class TestPlanFlags:
    @pytest.mark.parametrize("command", ["gen", "bench"])
    @pytest.mark.parametrize("flag, value, message", [
        ("betas", "0", "each beta must lie in [1, p = 48], got [0]"),
        ("betas", "4,49", "each beta must lie in [1, p = 48], got [4, 49]"),
        ("reps", "0", "reps must be at least 1, got 0"),
        ("reps", "-1", "reps must be at least 1, got -1"),
    ], ids=["beta_zero", "beta_above_p", "reps_zero", "reps_negative"])
    def test_bad_plan_exits_2(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        args = (_gen_args if command == "gen" else _bench_args)(out)
        args[args.index(f"--{flag}") + 1] = value
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()


class TestOracle:
    @pytest.mark.parametrize("nu", ["-1", "0", "nan", "inf"])
    def test_bad_nu_exits_2(self, tmp_path, capsys, nu):
        inst = make_instance(design="I", signal="i", n=20, p=16, m=8, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.05, seed=42)
        d = gio.save_instance(tmp_path / "inst", inst)
        assert main(["oracle", str(d), "--nu", nu]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: nu must be positive and finite, got {float(nu)}"]

    def test_report(self, tmp_path, capsys):
        inst = make_instance(design="I", signal="i", n=20, p=16, m=8, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.05, seed=42)
        d = gio.save_instance(tmp_path / "inst", inst)
        assert main(["oracle", str(d)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["x_ls_norm"] > 0
        assert report["brute_force_objective"] is not None

    def test_skips_enumeration_for_large_m(self, tmp_path, capsys):
        inst = make_instance(design="I", signal="i", n=30, p=40, m=20, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.05, seed=43)
        d = gio.save_instance(tmp_path / "inst", inst)
        assert main(["oracle", str(d)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["brute_force_objective"] is None

    def test_report_when_the_box_binds_with_p_above_n(self, tmp_path, capsys, monkeypatch):
        # n = 8 < p = 16: one 4-group (square) support of this instance has
        # its least-squares solution outside R = 1000 ||x_true||_inf
        inst = make_instance(design="I", signal="i", n=8, p=16, m=8, r_bar=2,
                             alpha=2.0, theta1=0.1, theta2=0.1, seed=10)
        calls = []
        box_ls = gdata._box_restricted_ls
        monkeypatch.setattr(gdata, "_box_restricted_ls",
                            lambda A_s, b, R: calls.append(R) or box_ls(A_s, b, R))
        d = gio.save_instance(tmp_path / "inst", inst)
        assert main(["oracle", str(d)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(calls) == 1
        assert report["brute_force_objective"] <= report["ls_objective_at_support"] + 1e-9
