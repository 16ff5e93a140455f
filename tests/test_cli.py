import csv
import json

import numpy as np
import pytest

from gsreg import io as gio
from gsreg.cli import ExperimentPlan, main
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


class TestGen:
    def test_writes_instances_and_plan(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(_gen_args(out)) == 0
        dirs = [d for d in out.iterdir() if d.is_dir()]
        assert len(dirs) == 2  # one signal x one beta x two reps
        assert (out / "plan.json").exists()
        inst = gio.load_instance(dirs[0])
        assert inst.A.shape == (12, 48)  # n = floor(48/4)

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

    def test_inner_failures_exit_1_with_reason(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alm": {"max_outer": 1}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("not converged:") and "hit max_outer" in err[0]
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["inner_failures"]) > 0
        assert row["converged"] == "False"

    def test_line_search_stall_exits_1_with_reason(self, tmp_path, capsys):
        inst = make_instance("I", "i", 32, 64, 8, 2, 2.0, 0.1, 0.1, 1)
        d = gio.save_instance(tmp_path / "inst", inst)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alm": {"sncg": {"max_backtracks": 0}}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("not converged:") and "line search" in err[0]

    def test_nested_alm_configs_reach_the_solver(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alm": {"max_outer": 5, "sncg": {"max_iter": 1}}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code in (0, 1)
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            inner = [json.loads(line)["inner"] for line in fh]
        # one Newton step per SNCG call falls short of its target somewhere
        assert any(s["sncg_unmet"] > 0 for s in inner)
        assert all(s["outer_iters"] <= 5 for s in inner)

    def test_config_hash_covers_the_settings_that_ran(self, tmp_path, capsys):
        # {} and {"max_stages": 30} run the same settings, so they hash the same
        d = self._instance_dir(tmp_path)
        hashes = []
        for k, config in enumerate([{}, {"max_stages": 30, "nu_factor": 0.1}]):
            cfg = tmp_path / f"cfg{k}.json"
            cfg.write_text(json.dumps(config))
            run = tmp_path / f"run{k}"
            assert main(["solve", str(d), "--config", str(cfg), "--out", str(run)]) == 0
            with open(run / "summary.csv") as fh:
                row = next(csv.DictReader(fh))
            resolved = json.loads((run / "config.json").read_text())
            assert resolved["max_stages"] == 30 and resolved["alm"]["sncg"]["max_iter"] == 50
            assert resolved["nu"] == pytest.approx(float(row["nu"]), rel=1e-15)
            hashes.append(row["config_hash"])
        assert hashes[0] == hashes[1] and len(hashes[0]) == 12

    @pytest.mark.parametrize("config, message", [
        ({"max_stages": "x"}, "'max_stages' must be int"),
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"alm": {"sncg": {"bogus": 1}}}, "unknown config key 'alm.sncg.bogus'"),
        ({"alm": {"abcd": {"max_iter": 1}}}, "unknown config key 'alm.abcd'"),
        ({"alm": {"tol": -1}}, "eps_loss, tol_decay and tol_floor"),
        ({"max_stages": 0}, "max_stages must be positive, got 0"),
        ({"tol_floor": -1}, "tol_floor must be positive, got -1"),
    ], ids=["bad_type", "unknown_key", "unknown_nested_key", "alm_abcd", "alm_tol",
            "max_stages_zero", "tol_floor_negative"])
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

    def test_missing_instance_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope")]) == 2

    def test_bad_flag_exits_2(self):
        assert main(["solve"]) == 2

    def test_config_override(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_stages": 1, "phi": {"family": "mcp", "a": 3.0}}))
        code = main(["solve", str(d), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code in (0, 1)
        with open(tmp_path / "run" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["stages"] == "1"


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
        args = ["bench", "--p", "48", "--m", "8", "--r-bar", "2", "--betas", "4",
                "--signals", "i", "--reps", "1", "--alpha", "1.0",
                "--theta1", "0.0", "--theta2", "0.0", "--out", str(out),
                "--mode", "gep"]
        assert main(args) == 0
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["seed"] != ""
        assert len(rows[0]["plan_hash"]) == 12


class TestOracle:
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
