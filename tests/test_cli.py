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
            "--theta1", "0.05", "--theta2", "0.05", "--seed", "0", "--out", str(out)]
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

    def test_seed_range_covers_every_cell(self):
        # 3 cells: the last draws from seed + 2000, 2001 and 2002
        top = 2**64 - 2003
        plan = ExperimentPlan(betas=(4,), reps=3, seed=top)
        assert max(c[3] for c in plan.cells()) + 2 == 2**64 - 1
        with pytest.raises(ValueError, match=f"seed must be at most {top} "):
            ExperimentPlan(betas=(4,), reps=3, seed=top + 1)
        with pytest.raises(ValueError, match=f"seed must be at most {top - 1000} "):
            ExperimentPlan(betas=(4,), reps=4, seed=top)

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
        # every product is with all of A, or with the A' that alm_solve makes
        # from it by eliminating the unpenalized columns: A^T d and A s per
        # Newton step, A s, A^T xi and A x per outer iteration, A^T r per
        # certified duality gap, one A^T xi at the start, one more for a warm
        # start, and r = Ax - b
        for t in stages:
            s, warm = t["inner"], t["k"] > 1
            certs = sum(h["cert_gap"] is not None for h in s["history"])
            assert s["sieve_rounds"] == 0 and not s["closed_form"]
            assert s["dense_products"] + s["working_set_products"] == (
                2 * s["sncg_iters"] + 3 * s["outer_iters"] + certs + 2 + warm)
        assert any(h["cert_gap"] is not None for h in stages[0]["inner"]["history"])
        assert any(t["inner"]["eliminated_columns"] > 0 for t in stages)

    def test_rows_carry_the_sncg_exit_counts(self, tmp_path, capsys):
        # summary.csv and bench.csv sum each stage's SolveStats over the run
        d = self._instance_dir(tmp_path)
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            inner = [json.loads(line)["inner"] for line in fh]
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        for key in ("sncg_unmet", "sncg_early", "sncg_decrement", "sncg_certified",
                    "primal_steps"):
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
        keys = ("sncg_unmet", "sncg_early", "sncg_decrement", "sncg_certified", "primal_steps")
        assert [bench[f"gep_{key}"] for key in keys] == [cell[key] for key in keys]
        assert int(bench["stage1_sncg_early"]) > 0 and bench["stage1_sncg_unmet"] != ""

    def test_summary_carries_the_largest_certified_gap_over_its_tolerance(self, tmp_path, capsys,
                                                                          monkeypatch):
        from gsreg import mscra

        d = self._instance_dir(tmp_path)
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "traces.jsonl") as fh:
            stages = [json.loads(line) for line in fh]
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        tol = None
        for t in stages:
            tol = mscra.subproblem_tolerance(tol, mscra.MscraConfig())
            assert t["tol"] == tol
        ratios = [t["inner"]["cert_gap"] / t["tol"] for t in stages
                  if t["inner"]["cert_gap"] is not None]
        assert ratios and float(row["max_cert_ratio"]) == max(ratios)

        # a run whose stages computed no certificate leaves the cell empty
        solve_stage = mscra.solve_stage

        def uncertified(*args):
            x, dual, stats, r = solve_stage(*args)
            stats.cert_gap = None
            return x, dual, stats, r

        monkeypatch.setattr(mscra, "solve_stage", uncertified)
        assert main(["solve", str(d), "--out", str(tmp_path / "bare")]) == 0
        with open(tmp_path / "bare" / "summary.csv") as fh:
            assert next(csv.DictReader(fh))["max_cert_ratio"] == ""
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["max_cert_ratio"] is None

    def test_inner_failures_exit_1_with_reason(self, tmp_path, capsys, monkeypatch):
        from gsreg import wl21

        d = self._instance_dir(tmp_path)
        monkeypatch.setattr(wl21, "_MAX_OUTER", 1)
        code = main(["solve", str(d), "--out", str(tmp_path / "run")])
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
        assert any(not s["converged"] and s["outer_iters"] < wl21._MAX_OUTER
                   for s in inner)
        assert all(s["stop_cause"] == ("converged" if s["converged"] else "line_search")
                   for s in inner)

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
            assert resolved["max_stages"] == 30 and resolved["phi"]["family"] == "scad"
            assert "nu_factor" not in resolved
            assert resolved["nu"] == pytest.approx(float(row["nu"]), rel=1e-15)
            assert resolved["nu"] == config.get("nu", resolved["nu"])
            hashes.append(row["config_hash"])
        assert hashes[0] == hashes[1] and len(hashes[0]) == 12
        assert hashes[2] == hashes[3] != hashes[0]

    @pytest.mark.parametrize("config, message", [
        ({"max_stages": "x"}, "'max_stages' must be int"),
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"phi": {"bogus": 1}}, "unknown config key 'phi.bogus'"),
        # the ALM's settings are module constants, and each stage sets its tol
        ({"alm": {"abcd": {"max_iter": 1}}}, "unknown config key 'alm'"),
        ({"alm": {"sncg": {"max_iter": 1}}}, "unknown config key 'alm'"),
        ({"alm": {"sigma0": 2.0}}, "unknown config key 'alm'"),
        ({"static_rho": 5.0}, "unknown config key 'static_rho'"),
        ({"w0": [0.0]}, "unknown config key 'w0'"),
        ({"alm": {"tol": -1}}, "unknown config key 'alm'"),
        ({"alm": {}}, "unknown config key 'alm'"),
        ({"alm": {"max_outer": 1}}, "unknown config key 'alm'"),
        ({"max_stages": 0}, "max_stages must be positive, got 0"),
        ({"tol_floor": -1}, "tol_floor must be positive, got -1"),
        ({"rho_cap_numerator": 1}, "unknown config key 'rho_cap_numerator'"),
        ({"nu_factor": 0}, "nu_factor must be positive and finite, got 0"),
        ({"nu_factor": -0.5}, "nu_factor must be positive and finite, got -0.5"),
        ({"alm": {"sigma_max": 0}}, "unknown config key 'alm'"),
        # JSON reads 1e400 as inf
        ({"phi": {"family": "mcp", "a": 1e400}}, "mcp requires a finite a > 0, got inf"),
        ({"nu": 1e400}, "nu must be None or positive and finite, got inf"),
        # the stopping thresholds are module constants too
        ({"eps_loss": -0.5}, "unknown config key 'eps_loss'"),
        ({"eps_loss": 1e400}, "unknown config key 'eps_loss'"),
        ({"eps_gap": -1}, "unknown config key 'eps_gap'"),
        ({"eps_gap": float("nan")}, "unknown config key 'eps_gap'"),
        ({"tol_floor": 1e400}, "tol_floor must be finite, got inf"),
    ], ids=["bad_type", "unknown_key", "unknown_nested_key", "alm_abcd", "alm_sncg",
            "alm_sigma0", "static_rho", "w0", "alm_tol", "alm", "alm_max_outer",
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

    @pytest.mark.parametrize("support", [{"a": 1}, [0, 1], [1, 99]],
                             ids=["object", "zero", "above_m"])
    def test_bad_support_exits_2(self, tmp_path, capsys, monkeypatch, support):
        d = self._instance_dir(tmp_path)
        meta = json.loads((d / "meta.json").read_text())
        meta["support_true"] = support
        (d / "meta.json").write_text(json.dumps(meta))
        monkeypatch.setattr("gsreg.cli.run", lambda *a, **k: pytest.fail("solve ran"))
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {d / 'meta.json'}: support_true must be")
        assert not (tmp_path / "run").exists()

    def test_short_matrix_file_exits_2(self, tmp_path, capsys, monkeypatch):
        d = self._instance_dir(tmp_path)
        (d / "A.gsrm").write_bytes(b"GSRM\x00\x00")
        monkeypatch.setattr("gsreg.cli.run", lambda *a, **k: pytest.fail("solve ran"))
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {d / 'A.gsrm'}: 6 bytes is shorter than the 13-byte header"]

    def test_missing_support_is_that_of_x_true(self, tmp_path, capsys):
        d = self._instance_dir(tmp_path)
        meta = json.loads((d / "meta.json").read_text())
        del meta["support_true"]
        (d / "meta.json").write_text(json.dumps(meta))
        assert main(["solve", str(d), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["support_precision"]) == float(row["support_recall"]) == 1.0

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
        assert err == ["not converged: stage 4 left 80 columns unpenalized, at least n = 64,"
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
            "--theta1", "0.0", "--theta2", "0.0", "--seed", "0", "--out", str(out), *extra]


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
        ("r-bar", "0", "r_bar must lie in [1, m = 8], got 0"),
        ("r-bar", "-1", "r_bar must lie in [1, m = 8], got -1"),
        ("r-bar", "9", "r_bar must lie in [1, m = 8], got 9"),
        ("seed", "-5", "seed must lie in [0, 2**64), got -5"),
        # two cells: the last draws from seed + 1000 + 2
        ("seed", str(2**64 - 1002),
         f"seed must be at most {2**64 - 1003} for this plan's cells, got {2**64 - 1002}"),
        ("seed", str(2**64 - 1),
         f"seed must be at most {2**64 - 1003} for this plan's cells, got {2**64 - 1}"),
        ("theta1", "nan", "theta1 must be nonnegative and finite, got nan"),
    ], ids=["beta_zero", "beta_above_p", "reps_zero", "reps_negative", "r_bar_zero",
            "r_bar_negative", "r_bar_above_m", "seed_negative", "seed_past_the_last_cell",
            "seed_at_the_top", "theta1_nan"])
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
