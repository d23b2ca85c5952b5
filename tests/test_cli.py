import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from consensuslab import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _small_mc_config(tmp_path, out, **extra):
    payload = {
        "kind": "monte_carlo",
        "seed": 5,
        "horizon": 60,
        "replicas": 50,
        "out_dir": str(out),
        "topology": {"kind": "periodic", "builder": "star_rotation", "n": 4},
        "gains": {"kind": "power", "alpha": 1.0, "t_star": 4.0, "exponent": 1.0},
        "noise": {"kind": "iid_gaussian", "v": 0.01},
    }
    payload.update(extra)
    return _write(tmp_path, "mc.json", payload)


class TestRunExperiment:
    def test_monte_carlo_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = _small_mc_config(tmp_path, out1)
        report = cli.run_experiment(cfg)
        assert Path(report.artifacts["mean_V"]).exists()
        assert Path(report.artifacts["consensus_stats"]).exists()
        cfg2 = _small_mc_config(tmp_path, out2)
        cli.run_experiment(cfg2)
        for name in ("mean_V.csv", "consensus_stats.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rate_study_fits_independent_of_out_dir(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            cli.run_experiment(_small_mc_config(tmp_path, out, kind="rate_study"))
        a, b = ((out / "fits.csv").read_bytes() for out in outs)
        assert a == b

    def test_protocol_run_trace(self, tmp_path):
        out = tmp_path / "run"
        cfg = _write(tmp_path, "run.json", {
            "kind": "protocol_run",
            "seed": 1,
            "horizon": 20,
            "out_dir": str(out),
            "topology": {"kind": "fixed", "graph": {"builder": "cycle", "n": 4}},
            "gains": {"kind": "constant", "alpha": 0.2},
            "noise": {"kind": "zero"},
        })
        report = cli.run_experiment(cfg)
        rows = Path(report.artifacts["trace"]).read_text().strip().splitlines()
        assert rows[0] == "t,x_1,x_2,x_3,x_4,V,a"
        assert len(rows) == 22

    def test_rate_study_exact_slope(self, tmp_path):
        out = tmp_path / "rate"
        cfg = _write(tmp_path, "rate.json", {
            "kind": "rate_study",
            "seed": 3,
            "method": "exact",
            "horizon": 4000,
            "topology": {"kind": "fixed", "graph": {"builder": "complete", "n": 3}},
            "gains": {"kind": "power", "alpha": 2.0, "t_star": 10.0, "exponent": 1.0},
            "noise": {"kind": "iid_gaussian", "v": 0.01},
            "out_dir": str(out),
        })
        report = cli.run_experiment(cfg)
        assert "slope" in report.summary
        assert report.summary["slope"] < -0.5  # decaying V on a fixed graph

    def test_missing_horizon_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, "bad.json", {
            "kind": "monte_carlo",
            "topology": {"kind": "periodic", "builder": "star_rotation", "n": 3},
            "gains": {"kind": "constant", "alpha": 0.1},
            "noise": {"kind": "zero"},
        })
        with pytest.raises(cli.ConfigError, match="horizon"):
            cli.run_experiment(cfg)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(target))
        payload = json.loads(Path(_small_mc_config(tmp_path, "ignored")).read_text())
        payload.pop("out_dir")
        cfg = _write(tmp_path, "env.json", payload)
        report = cli.run_experiment(cfg)
        assert Path(report.out_dir) == target
        assert (target / "mean_V.csv").exists()


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = _small_mc_config(tmp_path, tmp_path / "out")
        assert cli.main(["run", cfg]) == 0
        assert "artifacts in" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.json", {"kind": "monte_carlo"})
        assert cli.main(["run", cfg]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = _small_mc_config(tmp_path, tmp_path / "out", replicaz=50)
        assert cli.main(["run", cfg]) == 2
        assert "replicaz" in capsys.readouterr().err

    @pytest.mark.parametrize("section,value,dotted", [
        ("gains", {"kind": "power", "alpha": 1.0, "alpah": 1.0}, "gains.alpah"),
        ("noise", {"kind": "iid_uniform", "v": 0.01, "std": 0.1}, "noise.std"),
        ("topology", {"kind": "periodic", "builder": "star_rotation", "n": 4, "center": 0},
         "topology.center"),
        ("topology", {"kind": "fixed", "graph": {"builder": "cycle", "n": 4, "center": 1}},
         "topology.graph.center"),
        ("x1", {"kind": "linspace", "hi": 2.0, "mid": 1.0}, "x1.mid"),
    ])
    def test_unknown_nested_key_exit_two(self, tmp_path, capsys, section, value, dotted):
        cfg = _small_mc_config(tmp_path, tmp_path / "out", **{section: value})
        assert cli.main(["run", cfg]) == 2
        assert dotted in capsys.readouterr().err

    def test_unread_top_level_delta_exit_two(self, tmp_path, capsys):
        # periodic topology and power gains: nothing reads a top-level delta
        cfg = _small_mc_config(tmp_path, tmp_path / "out", delta=0.9)
        assert cli.main(["run", cfg]) == 2
        assert "delta" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mean_V.csv").exists()

    def test_top_level_delta_reaches_theorem_design_gains(self, tmp_path):
        gains = {"kind": "theorem_design", "n": 4, "c": 1.0, "a_max": 1.0, "delta": 0.0}
        cfg = _small_mc_config(tmp_path, tmp_path / "a", gains=gains, delta=0.3)
        assert cli.main(["run", cfg]) == 0
        cfg = _small_mc_config(tmp_path, tmp_path / "b", gains=gains | {"delta": 0.3})
        assert cli.main(["run", cfg]) == 0
        assert ((tmp_path / "a" / "mean_V.csv").read_bytes()
                == (tmp_path / "b" / "mean_V.csv").read_bytes())

    def test_unknown_kind_exit_two(self, tmp_path):
        cfg = _write(tmp_path, "bad2.json", {"kind": "frobnicate"})
        assert cli.main(["run", cfg]) == 2

    def test_runtime_error_exit_one(self, tmp_path):
        cfg = _small_mc_config(tmp_path, tmp_path / "out",
                               kind="rate_study", fit_window=[1, 2])
        assert cli.main(["run", cfg]) == 1

    def test_diverging_state_exit_one(self, tmp_path, capsys):
        cfg = _small_mc_config(tmp_path, tmp_path / "out", horizon=400, replicas=8,
                               topology={"kind": "fixed", "graph": {"builder": "complete", "n": 3}},
                               gains={"kind": "constant", "alpha": 10.0})
        with np.errstate(all="ignore"):
            assert cli.main(["run", cfg]) == 1
        assert "not finite at t = 107" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mean_V.csv").exists()

    def test_verify_exit_zero(self, capsys):
        assert cli.main(["verify", "--cases", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5

    def test_verify_has_no_out_dir(self, tmp_path):
        target = tmp_path / "verify_out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--cases", "5", "--out-dir", str(target)])
        assert exc.value.code == 2
        assert not target.exists()

    def test_overrides(self, tmp_path):
        cfg = _small_mc_config(tmp_path, tmp_path / "o1")
        assert cli.main(["run", cfg, "--horizon", "30", "--out-dir",
                         str(tmp_path / "o2"), "--replicas", "20"]) == 0
        rows = (tmp_path / "o2" / "mean_V.csv").read_text().strip().splitlines()
        assert len(rows) == 32
        assert rows[1].endswith(",20")


class TestSweep:
    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = _small_mc_config(tmp_path, tmp_path / "sweep",
                               kind="rate_study", horizon=500, replicas=40)
        report = cli.sweep(cfg, "gains.alpha", [1.0])
        rows = Path(report.artifacts["sweep"]).read_text().strip().splitlines()
        assert len(rows) == 2
        direct = cli.run_experiment(json.loads(Path(cfg).read_text())
                                    | {"seed": 5, "out_dir": str(tmp_path / "direct")})
        sweep_slope = report.summary["rows"][0][1]
        assert sweep_slope == pytest.approx(direct.summary["slope"], rel=1e-12)
        # the CSV prints 12 significant digits, whose rounding alone can exceed 1e-12
        assert rows[1].split(",")[1] == f"{direct.summary['slope']:.12g}"

    def test_sweep_over_missing_parameter_rejected(self, tmp_path):
        cfg = _small_mc_config(tmp_path, tmp_path / "s2")
        with pytest.raises(cli.ConfigError):
            cli.sweep(cfg, "gains.nonexistent.path", [1, 2])


class TestPlots:
    def test_loglog_plot_straight_line(self, tmp_path):
        csv = tmp_path / "series.csv"
        ts = np.arange(1, 200)
        with open(csv, "w") as fh:
            fh.write("t,meanV,stderrV,replicas\n")
            for t in ts:
                fh.write(f"{t},{3.0 / t:.12g},0,1\n")
        out = tmp_path / "series.svg"
        cli.emit_plot(str(csv), "loglog_V", str(out))
        svg = out.read_text()
        pts = re.search(r'points="([^"]+)"', svg).group(1).split()
        xy = np.array([[float(v) for v in p.split(",")] for p in pts])
        fit = np.polyfit(xy[:, 0], xy[:, 1], 1)
        # svg y grows downward; equal log spans map data slope -1 to
        # +plot_height/plot_width in pixel coordinates
        assert fit[0] == pytest.approx(360.0 / 600.0, abs=0.02)

    def test_states_plot_has_nine_polylines(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "fig2.json").read_text())
        cfg.update(horizon=50, replicas=4, out_dir=str(tmp_path / "fig2"))
        report = cli.run_experiment(cfg)
        svg = Path(report.artifacts["states_svg"]).read_text()
        assert svg.count("<polyline") == 9

    def test_positions_plot(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "fig2.json").read_text())
        cfg.update(horizon=30, replicas=4, out_dir=str(tmp_path / "pos"))
        report = cli.run_experiment(cfg)
        out = Path(report.artifacts["positions_svg"])
        assert out.exists()
        assert "x [km]" in out.read_text()

    def test_schema_mismatch_rejected(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            cli.emit_plot(str(csv), "loglog_V", str(tmp_path / "x.svg"))


class TestCheckedInConfigs:
    @pytest.mark.parametrize("name,small", [
        ("fig2.json", {"horizon": 200, "replicas": 8}),
        ("fig3.json", {"horizon": 200, "replicas": 8}),
        ("fig4.json", {"horizon": 200, "replicas": 8}),
        ("rate_uniform.json", {"horizon": 400, "replicas": 16, "fit_window": [80, 400]}),
        ("adversarial_rates.json", {"horizon": 400, "replicas": 16, "fit_window": [80, 400]}),
        ("critical_exponent.json", {"horizon": 400, "fit_window": [80, 400]}),
        ("log_regime.json", {"horizon": 2000, "fit_window": [200, 2000]}),
        ("random_block.json", {"horizon": 400, "replicas": 8, "fit_window": [80, 400]}),
        ("verify.json", {"cases": 30}),
    ])
    def test_preset_runs_at_reduced_size(self, tmp_path, name, small):
        cfg = json.loads((CONFIG_DIR / name).read_text())
        cfg.update(small)
        cfg["out_dir"] = str(tmp_path / name.replace(".json", ""))
        report = cli.run_experiment(cfg)
        assert report.passed
        assert Path(report.artifacts["report"]).exists()
