import json

import numpy as np
import pytest

from driftfit.cli import main
from driftfit.config import ConfigError, from_dict, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_config_roundtrip(tmp_path):
    p = write_config(tmp_path, """
# comment line
experiment = predict-covariance
model.name = scalar_ou
schedule.c_alpha = 4.0   # inline comment
n_reps = 50
""")
    cfg = parse_config(p)
    assert cfg["experiment"] == "predict-covariance"
    assert cfg["schedule.c_alpha"] == 4.0
    assert cfg["n_reps"] == 50
    assert cfg["integrator.dt"] == 0.005  # default echoed
    assert "experiment" in cfg.echo()


def test_parse_config_rejects_unknown_key(tmp_path):
    p = write_config(tmp_path, "experiment = simulate\nmodel.nme = scalar_ou\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(p)


def test_parse_config_rejects_duplicates(tmp_path):
    p = write_config(tmp_path, "experiment = simulate\nexperiment = estimate\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(p)


def test_parse_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(write_config(tmp_path, "experiment = simulate\nhorizon = ten\n"))
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(write_config(tmp_path, "experiment = simulate\nintegrator.dt = -1\n", "b.cfg"))
    with pytest.raises(ConfigError, match="out of range"):
        from_dict({"experiment": "fly"})
    with pytest.raises(ConfigError, match="missing required"):
        from_dict({"horizon": "10"})
    with pytest.raises(ConfigError, match="expected"):
        parse_config(write_config(tmp_path, "experiment simulate\n", "c.cfg"))


def test_n_reps_below_two_is_a_config_error():
    # run_replications needs two replications; reject one at parse time
    with pytest.raises(ConfigError, match="n_reps"):
        from_dict({"experiment": "verify-clt", "n_reps": "1"})
    assert from_dict({"experiment": "verify-clt", "n_reps": "2"})["n_reps"] == 2


def test_float_list_values():
    cfg = from_dict({"experiment": "simulate", "theta0.lo": "0.5, 1.5",
                     "theta0.hi": "1.0, 2.0"})
    assert cfg["theta0.lo"] == [0.5, 1.5]


def test_cli_predict_covariance(tmp_path, capsys):
    out = tmp_path / "out"
    status = main(["predict-covariance", "--out", str(out)])
    assert status == 0
    report = json.loads((out / "report.json").read_text())
    assert report["error"] is None
    assert all(v["passed"] for v in report["verdicts"])
    sigma_csv = (out / "sigma_prediction.csv").read_text()
    # scalar reference family: limiting variance 8/3 by both routes
    row = sigma_csv.splitlines()[1].split(",")
    assert row[:2] == ["1", "1"]
    assert float(row[2]) == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert float(row[3]) == pytest.approx(8.0 / 3.0, abs=1e-6)
    printed = json.loads(capsys.readouterr().out)
    assert printed["experiment"] == "predict-covariance"


def test_cli_poisson_solve(tmp_path):
    out = tmp_path / "out"
    status = main(["poisson-solve", "--out", str(out)])
    assert status == 0
    report = json.loads((out / "report.json").read_text())
    [verdict] = report["verdicts"]
    assert verdict["criterion"] == "poisson_residual_sup"
    assert verdict["passed"]
    header = (out / "poisson_solution.csv").read_text().splitlines()[0]
    assert header == "x,pi,v,dv_dx"


def test_cli_estimate_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path, """
experiment = estimate
horizon = 50
integrator.dt = 0.01
integrator.burn_in_steps = 100
""")
    out = tmp_path / "out"
    status = main(["estimate", "--config", str(cfg), "--out", str(out),
                   "--seed", "5"])
    assert status == 0
    lines = (out / "rep_0.csv").read_text().splitlines()
    assert lines[0] == "t,theta_1,x_1"
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["master_seed"] == 5


def test_cli_simulate_and_replay(tmp_path):
    cfg = write_config(tmp_path, """
experiment = simulate
horizon = 20
integrator.dt = 0.01
integrator.burn_in_steps = 100
output.stride = 10
""")
    out1 = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    path_csv = out1 / "path.csv"
    assert path_csv.exists()

    replay_cfg = write_config(tmp_path, """
experiment = simulate
horizon = 20
data.path_csv = %s
""" % path_csv, "replay.cfg")
    out2 = tmp_path / "replay"
    assert main(["simulate", "--config", str(replay_cfg), "--out", str(out2)]) == 0
    lines = (out2 / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,theta_1,x_1"
    assert len(lines) > 100


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, "experiment = simulate\nbogus = 1\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_runtime_error_is_structured(tmp_path):
    # subcritical schedule: the covariance prediction must refuse
    cfg = write_config(tmp_path, """
experiment = predict-covariance
schedule.c_alpha = 0.5
""")
    out = tmp_path / "out"
    status = main(["predict-covariance", "--config", str(cfg), "--out", str(out)])
    assert status == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "RegimeError"


def test_cli_verify_clt_rejects_horizon_off_the_dt_grid(tmp_path):
    # off the dt grid the CLT would be evaluated at t = 9.62, not at 10.002
    cfg = write_config(tmp_path, """
experiment = verify-clt
horizon = 10.002
integrator.burn_in_steps = 100
n_reps = 100
""")
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ValueError"
    assert "not a whole number" in report["error"]["message"]
    assert report["verdicts"] == []


def test_report_deterministic_modulo_wall_clock(tmp_path):
    cfg = write_config(tmp_path, """
experiment = estimate
horizon = 30
integrator.dt = 0.01
integrator.burn_in_steps = 100
master_seed = 99
""")
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        rep.pop("wall_clock")
        # artifact paths differ only by the output directory
        rep["artifacts"] = [a.rsplit("/", 1)[-1] for a in rep["artifacts"]]
        reports.append(rep)
    assert reports[0] == reports[1]
    a = np.loadtxt(tmp_path / "a" / "rep_0.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(tmp_path / "b" / "rep_0.csv", delimiter=",", skiprows=1)
    assert np.array_equal(a, b)
