import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from driftfit.cli import main
from driftfit.config import EXPERIMENTS, ConfigError, from_dict, parse_config
from driftfit.models import BUILTIN_MODELS


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


def test_parse_config_checks_the_model_and_its_keys(tmp_path):
    p = write_config(tmp_path, "experiment = estimate\nmodel.name = scalar_uo\n")
    with pytest.raises(ConfigError, match="unknown model 'scalar_uo'"):
        parse_config(p)
    p = write_config(tmp_path, "experiment = estimate\nmodel.name = scalar_ou\n"
                               "model.rate_star = 2.0\n", "b.cfg")
    with pytest.raises(ConfigError, match="'model.rate_star' is not read"):
        parse_config(p)
    with pytest.raises(ConfigError, match="'model.theta_star' is not read"):
        from_dict({"experiment": "estimate", "model.name": "linear_system",
                   "model.theta_star": "3"})
    # each model's own keys, and theta_eval everywhere, are accepted
    cfg = from_dict({"experiment": "poisson-solve", "model.name": "mean_reversion",
                     "model.rate_star": "2", "model.level_star": "0",
                     "model.sigma": "0.5", "model.theta_eval": "2, 0"})
    assert cfg["model.rate_star"] == 2.0
    assert cfg["model.theta_eval"] == [2.0, 0.0]


def test_grid_bounds_must_come_together():
    # grid.lo alone used to be ignored in favour of the default grid
    with pytest.raises(ConfigError, match="grid.lo"):
        from_dict({"experiment": "poisson-solve", "grid.lo": "-3"})
    with pytest.raises(ConfigError, match="grid.lo"):
        from_dict({"experiment": "poisson-solve", "grid.hi": "3"})
    cfg = from_dict({"experiment": "poisson-solve", "grid.lo": "-3", "grid.hi": "3"})
    assert (cfg["grid.lo"], cfg["grid.hi"]) == (-3.0, 3.0)


_ECHO_TEXT = {list: lambda v: ", ".join(repr(x) for x in v), float: repr}


@st.composite
def raw_configs(draw):
    name = draw(st.sampled_from(sorted(BUILTIN_MODELS)))
    dt = draw(st.sampled_from([0.005, 0.01, 0.02, 0.25]))
    stride = draw(st.integers(1, 20))
    steps = stride * draw(st.integers(1, 500))
    finite = st.floats(-1e3, 1e3)
    positive = st.floats(0.01, 10.0)
    lists = st.lists(finite, max_size=4).map(lambda v: ", ".join(map(repr, v)))
    raw = {"experiment": draw(st.sampled_from(EXPERIMENTS)), "model.name": name,
           "integrator.dt": repr(dt), "horizon": repr(1.0 + steps * dt),
           "output.stride": str(stride)}
    own = {"theta_star": finite.map(repr), "rate_star": positive.map(repr),
           "level_star": finite.map(repr), "dim": st.integers(1, 4).map(str),
           "sigma": positive.map(repr)}
    for key in BUILTIN_MODELS[name].keys:
        if draw(st.booleans()):
            raw["model." + key] = draw(own[key])
    optional = {"model.theta_eval": lists, "integrator.x0": lists,
                "theta0.lo": lists, "theta0.hi": lists,
                "schedule.c_alpha": positive.map(repr),
                "n_reps": st.integers(2, 10 ** 6).map(str),
                "master_seed": st.integers(0, 2 ** 64 - 1).map(str),
                "t_eval": st.floats(1.0, 1e4).map(repr),
                "data.path_csv": st.from_regex(r"[a-z_/]{1,12}\.csv", fullmatch=True)}
    for key, values in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(values)
    if draw(st.booleans()):
        lo = draw(st.floats(-10.0, 0.0))
        raw["grid.lo"], raw["grid.hi"] = repr(lo), repr(lo + draw(positive))
    return raw


@settings(max_examples=200, deadline=None)
@given(raw=raw_configs())
def test_parse_config_roundtrips_echo(tmp_path_factory, raw):
    # the config section of report.json parses back to the same values
    cfg = from_dict(raw)
    text = "".join("%s = %s\n" % (k, _ECHO_TEXT.get(type(v), str)(v))
                   for k, v in cfg.echo().items())
    path = tmp_path_factory.mktemp("echo") / "echo.cfg"
    path.write_text(text)
    again = parse_config(path)
    assert again.echo() == cfg.echo()
    assert again.values == cfg.values


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


def test_cli_replay_rejects_a_csv_with_the_wrong_state_dimension(tmp_path):
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_1,x_2\n1.01,0.1,0.2\n1.02,0.15,0.1\n1.03,0.2,0.0\n")
    cfg = write_config(tmp_path, """
experiment = simulate
model.name = scalar_ou
horizon = 20
data.path_csv = %s
""" % path_csv)
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert "2 state columns" in report["error"]["message"]
    assert not (out / "trajectory.csv").exists()


def test_cli_simulate_rejects_a_stride_that_does_not_divide_the_steps(tmp_path, capsys):
    # 1900 steps in strides of 7 would end path.csv at t = 19.97
    cfg = write_config(tmp_path, """
experiment = simulate
horizon = 20
integrator.dt = 0.01
integrator.burn_in_steps = 100
output.stride = 7
""")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "output.stride 7" in capsys.readouterr().err
    assert not (out / "path.csv").exists()


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
