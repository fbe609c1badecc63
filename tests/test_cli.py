import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftfit
from driftfit import stats
from driftfit.cli import main
from driftfit.config import (_SCHEMA, EXPERIMENTS, ConfigError, _float_list, from_dict,
                             parse_config)
from driftfit.experiments import build_engine_config, build_model, run_experiment
from driftfit.models import BUILTIN_MODELS, config_keys


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
    assert from_dict({"experiment": "verify-rate", "n_reps": "2"})["n_reps"] == 2


def test_verify_clt_n_reps_below_the_clt_minimum_is_a_config_error(tmp_path, capsys):
    # 50 replications used to run in full before clt_diagnostics refused them
    cfg = write_config(tmp_path, "experiment = verify-clt\nhorizon = 11\nn_reps = 50\n")
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "n_reps >= %d" % stats.MIN_CLT_SAMPLES in capsys.readouterr().err
    assert from_dict({"experiment": "verify-clt", "n_reps": "100"})["n_reps"] == 100
    assert from_dict({"experiment": "verify-rate", "n_reps": "50"})["n_reps"] == 50


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
    horizon = 1.0 + steps * dt
    finite = st.floats(-1e3, 1e3)
    positive = st.floats(0.01, 10.0)
    lists = st.lists(finite, max_size=4).map(lambda v: ", ".join(map(repr, v)))
    experiment = draw(st.sampled_from(EXPERIMENTS))
    min_reps = stats.MIN_CLT_SAMPLES if experiment == "verify-clt" else 2
    raw = {"experiment": experiment, "model.name": name,
           "integrator.dt": repr(dt), "horizon": repr(horizon),
           "output.stride": str(stride)}
    own = {"theta_star": finite.map(repr), "rate_star": positive.map(repr),
           "level_star": finite.map(repr), "dim": st.integers(1, 4).map(str),
           "sigma": positive.map(repr)}
    for key in config_keys(name):
        if draw(st.booleans()):
            raw["model." + key] = draw(own[key])
    optional = {"model.theta_eval": lists, "integrator.x0": lists,
                "theta0.lo": lists, "theta0.hi": lists,
                "schedule.c_alpha": positive.map(repr),
                "n_reps": st.integers(min_reps, 10 ** 6).map(str),
                "master_seed": st.integers(0, 2 ** 64 - 1).map(str),
                "t_eval": st.integers(0, steps).map(lambda i: repr(1.0 + i * dt))}
    if experiment == "simulate":  # the one experiment that reads it
        optional["data.path_csv"] = st.from_regex(r"[a-z_/]{1,12}\.csv", fullmatch=True)
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


@pytest.mark.parametrize("c_alpha", ["1e5", "1e8"])
def test_the_covariance_routes_agree_at_a_large_c_alpha(tmp_path, c_alpha):
    # the quadrature's range used to be floored at s = 1, so it stepped over
    # the integrand's spike at s = 0 and missed the eigen route's whole value
    cfg = from_dict({"experiment": "predict-covariance", "schedule.c_alpha": c_alpha})
    report, status = run_experiment(cfg, tmp_path / "out")
    assert status == 0
    (verdict,) = report["verdicts"]
    assert verdict["criterion"] == "sigma_route_agreement"
    assert verdict["measured"] < 1e-8


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


@pytest.mark.parametrize("lo, hi, status", [(-5, 5, 0), (-3, 3, 2)])
def test_cli_poisson_solve_on_a_grid_of_the_users(tmp_path, lo, hi, status):
    # scalar_ou's stationary sd is 1/sqrt(2): +-3 leaves more than the
    # density check admits of its mass outside the grid
    cfg = write_config(tmp_path, """
experiment = poisson-solve
grid.lo = %d
grid.hi = %d
grid.n = 801
""" % (lo, hi))
    out = tmp_path / "out"
    assert main(["poisson-solve", "--config", str(cfg), "--out", str(out)]) == status
    report = json.loads((out / "report.json").read_text())
    if status:
        assert report["error"]["type"] == "PoissonError"
        assert "mass outside the grid" in report["error"]["message"]
        assert not (out / "poisson_solution.csv").exists()
        return
    x = np.loadtxt(out / "poisson_solution.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(x) == 801 and (x[0], x[-1]) == (-5.0, 5.0)


def test_cli_poisson_solve_refuses_a_model_of_two_states(tmp_path):
    cfg = write_config(tmp_path, """
experiment = poisson-solve
model.name = linear_system
""")
    out = tmp_path / "out"
    assert main(["poisson-solve", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "PoissonError"
    assert report["error"]["message"] == ("the Poisson solver is 1-D in x; "
                                          "state dimension is 2")


def test_cli_verify_rate_doubles_the_l2_band_for_l4_below_the_supercritical_regime(
        tmp_path):
    # scalar_ou at C_alpha = 0.3: C C_alpha = 0.15, subcritical, so the
    # predicted l2 slope is -0.3 and the l4 band is twice the l2 band
    cfg = write_config(tmp_path, """
experiment = verify-rate
schedule.c_alpha = 0.3
horizon = 21
n_reps = 20
integrator.dt = 0.01
integrator.burn_in_steps = 10
""")
    out = tmp_path / "out"
    assert main(["verify-rate", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert report["error"] is None
    l2, l4 = report["verdicts"][:2]
    assert (l2["criterion"], l4["criterion"]) == ("l2_slope", "l4_slope")
    assert l2["band"] == pytest.approx([-0.45, -0.15], abs=1e-12)
    assert l4["band"] == [2 * l2["band"][0], 2 * l2["band"][1]]


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


def test_cli_estimate_reports_a_diverging_replication(tmp_path):
    # an explosive schedule on a far-off start: the replication is screened
    # out at step 256, and estimate has no trajectory to write
    cfg = write_config(tmp_path, """
experiment = estimate
horizon = 500
integrator.dt = 0.5
integrator.burn_in_steps = 0
schedule.c_alpha = 1e9
schedule.c0 = 0
theta0.lo = -600
theta0.hi = -500
""")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "BlowupError"
    assert "diverged at step 256" in report["error"]["message"]
    assert not (out / "rep_0.csv").exists()


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


def test_cli_replay_reports_a_non_finite_update(tmp_path):
    # |x| ~ 1e200 takes theta past the bound at update 0; update 1 overflows it
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_1\n1.0,0.5\n1.01,1e200\n1.02,-1e200\n1.03,0.0\n")
    cfg = write_config(tmp_path, """
experiment = simulate
horizon = 20
data.path_csv = %s
""" % path_csv)
    out = tmp_path / "replay"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "BlowupError"
    assert "parameter update 0 diverged" in report["error"]["message"]
    assert not (out / "trajectory.csv").exists()


def test_cli_replay_books_a_theta_past_the_bound_as_run_batch_does(tmp_path):
    # update 0 takes theta to about -1e7, past THETA_BOUND, yet finite: the
    # replay used to run on to 1.99e19 and exit 0
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_1\n1.0,0.5\n1.01,1e7\n1.02,0.3\n1.03,0.2\n")
    cfg = write_config(tmp_path, "experiment = simulate\ndata.path_csv = %s\n" % path_csv)
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == {"type": "BlowupError",
                               "message": "parameter update 0 diverged (t = 1.0)"}
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("burn_in", [0, 40])
def test_cli_simulate_reports_the_step_its_state_diverged_at(tmp_path, burn_in):
    # with theta* = 3 and dt = 1 each step multiplies x by -2: |x| passes the
    # 1e8 bound on step 28, counted from the first burn-in step, whichever
    # part of the run that step falls in
    cfg = write_config(tmp_path, """
experiment = simulate
model.theta_star = 3
integrator.dt = 1
integrator.burn_in_steps = %d
horizon = 61
output.stride = 1
""" % burn_in)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == {"type": "BlowupError", "message":
                               "state diverged at step 28 (t = %r)" % (29.0 - burn_in)}
    assert not (out / "path.csv").exists()


@pytest.mark.parametrize("t0", [-2.995, -1.0])
def test_cli_replay_rejects_times_where_the_learning_rate_is_undefined(tmp_path, t0):
    # with schedule.c0 = 1, alpha_t = C_alpha / (1 + t) is negative from
    # t0 = -2.995 on (the replay used to run) and infinite at t0 = -1 (a
    # misleading BlowupError)
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_1\n%r,0.5\n%r,0.4\n%r,0.3\n" % (t0, t0 + 0.01, t0 + 0.02))
    cfg = write_config(tmp_path, "experiment = simulate\ndata.path_csv = %s\n" % path_csv)
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert "starts at t = %r" % t0 in report["error"]["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("rows,message", [
    ("1.0,0.5\nnan,0.4\n1.02,0.3\n1.03,0.2\n", "time on data row 2 is nan"),
    ("1.0,0.5\n1.01,0.4\n1.01,0.3\n1.03,0.2\n", "time on data row 3 is not above"),
    ("1.0,0.5\n1.01,0.4\n1.02,nan\n1.03,0.2\n", "state on data row 3 is not finite"),
])
def test_cli_replay_rejects_rows_no_update_can_run_on(tmp_path, rows, message):
    # a NaN time used to exit with a BlowupError once the update reached it
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_1\n" + rows)
    cfg = write_config(tmp_path, "experiment = simulate\ndata.path_csv = %s\n" % path_csv)
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert message in report["error"]["message"]
    assert not (out / "trajectory.csv").exists()


def test_cli_replay_rejects_a_csv_of_one_row(tmp_path):
    # one state and no increment: nothing to replay
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_1\n1.0,0.5\n")
    cfg = write_config(tmp_path, "experiment = simulate\ndata.path_csv = %s\n" % path_csv)
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert "has 1 row" in report["error"]["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("content,message", [
    ("t,x_1\n1.0,abc\n1.01,0.4\n", "data row 1: could not convert string 'abc'"),
    ("t,x_1,x_2\n1.0,0.5,0.1\n1.01,0.4\n", "data row 2: the number of columns changed"),
    ("t,x_1\n1.0,\n1.01,0.4\n", "data row 1: could not convert string ''"),
    ("t,x_1\n1.0,0.5\n1.01,abc\n", "data row 2: could not convert string 'abc'"),
    ("t,x_1\n\n# a note\n1.0,0.5\n\n1.01,abc\n", "data row 2: could not convert"),
    ("t,x_1\n", "has 0 rows; a replay needs an increment"),
    ("", "has 0 rows; a replay needs an increment"),
    (None, "not found"),
], ids=["non_numeric", "ragged", "empty_cell_on_row_1", "non_numeric_on_row_2",
        "non_numeric_below_blank_and_comment_lines", "header_only", "empty", "missing"])
def test_cli_replay_a_csv_that_cannot_be_read_is_a_config_error(tmp_path, content,
                                                                 message):
    # these used to exit with a bare ValueError or FileNotFoundError, or, for
    # a file of no rows, warn and then report 0 state columns; a bad row is
    # named as data row N, counted from 1 under the header as the replay's
    # row checks count, never by np.loadtxt's own position
    path_csv = tmp_path / "path.csv"
    if content is not None:
        path_csv.write_text(content)
    cfg = write_config(tmp_path, "experiment = simulate\ndata.path_csv = %s\n" % path_csv)
    out = tmp_path / "replay"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert seen == []
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert str(path_csv) in report["error"]["message"]
    assert message in report["error"]["message"]
    assert " at row" not in report["error"]["message"]
    assert not (out / "trajectory.csv").exists()


def test_a_command_that_only_writes_csv_does_not_build_the_kernel(tmp_path):
    # poisson-solve runs no step, so its CSV is formatted by Python's % and
    # no kernel is built or checked for it (a gcc run on a cold cache)
    src = os.path.dirname(os.path.dirname(driftfit.__file__))
    env = dict(os.environ, PYTHONPATH=src, HOME=str(tmp_path))
    done = subprocess.run([sys.executable, "-m", "driftfit.cli", "poisson-solve",
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "poisson_solution.csv").exists()
    assert not (tmp_path / ".cache" / "driftfit").exists()


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


@pytest.mark.parametrize("content", [None, b"experiment = estimate\nhorizon = 5\xff0\n"],
                         ids=["missing", "not_utf8"])
def test_cli_a_config_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys,
                                                                   content):
    path = tmp_path / "run.cfg"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: cannot read the config file" % path)
    assert not out.exists()


def test_data_path_csv_on_an_experiment_other_than_simulate_is_a_config_error(
        tmp_path, capsys):
    cfg = write_config(tmp_path, "data.path_csv = %s\n" % (tmp_path / "none.csv"))
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    assert ("key 'data.path_csv' is read only by experiment 'simulate', not by "
            "'estimate'") in capsys.readouterr().err
    assert not out.exists()
    for experiment in EXPERIMENTS:
        if experiment != "simulate":
            with pytest.raises(ConfigError, match="data.path_csv"):
                from_dict({"experiment": experiment, "data.path_csv": "p.csv"})


@pytest.mark.parametrize("sigma", ["1e-200", "1e-155", "1e200"])
@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_a_sigma_whose_noise_matrix_or_its_inverse_overflows_is_a_model_error(
        tmp_path, name, sigma):
    cfg = from_dict({"experiment": "estimate", "model.name": name,
                     "model.sigma": sigma, "horizon": "2", "integrator.dt": "0.01",
                     "integrator.burn_in_steps": "0"})
    report, status = run_experiment(cfg, tmp_path / "out")
    assert status == 2
    assert report["error"]["type"] == "ModelError"


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


def test_cli_verify_clt_rejects_horizon_off_the_dt_grid(tmp_path, capsys):
    # off the dt grid the CLT would be evaluated at t = 9.62, not at 10.002;
    # the run used to fail only when it built its engine config
    cfg = write_config(tmp_path, """
experiment = verify-clt
horizon = 10.002
integrator.burn_in_steps = 100
n_reps = 100
""")
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "(horizon - 1) / dt" in err and "not a whole number" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_horizon_off_the_dt_grid_is_a_config_error_where_it_is_read(experiment):
    raw = {"experiment": experiment, "horizon": "10.002"}
    if experiment in ("predict-covariance", "poisson-solve"):
        assert from_dict(raw)["horizon"] == 10.002  # neither reads the horizon
    else:
        with pytest.raises(ConfigError, match="horizon - 1"):
            from_dict(raw)


def test_cli_poisson_solve_rejects_theta_eval_of_the_wrong_length(tmp_path):
    # mean_reversion has two parameters; one value used to be broadcast to both
    cfg = write_config(tmp_path, """
experiment = poisson-solve
model.name = mean_reversion
model.theta_eval = 1.5
""")
    out = tmp_path / "out"
    assert main(["poisson-solve", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert "model.theta_eval has 1 entries" in report["error"]["message"]
    assert not (out / "poisson_solution.csv").exists()


@pytest.mark.parametrize("model, key, value, message", [
    ("mean_reversion", "theta0.lo", "0, 0, 0",
     "theta0.lo has 3 entries, but model 'mean_reversion' has 2 parameters"),
    ("linear_system", "theta0.hi", "1, 2", "theta0.hi has 2 entries"),
    ("scalar_ou", "integrator.x0", "1, 2",
     "integrator.x0 has 2 entries, but model 'scalar_ou' has state dimension 1"),
    ("linear_system", "integrator.x0", "1", "integrator.x0 has 1 entries"),
])
def test_cli_estimate_rejects_a_theta0_box_or_x0_of_the_wrong_length(
        tmp_path, model, key, value, message):
    # these used to exit 2 with numpy's broadcast error or a bare ValueError
    cfg = write_config(tmp_path, "experiment = estimate\nmodel.name = %s\n%s = %s\n"
                       % (model, key, value))
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert message in report["error"]["message"]
    assert not (out / "rep_0.csv").exists()


@pytest.mark.parametrize("box, message", [
    ("theta0.lo = 2\ntheta0.hi = 1\n", "theta0.lo [2.0] exceeds theta0.hi [1.0]"),
    # the unset theta0.hi is theta* + 1 = 2
    ("theta0.lo = 5\n", "theta0.lo [5.0] exceeds theta0.hi [2.0]"),
])
def test_a_theta0_box_with_lo_above_hi_is_a_config_error(tmp_path, box, message):
    # this used to exit 2 with a bare ValueError that named no key
    cfg = parse_config(write_config(
        tmp_path, "experiment = estimate\nmodel.name = scalar_ou\n" + box))
    report, status = run_experiment(cfg, tmp_path / "out")
    assert status == 2
    assert report["error"]["type"] == "ConfigError"
    assert message in report["error"]["message"]


@pytest.mark.parametrize("key", [key for key, (parser, _, _) in _SCHEMA.items()
                                 if parser in (float, _float_list)])
def test_a_non_finite_value_is_a_config_error_naming_its_key(key):
    # horizon = inf used to escape as an OverflowError, and a NaN theta* or
    # x0 to reach the run; in a list key, any entry counts
    for value in ("nan", "inf", "-inf"):
        raw = value if _SCHEMA[key][0] is float else "1, " + value
        with pytest.raises(ConfigError, match="key '%s': value .* is not finite" % key):
            from_dict({"experiment": "estimate", key: raw})
    if _SCHEMA[key][0] is float:
        with pytest.raises(ConfigError, match="is not finite"):
            from_dict({"experiment": "estimate", key: float("nan")})


def test_cli_rejects_an_infinite_horizon(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = estimate\nhorizon = inf\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'horizon'" in err and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("integrator.x0 = 2e8", "integrator.x0 [200000000.0] is past the divergence bound"),
    ("theta0.hi = 2e6", "theta0.hi [2000000.0] is past the divergence bound"),
    # the unset box is theta* -/+ 1
    ("model.theta_star = 1e6", "theta0.lo [999999.0] or theta0.hi [1000001.0] "
                               "is past the divergence bound"),
])
def test_an_x0_or_theta0_box_past_the_divergence_bounds_is_a_config_error(
        tmp_path, setting, message):
    # these used to run and fail every replication at its first screening
    cfg = parse_config(write_config(
        tmp_path, "experiment = estimate\nmodel.name = scalar_ou\n%s\n" % setting))
    report, status = run_experiment(cfg, tmp_path / "out")
    assert status == 2
    assert report["error"]["type"] == "ConfigError"
    assert message in report["error"]["message"]


def test_theta0_box_takes_one_entry_or_one_per_parameter():
    cfg = from_dict({"experiment": "estimate", "model.name": "mean_reversion",
                     "theta0.lo": "0.25", "theta0.hi": "2, 3", "integrator.x0": "0.5"})
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    npt.assert_array_equal(engine_cfg.theta0_lo, [0.25, 0.25])
    npt.assert_array_equal(engine_cfg.theta0_hi, [2.0, 3.0])
    npt.assert_array_equal(engine_cfg.integrator.x0, [0.5])


def test_a_run_that_needs_no_scipy_does_not_import_it(tmp_path):
    # scipy loads only inside the routines that call it (the quadrature
    # covariance route, the CLT diagnostics)
    script = """
import sys
import driftfit.cli
from driftfit.config import from_dict
from driftfit.experiments import run_experiment
cfg = from_dict({"experiment": "estimate", "horizon": "3", "integrator.dt": "0.01",
                 "integrator.burn_in_steps": "10"})
report, status = run_experiment(cfg, sys.argv[1])
assert status == 0, report
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    src = os.path.dirname(os.path.dirname(driftfit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_verify_clt_does_not_import_scipy_stats(tmp_path):
    # the KS statistic used to come from scipy.stats.kstest, about 20 MiB and
    # 0.35 s of a fresh verify-clt; 100 replications are the fewest it takes
    script = """
import sys
from driftfit.config import from_dict
from driftfit.experiments import run_experiment
cfg = from_dict({"experiment": "verify-clt", "model.name": "scalar_ou",
                 "master_seed": "3", "horizon": "1.5", "integrator.dt": "0.005",
                 "integrator.burn_in_steps": "10", "n_reps": "100"})
report, status = run_experiment(cfg, sys.argv[1])
assert report["error"] is None and status in (0, 1), report
print(",".join(sorted(m for m in sys.modules if m.startswith("scipy.stats"))))
"""
    src = os.path.dirname(os.path.dirname(driftfit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_building_any_model_and_its_engine_config_does_not_import_scipy():
    # linear_system used to load scipy.linalg for its Lyapunov solve, about
    # 0.2 s of every run on it
    script = """
import sys
from driftfit.config import from_dict
from driftfit.experiments import build_engine_config, build_model
from driftfit.models import BUILTIN_MODELS
for name in BUILTIN_MODELS:
    cfg = from_dict({"experiment": "estimate", "model.name": name})
    build_engine_config(cfg, *build_model(cfg))
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    src = os.path.dirname(os.path.dirname(driftfit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_cli_verify_clt_rejects_t_eval_past_the_horizon(tmp_path, capsys):
    # the CLT used to be evaluated at the last checkpoint, t = 11, instead
    cfg = write_config(tmp_path, """
experiment = verify-clt
horizon = 11
t_eval = 5000
n_reps = 10
""")
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    assert "t_eval 5000.0 is past the horizon 11.0" in capsys.readouterr().err
    assert not out.exists()
    from_dict({"experiment": "verify-clt", "horizon": "11", "t_eval": "11"})


def test_cli_verify_clt_checks_the_regime_before_any_replication(tmp_path, monkeypatch):
    # 2 C C_alpha = 0.8 <= 1 has no limiting covariance; every replication
    # used to run before the prediction refused it
    calls = []
    monkeypatch.setattr(stats, "run_replications", lambda *args: calls.append(args))
    cfg = write_config(tmp_path, "experiment = verify-clt\nschedule.c_alpha = 0.8\n"
                                 "horizon = 11\n")
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "RegimeError"
    assert calls == []


def test_cli_verify_clt_evaluates_at_t_eval_exactly(tmp_path, monkeypatch):
    # t_eval = 150 used to be moved to the nearest geometric checkpoint, 152.77
    evaluated = []
    rescaled_sample = stats.rescaled_sample

    def recording(reps, t_eval):
        evaluated.append(t_eval)
        return rescaled_sample(reps, t_eval)

    monkeypatch.setattr(stats, "rescaled_sample", recording)
    cfg = write_config(tmp_path, """
experiment = verify-clt
horizon = 200
t_eval = 150
integrator.dt = 0.05
integrator.burn_in_steps = 100
""")
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert evaluated == [pytest.approx(150.0, abs=1e-9)]
    samples = np.loadtxt(out / "clt_samples.csv", delimiter=",", skiprows=1)
    assert samples.shape == (100, 2)
    # off the dt grid no step lands on t_eval
    with pytest.raises(ConfigError, match="t_eval - 1"):
        from_dict({"experiment": "verify-clt", "horizon": "200", "t_eval": "150.001"})


def test_a_horizon_within_rounding_of_a_step_records_its_last_checkpoint(tmp_path):
    # 200.00000001 passed the grid check, yet rep_0.csv used to end at t = 182.83
    # with 59 rows: the last checkpoint rounded up past the last step
    text = "experiment = estimate\nintegrator.dt = 0.01\nhorizon = %s\n"
    csvs = []
    for horizon in ("200", "200.00000001"):
        out = tmp_path / horizon
        cfg = write_config(tmp_path, text % horizon)
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        csvs.append((out / "rep_0.csv").read_bytes())
    assert csvs[1] == csvs[0]
    assert csvs[0].splitlines()[-1].startswith(b"200,")


def test_a_t_eval_within_rounding_of_a_step_is_evaluated_there(tmp_path):
    # t_eval = 150.00000001 passed the grid check, yet every replication ran
    # before "t_eval=150 is not a checkpoint" failed the run
    text = ("experiment = verify-clt\nhorizon = 200\nintegrator.dt = 0.01\n"
            "integrator.burn_in_steps = 100\nt_eval = %s\n")
    reports = []
    for t_eval in ("150", "150.00000001"):
        out = tmp_path / t_eval
        cfg = write_config(tmp_path, text % t_eval)
        assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[1]["error"] is None
    assert reports[1]["verdicts"] == reports[0]["verdicts"]


def test_a_slope_window_with_fewer_than_two_checkpoints_is_a_config_error(
        tmp_path, monkeypatch):
    # [150, 160] holds one of the 60 checkpoints up to 200; every replication
    # used to run before the slope fit refused it
    calls = []
    monkeypatch.setattr(stats, "run_replications", lambda *args: calls.append(args))
    cfg = write_config(tmp_path, "experiment = verify-rate\nhorizon = 200\n"
                                 "slope.window_lo = 150\nslope.window_hi = 160\n")
    out = tmp_path / "out"
    assert main(["verify-rate", "--config", str(cfg), "--out", str(out)]) == 2
    assert calls == [] and not out.exists()
    with pytest.raises(ConfigError, match="holds 1 of the 60 checkpoints"):
        from_dict({"experiment": "regime-sweep", "horizon": "200",
                   "slope.window_lo": "150", "slope.window_hi": "160"})
    from_dict({"experiment": "verify-rate", "horizon": "200",
               "slope.window_lo": "130", "slope.window_hi": "160"})
    # verify-clt fits no slope
    from_dict({"experiment": "verify-clt", "horizon": "200",
               "slope.window_lo": "150", "slope.window_hi": "160"})


def test_cli_verify_rate_rejects_an_empty_slope_window(tmp_path, capsys):
    # slope.window_hi defaults to the horizon, 11; the slope fit used to fail
    # only after every replication had run, leaving moments.csv behind
    cfg = write_config(tmp_path, """
experiment = verify-rate
horizon = 11
slope.window_lo = 500
n_reps = 10
""")
    out = tmp_path / "out"
    assert main(["verify-rate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "slope window [500.0, 11.0] is empty" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="slope window"):
        from_dict({"experiment": "regime-sweep", "slope.window_lo": "5",
                   "slope.window_hi": "5"})
    from_dict({"experiment": "verify-rate", "horizon": "11", "slope.window_lo": "5"})


def test_cli_regime_sweep(tmp_path):
    # scalar_ou: C = E[X^2] / sigma^2 = 1/2, so C C_alpha = 0.4 is subcritical
    # with predicted l2 slope -2 C C_alpha = -0.8
    cfg = write_config(tmp_path, """
experiment = regime-sweep
schedule.c_alpha = 0.8
horizon = 50
integrator.dt = 0.01
integrator.burn_in_steps = 200
n_reps = 32
master_seed = 3
""")
    out = tmp_path / "out"
    status = main(["regime-sweep", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["error"] is None
    cc, slope = report["verdicts"]
    assert status == (0 if cc["passed"] and slope["passed"] else 1)
    assert cc["criterion"] == "regime_cc_alpha"
    assert cc["measured"] == pytest.approx(0.4, abs=1e-6)
    assert cc["band"] == [cc["measured"], cc["measured"]] and cc["passed"]
    assert slope["criterion"] == "regime_l2_slope"
    lo, hi = slope["band"]
    assert (lo, hi) == pytest.approx((-0.8 - 0.15, -0.8 + 0.15), abs=1e-6)
    assert slope["passed"] == (lo <= slope["measured"] <= hi)
    moments = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1)
    assert (out / "moments.csv").read_text().startswith("t,p,value\n")
    assert np.all(moments[:, 1] == 2) and len(moments) > 2
    assert np.all(np.diff(moments[:, 0]) > 0)  # one curve, one row per checkpoint


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


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("keys, message", [
    # about 2e300 steps, which int64 used to turn into -9223372036854775808
    ({"integrator.dt": "1e-300", "horizon": "3"}, r"a step count must not pass 2\*\*53"),
    # 200000 time units, which IntegratorConfig refused only when a run built it
    ({"integrator.dt": "0.01", "integrator.burn_in_steps": "20000001"},
     "is a burn-in of 200000.01 time units, past the limit of 100000"),
])
def test_a_run_too_long_to_count_is_a_config_error_where_it_is_read(experiment, keys,
                                                                    message):
    raw = dict(keys, experiment=experiment)
    if experiment in ("predict-covariance", "poisson-solve"):
        from_dict(raw)  # neither reads the integrator or the horizon
    else:
        with pytest.raises(ConfigError, match=message):
            from_dict(raw)


SMALL_RUN = {"horizon": "3", "integrator.dt": "0.5", "n_reps": "100",
             "checkpoints.n": "5", "grid.n": "201", "output.stride": "1"}


@pytest.mark.parametrize("experiment", ["verify-rate", "regime-sweep", "verify-clt",
                                        "predict-covariance"])
def test_a_singular_hessian_is_the_same_regime_error_in_every_experiment(tmp_path,
                                                                         experiment):
    # verify-rate and regime-sweep used to exit with a ScheduleError
    cfg = from_dict(dict(SMALL_RUN, experiment=experiment, **{
        "model.name": "mean_reversion", "model.sigma": "1e-12",
        "model.level_star": "3"}))
    report, status = run_experiment(cfg, tmp_path / "out")
    assert status == 2
    assert report["error"]["type"] == "RegimeError"
    assert report["error"]["message"].startswith("Hessian must be positive definite")


@pytest.mark.parametrize("experiment", ["verify-clt", "predict-covariance"])
def test_a_c_alpha_whose_square_overflows_is_a_covariance_error(tmp_path, experiment):
    # both used to exit with Python's OverflowError from c_alpha ** 2
    cfg = from_dict(dict(SMALL_RUN, experiment=experiment,
                         **{"schedule.c_alpha": "1e155"}))
    report, status = run_experiment(cfg, tmp_path / "out")
    assert status == 2
    assert report["error"] == {"type": "CovarianceError", "message":
                               "C_alpha^2 hbar is not finite at C_alpha = 1e+155 "
                               "(largest |hbar| 0.5)"}


# Values at the edges of what a run can hold: the float range, squares and
# inverses that overflow, zero, a negative, a burn-in step count past the
# limit, a vanishing sigma and a decay rate that makes an Euler step of
# dt = 1 explode.
EXTREMES = ("1e300", "-1e300", "1e-300", "-1e-300", "1e155", "1e-155", "0", "-1",
            "20000001", "1e-12", "3")
# the keys a run's size grows with, and the values that keep every run small
# (dt = 1e-300 is refused before it runs)
CAPPED = {"horizon": ("2", "3", "5"), "integrator.dt": ("0.01", "0.5", "1", "1e-300"),
          "n_reps": ("2", "100"), "checkpoints.n": ("2", "5"), "grid.n": ("3", "201"),
          "model.dim": ("1", "3")}
SET_KEYS = sorted(set(_SCHEMA) - {"experiment", "model.name", "data.path_csv"})
# the errors that name what is wrong with the configured run
DOMAIN_ERRORS = {"ConfigError", "ModelError", "CovarianceError", "RegimeError",
                 "PoissonError", "BlowupError", "ReplicationError"}


@st.composite
def extreme_configs(draw):
    """A small run of any experiment and model, with 1 to 3 keys set to
    extreme values."""
    raw = dict(SMALL_RUN, experiment=draw(st.sampled_from(EXPERIMENTS)),
               horizon=draw(st.sampled_from(CAPPED["horizon"])),
               **{"model.name": draw(st.sampled_from(sorted(BUILTIN_MODELS))),
                  "integrator.dt": draw(st.sampled_from(CAPPED["integrator.dt"][:3]))})
    for key in draw(st.lists(st.sampled_from(SET_KEYS), min_size=1, max_size=3,
                             unique=True)):
        raw[key] = draw(st.sampled_from(CAPPED.get(key, EXTREMES)))
    return raw


def small_run(experiment, model="scalar_ou", **keys):
    return dict(SMALL_RUN, experiment=experiment, **{"model.name": model}, **keys)


@settings(max_examples=40, deadline=None)
@given(raw=extreme_configs())
@example(raw=small_run("estimate", **{"integrator.dt": "0.01",
                                      "integrator.burn_in_steps": "20000001"}))
@example(raw=small_run("estimate", **{"integrator.dt": "1e-300"}))
@example(raw=small_run("verify-rate", "mean_reversion",
                       **{"model.sigma": "1e-12", "model.level_star": "3"}))
@example(raw=small_run("predict-covariance", **{"schedule.c_alpha": "1e155"}))
@example(raw=small_run("simulate", **{"model.theta_star": "3", "integrator.dt": "1"}))
def test_an_extreme_config_fails_only_with_a_config_or_domain_error(raw):
    try:
        cfg = from_dict(raw)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflows on the way
        report, status = run_experiment(cfg, out)
    if status in (0, 1):
        assert report["error"] is None
    else:
        assert status == 2 and report["error"]["type"] in DOMAIN_ERRORS, report["error"]
