import numpy as np
import numpy.testing as npt
import pytest

from driftfit.schedule import (ScheduleError, ScheduleSpec, alpha,
                               bracket_limit, regime_check)


def test_alpha_values():
    s = ScheduleSpec(c_alpha=4.0, c0=1.0)
    assert alpha(s, 1.0) == pytest.approx(2.0)
    assert alpha(s, 999.0) == pytest.approx(0.004)
    npt.assert_allclose(alpha(s, np.array([1.0, 3.0])), [2.0, 1.0])


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        ScheduleSpec(c_alpha=0.0)
    with pytest.raises(ScheduleError):
        ScheduleSpec(c_alpha=1.0, c0=-1.0)
    with pytest.raises(ScheduleError):
        alpha(ScheduleSpec(c_alpha=1.0, c0=0.0), 0.0)


def test_regime_classification():
    sup = regime_check(ScheduleSpec(4.0), 0.5)
    assert sup.regime == "supercritical"
    assert sup.cc_alpha == pytest.approx(2.0)
    assert sup.predicted_l2_slope == -1.0
    assert not sup.log_correction

    sub = regime_check(ScheduleSpec(0.8), 0.5)
    assert sub.regime == "subcritical"
    assert sub.predicted_l2_slope == pytest.approx(-0.8)

    edge = regime_check(ScheduleSpec(2.0), 0.5)
    assert edge.regime == "boundary"
    assert edge.log_correction

    with pytest.raises(ScheduleError):
        regime_check(ScheduleSpec(1.0), 0.0)


def test_bracket_limit_matches_closed_form():
    # closed form for alpha_t = C_alpha / t: C_alpha^2 / (lam C_alpha - 1)
    assert bracket_limit(ScheduleSpec(2.0), 2.0) == pytest.approx(4.0 / 3.0,
                                                                  abs=1e-4)
    assert bracket_limit(ScheduleSpec(1.0), 3.0) == pytest.approx(0.5, abs=1e-4)
    assert bracket_limit(ScheduleSpec(4.0), 1.0) == pytest.approx(16.0 / 3.0,
                                                                  abs=2e-4)


def test_bracket_limit_with_offset_converges():
    # C_0 shifts the schedule but not the t -> infinity limit
    val = bracket_limit(ScheduleSpec(2.0, c0=5.0), 2.0, horizon=1e8)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-3)


def test_bracket_limit_divergent_regime():
    with pytest.raises(ScheduleError):
        bracket_limit(ScheduleSpec(1.0), 1.0)
    with pytest.raises(ScheduleError):
        bracket_limit(ScheduleSpec(2.0), 2.0, horizon=0.5)
