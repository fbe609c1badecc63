import numpy as np
import numpy.testing as npt
import pytest

from driftfit.schedule import ScheduleError, ScheduleSpec, regime_check


def test_alpha_values():
    s = ScheduleSpec(c_alpha=4.0, c0=1.0)
    assert s.alpha(1.0) == pytest.approx(2.0)
    assert s.alpha(999.0) == pytest.approx(0.004)
    npt.assert_allclose(s.alpha(np.array([1.0, 3.0])), [2.0, 1.0])


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        ScheduleSpec(c_alpha=0.0)
    with pytest.raises(ScheduleError):
        ScheduleSpec(c_alpha=1.0, c0=-1.0)


def test_regime_classification():
    sup = regime_check(ScheduleSpec(4.0), 0.5)
    assert sup.regime == "supercritical"
    assert sup.cc_alpha == pytest.approx(2.0)
    assert sup.predicted_l2_slope == -1.0

    # the critical value is 2 C C_alpha = 1: above it the 1/t rate holds
    for c_alpha in (1.2, 1.6):  # C C_alpha = 0.6, 0.8
        mid = regime_check(ScheduleSpec(c_alpha), 0.5)
        assert mid.regime == "supercritical"
        assert mid.predicted_l2_slope == -1.0

    sub = regime_check(ScheduleSpec(0.8), 0.5)
    assert sub.regime == "subcritical"
    assert sub.predicted_l2_slope == pytest.approx(-0.8)

    edge = regime_check(ScheduleSpec(1.0), 0.5)
    assert edge.regime == "boundary"
    assert edge.predicted_l2_slope == -1.0

    with pytest.raises(ScheduleError):
        regime_check(ScheduleSpec(1.0), 0.0)
