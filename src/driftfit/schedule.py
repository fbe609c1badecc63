"""Learning-rate schedules alpha_t = C_alpha / (C_0 + t) and regime analysis."""
from __future__ import annotations

import dataclasses


class ScheduleError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    c_alpha: float
    c0: float = 0.0

    def __post_init__(self):
        if not self.c_alpha > 0:
            raise ScheduleError("c_alpha must be positive, got %r" % (self.c_alpha,))
        if self.c0 < 0:
            raise ScheduleError("c0 must be nonnegative, got %r" % (self.c0,))

    def alpha(self, t):
        """C_alpha / (C_0 + t); unchecked, so callers keep C_0 + t > 0."""
        return self.c_alpha / (self.c0 + t)


@dataclasses.dataclass(frozen=True)
class RegimeReport:
    cc_alpha: float
    regime: str  # supercritical | boundary | subcritical
    predicted_l2_slope: float


def regime_check(s: ScheduleSpec, convexity_constant: float) -> RegimeReport:
    """Classify 2 C C_alpha against 1, the one critical value.

    The linearised error dynamics at theta* decay like 1/t exactly when
    2 C C_alpha > 1, which is also when the CLT covariance exists: then the
    mean-square error falls like 1/t.  Below it the error falls like
    t^(-C C_alpha), so the mean-square error like t^(-2 C C_alpha); at the
    boundary 1/t picks up a log factor.
    """
    if not convexity_constant > 0:
        raise ScheduleError("convexity constant must be positive")
    cc = convexity_constant * s.c_alpha
    if 2.0 * cc > 1 + 1e-12:
        return RegimeReport(cc, "supercritical", -1.0)
    if 2.0 * cc < 1 - 1e-12:
        return RegimeReport(cc, "subcritical", -2.0 * cc)
    return RegimeReport(cc, "boundary", -1.0)
