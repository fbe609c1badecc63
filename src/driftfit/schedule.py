"""Learning-rate schedules alpha_t = C_alpha / (C_0 + t) and regime analysis."""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.integrate import quad


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


@dataclasses.dataclass(frozen=True)
class RegimeReport:
    cc_alpha: float
    regime: str  # supercritical | boundary | subcritical
    predicted_l2_slope: float
    log_correction: bool = False


def alpha(s: ScheduleSpec, t) -> float:
    """C_alpha / (C_0 + t)."""
    t = np.asarray(t, dtype=float)
    if np.any(s.c0 + t <= 0):
        raise ScheduleError("C_0 + t must be positive")
    out = s.c_alpha / (s.c0 + t)
    return float(out) if out.ndim == 0 else out


def regime_check(s: ScheduleSpec, convexity_constant: float) -> RegimeReport:
    """Classify C * C_alpha against the critical product 1.

    In the supercritical regime the optimal 1/t mean-square rate holds;
    below it the rate degrades to t^(-2 C C_alpha).
    """
    if not convexity_constant > 0:
        raise ScheduleError("convexity constant must be positive")
    cc = convexity_constant * s.c_alpha
    if cc > 1 + 1e-12:
        return RegimeReport(cc, "supercritical", -1.0)
    if cc < 1 - 1e-12:
        return RegimeReport(cc, "subcritical", -2.0 * cc)
    return RegimeReport(cc, "boundary", -1.0, log_correction=True)


def bracket_limit(s: ScheduleSpec, lambda_sum: float, horizon: float = 1e6,
                  tol: float = 1e-4) -> float:
    """Evaluate alpha_t^-1 int_1^t alpha_s^2 exp(-lambda_sum int_s^t alpha_u du) ds.

    This is the general-schedule replacement for the closed-form bracket
    C_alpha^2 / (lambda_sum C_alpha - 1), evaluated at t = horizon by
    adaptive quadrature (log-time substitution so the mass near t is
    resolved).  The weight is C_alpha / alpha_t: the plain inverse-rate
    weight would come out a factor C_alpha short of the closed form it
    must reduce to for the polynomial schedule.
    """
    if not lambda_sum * s.c_alpha > 1:
        raise ScheduleError(
            "divergent regime: lambda_sum * C_alpha = %g <= 1"
            % (lambda_sum * s.c_alpha))
    if horizon <= 1:
        raise ScheduleError("horizon must exceed the initial time t = 1")
    p = lambda_sum * s.c_alpha
    wt = s.c0 + horizon

    def integrand_log(y):
        # substitution w = C_0 + s = e^y
        w = np.exp(y)
        return s.c_alpha ** 2 / w * (w / wt) ** p

    val, err = quad(integrand_log, np.log(s.c0 + 1.0), np.log(wt),
                    epsabs=tol * 1e-3, epsrel=tol * 1e-3, limit=500)
    return val * s.c_alpha / alpha(s, horizon)
