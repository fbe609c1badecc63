"""How the learning-rate magnitude sets the convergence rate.

With alpha_t = C_alpha / (C_0 + t) the mean-square error decays like
t^-1 when 2 C C_alpha > 1 (C is the curvature of the averaged objective at
the truth) but only like t^(-2 C C_alpha) below that threshold.  For the
scalar mean-reverting family C = 1/2, so C_alpha = 4 is comfortably
supercritical while C_alpha = 0.8 (2 C C_alpha = 0.8) is not.

Prints the measured log-log slopes next to the predictions, and the
approximate second-moment ODE curve for the supercritical run.
"""
import numpy as np

import driftfit as df
from driftfit import stats

HORIZON = 500.0
N_REPS = 300
SEED = 11

model, noise = df.scalar_ou(1.0, 1.0)
curves = {}
for c_alpha in (4.0, 0.8):
    sched = df.ScheduleSpec(c_alpha=c_alpha, c0=1.0)
    config = df.EngineConfig(
        model=model, noise=noise, schedule=sched,
        integrator=df.IntegratorConfig(dt=0.01, burn_in_steps=1000),
        horizon=HORIZON,
        checkpoint_times=df.geometric_checkpoints(HORIZON, 40))
    regime = df.regime_check(sched, convexity_constant=0.5)
    print("C_alpha = %.1f  (C C_alpha = %.2f, %s; predicted slope %.2f)"
          % (c_alpha, regime.cc_alpha, regime.regime,
             regime.predicted_l2_slope))
    reps = stats.run_replications(config, N_REPS, SEED)
    t, m2 = stats.moment_curve(reps, 2.0)
    est = stats.loglog_slope(t, m2, (10.0, HORIZON))
    print("   measured slope %.3f +/- %.3f over t in [10, %g]"
          % (est.slope, est.stderr, HORIZON))
    curves[c_alpha] = (t, m2)

# the descent/noise balance ODE tracks the supercritical curve closely
t, m2 = curves[4.0]
oracle = df.moment_ode_oracle(0.5, 0.5, df.ScheduleSpec(4.0, 1.0),
                              m0=1.0 / 3.0, t_grid=t)
print()
print("   t      E|err|^2   ODE oracle   ratio")
for i in range(0, len(t), 6):
    print("%7.1f   %.2e   %.2e   %.3f" % (t[i], m2[i], oracle[i],
                                          m2[i] / oracle[i]))
