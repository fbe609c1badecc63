"""Central limit behavior of the online drift estimator.

Runs a few hundred replications of the coupled data/parameter system for
the scalar mean-reverting family dX = -theta* X dt + dW, rescales the
final errors by sqrt(T), and compares their spread against the predicted
limiting variance C_alpha^2 h / (2 C C_alpha - 1) = 8/3.

Small-scale version of the `driftfit verify-clt` experiment; takes about
half a minute.
"""
import numpy as np

import driftfit as df
from driftfit import stats

HORIZON = 500.0
N_REPS = 400
SEED = 7

model, noise = df.scalar_ou(theta_star=1.0, sigma=1.0)
config = df.EngineConfig(
    model=model, noise=noise,
    schedule=df.ScheduleSpec(c_alpha=4.0, c0=1.0),
    integrator=df.IntegratorConfig(dt=0.01, burn_in_steps=1000),
    horizon=HORIZON,
    checkpoint_times=df.geometric_checkpoints(HORIZON, 40))

print("running %d replications to T = %g ..." % (N_REPS, HORIZON))
reps = stats.run_replications(config, N_REPS, SEED)

sample = stats.rescaled_sample(reps, float(reps.times[-1]))
pred = df.sigma_bar_eigen(np.array([[0.5]]), np.array([[0.5]]), 4.0)
report = stats.clt_diagnostics(sample, pred)

print()
print("predicted limiting variance : %.4f" % pred[0, 0])
print("empirical variance          : %.4f" % report.empirical_cov[0, 0])
print("ratio                       : %.3f" % report.variance_ratio[0, 0])
print("KS statistic vs normal      : %.4f  (1%% critical %.4f)"
      % (report.ks_statistic[0],
         stats.KS_CRITICAL_1PCT / np.sqrt(report.n_samples)))

# coarse text histogram of the standardized sample
z = sample[:, 0] / np.sqrt(pred[0, 0])
edges = np.linspace(-3.5, 3.5, 15)
counts, _ = np.histogram(z, edges)
print()
for lo, hi, c in zip(edges[:-1], edges[1:], counts):
    print("%+5.2f .. %+5.2f | %s" % (lo, hi, "#" * int(round(60 * c / counts.max()))))
