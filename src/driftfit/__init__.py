"""driftfit: continuous-time stochastic gradient descent for SDE drift
estimation, with analytic covariance predictors and a Monte Carlo
verification harness."""

import os

# Matrices here are k x k for k drift parameters, yet OpenBLAS hands the small
# LU solve inside every scipy.linalg.expm to a worker thread, and while that
# worker shares the caller's CPU each call waits a scheduler tick.  Must run
# before numpy and scipy load their BLAS; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .models import (AnalyticInfo, DriftModelSpec, NoiseSpec, bounded_link,
                     linear_system, mean_reversion, pointwise_objective, scalar_ou)
from .sde import BlowupError, IntegratorConfig, euler_step, simulate_path
from .schedule import RegimeReport, ScheduleSpec, regime_check
from .engine import (EngineConfig, geometric_checkpoints, run_batch, seed_split,
                     sgdct_step, splitmix64)
from .poisson import Grid1D, PoissonSolution, default_grid, hbar, solve, \
    stationary_density
from .covariance import moment_ode_oracle, sigma_bar_eigen, sigma_bar_quadrature
from .stats import (CltReport, ReplicationSet, SlopeEstimate, clt_diagnostics,
                    loglog_slope, moment_curve, rescaled_sample,
                    run_replications)

__version__ = "0.1.0"
