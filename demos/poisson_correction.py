"""The stationary Poisson equation behind the noise covariance.

The limiting covariance of the rescaled estimation error involves
h_bar(theta), an average over the invariant measure of the squared
effective gradient; away from the optimum the gradient is corrected by
the x-derivative of the solution v of the Poisson equation
L_x v = grad gbar - grad g.

For the scalar mean-reverting family everything is available in closed
form, so this script solves the equation numerically and prints the
errors, then shows the correction growing as theta moves away from the
truth (at theta* the correction vanishes and h_bar equals the curvature
C = 1/2).
"""
import numpy as np

import driftfit as df
from driftfit import poisson

model, noise = df.scalar_ou(theta_star=1.0, sigma=1.0)

# L_x (x^2/2 - 1/4) = 1/2 - x^2 for the generator -x d/dx + (1/2) d^2/dx^2
grid = poisson.Grid1D(-8.0, 8.0, 32001)
sol = poisson.solve(model, noise, 0.5 - grid.nodes ** 2, grid)
sel = np.abs(grid.nodes) <= 5.0
print("Poisson test problem G = 1/2 - x^2 (exact v = x^2/2 - 1/4):")
print("  sup |dv/dx - x|  on [-5, 5]: %.2e"
      % np.abs(sol.dv_dx[sel] - grid.nodes[sel]).max())
print("  sup |v - exact|  on [-5, 5]: %.2e"
      % np.abs(sol.v[sel] - (grid.nodes[sel] ** 2 / 2 - 0.25)).max())
print("  generator residual sup     : %.2e" % sol.residual_sup)

print()
print("h_bar along a path of evaluation points "
      "(closed form (1 + theta - theta*)^2 / 2):")
print("  theta    h_bar      exact")
for theta in (1.0, 1.2, 1.5, 2.0):
    h = poisson.hbar(model, noise, theta=np.array([theta]))[0, 0]
    exact = (1.0 + theta - 1.0) ** 2 * 0.5
    print("  %4.1f   %.6f   %.6f" % (theta, h, exact))
