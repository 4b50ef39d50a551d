"""Trend filtering: fit a piecewise-constant trend to a random walk.

The parameters are the increments of the fitted series, so a sparsity
budget of ten means the trend may jump at most ten times.  This is the
higher-dimensional example (one parameter per observation): the objective
below has 500 parameters, and the splicing solver spends 14 outer
iterations and 97 restricted refits (8,563 L-BFGS iterations, 96 of the
refits stopping short of the tolerance) on it.  These counts do not depend
on the machine; the refits take most of the solve's time.
"""

import numpy as np

import sco

rng = np.random.default_rng(2023)
data = np.cumsum(rng.standard_normal(500))

# the raw-norm objective is expressible too...
raw = sco.build_objective(lambda params: sco.norm(data - sco.cumsum(params)), 500)
print("raw-norm objective at zero:", round(raw.value(np.zeros(500)), 3))

# ...but the squared form is smooth at a perfect fit, so the solvers use it
oracle = sco.build_objective(
    lambda params: 0.5 * sco.sqnorm(data - sco.cumsum(params)), 500, scale="rss"
)
problem = sco.ScoProblem(p=500, s=10, oracle=oracle, n=500)
solution = sco.solve("scope", problem)

fitted = np.cumsum(solution.params)
jumps = np.flatnonzero(solution.params)
print("fitted trend jumps at:", jumps)
print("objective:", round(solution.objective, 3),
      "vs flat-zero fit:", round(oracle.value(np.zeros(500)), 3))

with open("trend_filtering_fit.csv", "w") as fh:
    fh.write("observation,fitted\n")
    for o, f in zip(data, fitted):
        fh.write(f"{o!r},{f!r}\n")
print("wrote trend_filtering_fit.csv (plot the two columns to see the fit)")
