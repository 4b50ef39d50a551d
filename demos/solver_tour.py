"""All eight solvers on one instance, checked against the exhaustive oracle.

The exhaustive oracle enumerates every size-s support and refits each with
the restricted minimizer, so at p=10, s=3 it finds the best subset up to
the accuracy of those refits; each solver's objective is compared to it.
Also shows group sparsity and preselected (always-active) parameters.
"""

import numpy as np

import sco
from sco import bench, models
from sco.solvers import SolverKind

spec = models.ModelSpec("linear", 40, 10, 3, 5.0, seed=1)
dataset = models.generate(spec)
problem = models.build_problem(dataset, s=3)
best = bench.exhaustive_oracle(problem)
print(f"exhaustive best: support {best.support}, "
      f"objective {best.objective:.6f} "
      f"({best.iterations} supports enumerated)")

for kind in SolverKind:
    sol = sco.solve(kind, problem)
    gap = sol.objective - best.objective
    m = bench.support_metrics(dataset.support_true, sol.support, spec.p)
    print(f"{kind.value:8s} support {sol.support}  gap {gap:9.2e}  "
          f"accuracy {m.accuracy:.2f}  iterations {sol.iterations}")

# group sparsity: units are coordinate blocks that enter or leave together
rng = np.random.default_rng(3)
X = rng.standard_normal((80, 12))
theta = np.zeros(12)
theta[[4, 5, 8, 9]] = [2.0, -1.5, 1.8, 2.2]
y = X @ theta + 0.05 * rng.standard_normal(80)
oracle = sco.build_objective(lambda t: 0.5 * sco.sqnorm(y - X @ t), 12, scale="rss")
grouped = sco.ScoProblem(p=12, s=2, oracle=oracle,
                         groups=np.repeat(np.arange(6), 2), n=80)
sol = sco.solve("scope", grouped)
print("group-sparse fit selects whole blocks:", sol.support)

# preselected coordinates stay active and do not consume the budget
pre = sco.ScoProblem(p=12, s=1, oracle=oracle, preselect=np.array([4, 5]), n=80)
sol = sco.solve("scope", pre)
print("with coordinates 4, 5 preselected, the single budgeted pick is:", sol.support)
