"""Bourgain systems and the exact chain metric built from one.

A radius family sampled on the ternary grid is audited against the four
system axioms; a clean system yields the chain pseudo-metric rho, computed
as an exact shortest path, sandwiched between the system's own levels.
"""

import numpy as np

from addcomb import (FinAbGroup, birkhoff_metric, constant_family,
                     interval_family, sandwich_audit, subgroup_generated,
                     system_from_balls)

g = FinAbGroup([64])
system = system_from_balls(interval_family(g, 16.0), d=1.25)
print("axioms pass:", system.audit.all_pass, "| grid depth:", system.depth)
for r, S in system.levels.items():
    print(f"  S_{r:<9.4g} measure {S.measure}")

metric = birkhoff_metric(system)
print("rho over the first few elements:", metric.rho[:8])
print("rho*(6) =", metric.rho_star[6], " rho(6) =", metric.rho[6], "(chain 5+1 wins)")

# the two-sided sandwich at every grid radius
for v in sandwich_audit(metric):
    print(f"  delta={v.delta:<9.4g} left={v.left_ok} right={v.right_ok}")

# factor-2 equivalence between the one-step and chain costs
upper_ok, lower_ok = metric.factor_two()
print("rho <= rho*:", upper_ok)
print("rho >= rho*/2:", lower_ok)

# a subgroup is a zero-dimensional system: rho vanishes on it
H = subgroup_generated(g, [g.element(8)])
msub = birkhoff_metric(system_from_balls(constant_family(H), d=0.0))
print("rho on the subgroup:", sorted(set(msub.rho[list(H.indices())])))
print("rho off the subgroup is infinite:", np.isinf(msub.rho[1]))
