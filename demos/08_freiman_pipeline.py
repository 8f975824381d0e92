"""The end-to-end containment pipeline on a slowly growing set.

Starting from A = {-2..2} in Z_256 with growth exponent d = 1: pick the
pigeonhole index l, cut the spectrum of lA, cover it in the dual, build the
Bohr ball, and verify A - A lands inside. The report is deterministic JSON.
"""

from addcomb import FinAbGroup, FreimanConfig, GroupSet, run_freiman
from addcomb.serialize import dumps

A = GroupSet.interval(FinAbGroup([256]), 2)
report = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5))

print("pigeonhole index l =", report.l, " ratio K_l =", report.K_l)
print("epsilon requested/used:", report.epsilon_requested, "/", report.epsilon_used)
print("covering escaped (epsilon too large for the dual search):",
      report.escape_flagged)
print("spectrum size:", report.spectrum.count)
print("ball radius:", round(report.radius, 6),
      "(guaranteed:", round(report.guaranteed_radius, 6), ")")
print("containment A-A in B:", report.containment)
print("vacuous (B is all of G, or its radius is at least 1/2):", report.vacuous)
print("empirical dimension of the ball family:",
      round(report.dimension.empirical_dim, 4))
print("measure ratio mu(B)/mu(A):", report.measure_ratio)
print("lower-bound audit holds:", report.lowerbound.holds)
for link in report.chain:
    print(f"  chain: {link.name}: holds={link.holds} applicable={link.applicable}")

# paper-faithful constants degenerate at this scale and say so
paper = run_freiman(A, FreimanConfig(d=1.0, mode="paper"))
print("paper mode: epsilon =", round(paper.epsilon_requested, 6),
      "degenerate:", paper.degenerate, "containment:", paper.containment)

# the full report serializes byte-identically across runs
text = dumps(report.to_jsonable())
print("report bytes:", len(text))
